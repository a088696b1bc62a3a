package backendsvc

import (
	"fmt"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/enc"
	"argus/internal/groups"
	"argus/internal/suite"
)

// Effect records. Registration draws fresh random key material, so replaying
// a register op through the normal entry point would produce a different
// enterprise than the one that crashed — and a different StateFingerprint.
// The log therefore records *effects*:
//
//   - Registrations carry the issued private key, the certificate chain and
//     the post-op admin serial; replay installs them verbatim
//     (backend.InstallSubject / InstallObject + cert.Admin.RestoreSerial).
//   - Operations whose group side effects draw randomness (group creation,
//     membership changes, the re-key on revocation, the cover-up membership a
//     subject's first provision draws) carry the post-op exported group
//     registry; replay performs the structural change through the public
//     entry point, if any, then overwrites group state from the blob.
//   - Purely deterministic operations (policy add/remove, attribute updates)
//     replay through the public entry points unchanged.
//
// The result is byte-identical state: the crash tests assert fingerprint
// equality, not approximate equivalence.

const (
	opRegisterSubject    byte = 1
	opRegisterObject     byte = 2
	opAddPolicy          byte = 3
	opRemovePolicy       byte = 4
	opRevokeSubject      byte = 5
	opUpdateSubjectAttrs byte = 6
	opCreateGroup        byte = 7
	opAddSubjectToGroup  byte = 8
	opAddCovertService   byte = 9
	opProvisionSubject   byte = 10
)

func opName(op byte) string {
	switch op {
	case opRegisterSubject:
		return "register_subject"
	case opRegisterObject:
		return "register_object"
	case opAddPolicy:
		return "add_policy"
	case opRemovePolicy:
		return "remove_policy"
	case opRevokeSubject:
		return "revoke_subject"
	case opUpdateSubjectAttrs:
		return "update_subject_attrs"
	case opCreateGroup:
		return "create_group"
	case opAddSubjectToGroup:
		return "add_subject_to_group"
	case opAddCovertService:
		return "add_covert_service"
	case opProvisionSubject:
		return "provision_subject"
	}
	return fmt.Sprintf("op(%d)", op)
}

func writeStrings(w *enc.Writer, ss []string) {
	w.U16(uint16(len(ss)))
	for _, s := range ss {
		w.String16(s)
	}
}

func readStrings(r *enc.Reader) []string {
	n := int(r.U16())
	if max := r.Remaining() / 2; n > max {
		n = max // each string costs at least its 2-byte length prefix
	}
	out := make([]string, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, r.String16())
	}
	return out
}

// encodeRegister serializes a subject or object registration effect: the
// post-op record plus the issued key material.
func encodeRegister(op byte, b *backend.Backend, id cert.ID, name string, level backend.Level, attrs attr.Set, functions []string) ([]byte, error) {
	key, certDER, err := b.KeyFor(id)
	if err != nil {
		return nil, err
	}
	w := enc.NewWriter(1024)
	w.U8(op)
	w.Raw(id[:])
	w.String16(name)
	w.String16(attrs.String())
	if op == opRegisterObject {
		w.U8(byte(level))
		writeStrings(w, functions)
	}
	w.Bytes16(key.Marshal())
	w.Bytes16(certDER)
	w.I64(b.AdminSerial())
	return w.Bytes(), nil
}

func encodeAddPolicy(subjectPred, objectPred *attr.Predicate, rights []string) []byte {
	w := enc.NewWriter(256)
	w.U8(opAddPolicy)
	w.String16(subjectPred.String())
	w.String16(objectPred.String())
	writeStrings(w, rights)
	return w.Bytes()
}

func encodeRemovePolicy(id uint64) []byte {
	w := enc.NewWriter(16)
	w.U8(opRemovePolicy)
	w.U64(id)
	return w.Bytes()
}

func encodeRevokeSubject(b *backend.Backend, id cert.ID) []byte {
	w := enc.NewWriter(512)
	w.U8(opRevokeSubject)
	w.Raw(id[:])
	w.Bytes32(b.ExportGroups())
	return w.Bytes()
}

func encodeUpdateSubjectAttrs(id cert.ID, attrs attr.Set) []byte {
	w := enc.NewWriter(128)
	w.U8(opUpdateSubjectAttrs)
	w.Raw(id[:])
	w.String16(attrs.String())
	return w.Bytes()
}

func encodeCreateGroup(b *backend.Backend, description string) []byte {
	w := enc.NewWriter(512)
	w.U8(opCreateGroup)
	w.String16(description)
	w.Bytes32(b.ExportGroups())
	return w.Bytes()
}

func encodeAddSubjectToGroup(b *backend.Backend, subject cert.ID, gid groups.ID) []byte {
	w := enc.NewWriter(512)
	w.U8(opAddSubjectToGroup)
	w.Raw(subject[:])
	w.U64(uint64(gid))
	w.Bytes32(b.ExportGroups())
	return w.Bytes()
}

func encodeAddCovertService(b *backend.Backend, object cert.ID, gid groups.ID, functions []string) []byte {
	w := enc.NewWriter(512)
	w.U8(opAddCovertService)
	w.Raw(object[:])
	w.U64(uint64(gid))
	writeStrings(w, functions)
	w.Bytes32(b.ExportGroups())
	return w.Bytes()
}

// encodeProvisionSubject serializes a provision that drew the subject's
// cover-up membership: the subject and the post-op group registry.
func encodeProvisionSubject(b *backend.Backend, subject cert.ID) []byte {
	w := enc.NewWriter(512)
	w.U8(opProvisionSubject)
	w.Raw(subject[:])
	w.Bytes32(b.ExportGroups())
	return w.Bytes()
}

// applyRecord replays one effect record onto b. Returns the op name for
// telemetry.
func applyRecord(b *backend.Backend, payload []byte) (string, error) {
	if len(payload) == 0 {
		return "", fmt.Errorf("backendsvc: empty effect record")
	}
	op := payload[0]
	r := enc.NewReader(payload[1:])
	fail := func(err error) (string, error) {
		return opName(op), fmt.Errorf("backendsvc: replay %s: %w", opName(op), err)
	}
	switch op {
	case opRegisterSubject, opRegisterObject:
		var id cert.ID
		copy(id[:], r.Raw(len(id)))
		name := r.String16()
		attrText := r.String16()
		var level backend.Level
		var functions []string
		if op == opRegisterObject {
			level = backend.Level(r.U8())
			functions = readStrings(r)
		}
		keyBytes := r.Bytes16()
		certDER := r.Bytes16()
		adminSerial := r.I64()
		if err := r.Done(); err != nil {
			return fail(err)
		}
		attrs, err := attr.ParseSet(attrText)
		if err != nil {
			return fail(err)
		}
		key, err := suite.UnmarshalSigningKey(keyBytes)
		if err != nil {
			return fail(err)
		}
		if op == opRegisterSubject {
			err = b.InstallSubject(backend.SubjectRecord{ID: id, Name: name, Attrs: attrs}, key, certDER, adminSerial)
		} else {
			err = b.InstallObject(id, name, level, attrs, functions, key, certDER, adminSerial)
		}
		if err != nil {
			return fail(err)
		}

	case opAddPolicy:
		subjText := r.String16()
		objText := r.String16()
		rights := readStrings(r)
		if err := r.Done(); err != nil {
			return fail(err)
		}
		subjPred, err := attr.Parse(subjText)
		if err != nil {
			return fail(err)
		}
		objPred, err := attr.Parse(objText)
		if err != nil {
			return fail(err)
		}
		if _, _, err := b.AddPolicy(subjPred, objPred, rights); err != nil {
			return fail(err)
		}

	case opRemovePolicy:
		id := r.U64()
		if err := r.Done(); err != nil {
			return fail(err)
		}
		if _, err := b.RemovePolicy(id); err != nil {
			return fail(err)
		}

	case opRevokeSubject:
		var id cert.ID
		copy(id[:], r.Raw(len(id)))
		blob := r.Bytes32()
		if err := r.Done(); err != nil {
			return fail(err)
		}
		if _, err := b.RevokeSubject(id); err != nil {
			return fail(err)
		}
		if err := b.ImportGroups(blob); err != nil {
			return fail(err)
		}

	case opUpdateSubjectAttrs:
		var id cert.ID
		copy(id[:], r.Raw(len(id)))
		attrText := r.String16()
		if err := r.Done(); err != nil {
			return fail(err)
		}
		attrs, err := attr.ParseSet(attrText)
		if err != nil {
			return fail(err)
		}
		if _, err := b.UpdateSubjectAttrs(id, attrs); err != nil {
			return fail(err)
		}

	case opCreateGroup:
		_ = r.String16() // description: carried for audit; state comes from the blob
		blob := r.Bytes32()
		if err := r.Done(); err != nil {
			return fail(err)
		}
		if err := b.ImportGroups(blob); err != nil {
			return fail(err)
		}

	case opAddSubjectToGroup:
		var id cert.ID
		copy(id[:], r.Raw(len(id)))
		_ = groups.ID(r.U64()) // structural membership comes from the blob
		blob := r.Bytes32()
		if err := r.Done(); err != nil {
			return fail(err)
		}
		if err := b.ImportGroups(blob); err != nil {
			return fail(err)
		}

	case opProvisionSubject:
		_ = r.Raw(len(cert.ID{})) // the subject: carried for audit; state comes from the blob
		blob := r.Bytes32()
		if err := r.Done(); err != nil {
			return fail(err)
		}
		if err := b.ImportGroups(blob); err != nil {
			return fail(err)
		}

	case opAddCovertService:
		var id cert.ID
		copy(id[:], r.Raw(len(id)))
		gid := groups.ID(r.U64())
		functions := readStrings(r)
		blob := r.Bytes32()
		if err := r.Done(); err != nil {
			return fail(err)
		}
		// Group state from the blob first (the group must exist), then the
		// structural covert-function table on the object record. AddMember is
		// idempotent and draws no key material, so order is the whole story.
		if err := b.ImportGroups(blob); err != nil {
			return fail(err)
		}
		if err := b.AddCovertService(id, gid, functions); err != nil {
			return fail(err)
		}

	default:
		return fail(fmt.Errorf("unknown op"))
	}
	return opName(op), nil
}
