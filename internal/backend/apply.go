package backend

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"argus/internal/attr"
	"argus/internal/cert"
	"argus/internal/groups"
	"argus/internal/suite"
)

// WAL replay support (internal/backendsvc). Registration draws fresh random
// key material, so replaying a register op through the normal entry points
// would produce a different enterprise than the one that crashed. The
// service's write-ahead log therefore records *effects* — the issued key and
// certificate — and replay installs them verbatim through the APIs below,
// reconstructing a byte-identical state (StateFingerprint) without touching
// the RNG. Churn operations whose effects are pure functions of existing
// state (policy add/remove, attribute updates, revocation blacklists) replay
// through the public entry points; only their group-rotation side effects
// are overwritten from the logged groups blob (ImportGroups).

// StateFingerprint digests the complete backend state — admin key, serial,
// registrations, policies, blacklists, issued credentials, groups — into a
// hex string. Two backends answer every future provisioning request
// byte-identically iff their fingerprints match; the WAL crash tests and the
// argus-backend kill/restart e2e gate on it.
func (b *Backend) StateFingerprint() string {
	sum := sha256.Sum256(b.Snapshot())
	return hex.EncodeToString(sum[:])
}

// InstallSubject installs a previously issued subject registration: record,
// escrowed key and certificate chain, exactly as RegisterSubject created
// them. The admin's certificate serial fast-forwards so subsequently issued
// certificates never reuse a serial.
func (b *Backend) InstallSubject(rec SubjectRecord, key *suite.SigningKey, certDER []byte, adminSerial int64) error {
	if _, dup := b.keys[rec.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicate, rec.Name)
	}
	r := rec
	r.Attrs = rec.Attrs.Clone()
	b.keys[rec.ID] = key
	b.certs[rec.ID] = certDER
	b.subjects[rec.ID] = &r
	b.admin.RestoreSerial(adminSerial)
	b.countChurn("register_subject", UpdateReport{})
	return nil
}

// InstallObject installs a previously issued object registration (see
// InstallSubject).
func (b *Backend) InstallObject(id cert.ID, name string, level Level, attrs attr.Set, functions []string, key *suite.SigningKey, certDER []byte, adminSerial int64) error {
	if !level.Valid() {
		return fmt.Errorf("%w: %d", ErrInvalidLevel, int(level))
	}
	if _, dup := b.keys[id]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	b.keys[id] = key
	b.certs[id] = certDER
	b.admin.RestoreSerial(adminSerial)
	b.addObject(id, ObjectSpec{Name: name, Level: level, Attrs: attrs, Functions: functions})
	return nil
}

// KeyFor returns the escrowed private key and certificate chain issued to an
// entity — the effect material the WAL records for registrations.
func (b *Backend) KeyFor(id cert.ID) (*suite.SigningKey, []byte, error) {
	key, ok := b.keys[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: entity %v", ErrNotFound, id)
	}
	return key, b.certs[id], nil
}

// AdminSerial exposes the admin's certificate-serial counter for effect
// records.
func (b *Backend) AdminSerial() int64 {
	_, _, serial, _ := b.admin.Export()
	return serial
}

// ImportGroups replaces the secret-group registry with the exported blob —
// the replay path for operations whose group side effects drew fresh key
// material (CreateGroup, membership changes, revocation re-keys).
func (b *Backend) ImportGroups(blob []byte) error {
	g, err := groups.Import(blob)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptState, err)
	}
	b.Groups = g
	return nil
}

// ExportGroups returns the secret-group registry blob for effect records.
func (b *Backend) ExportGroups() []byte { return b.Groups.Export() }
