package backend

import (
	"fmt"
	"sort"

	"argus/internal/attr"
	"argus/internal/cert"
	"argus/internal/enc"
	"argus/internal/groups"
	"argus/internal/suite"
)

// Persistence: the backend is the enterprise's durable authority (§II-A:
// "a hierarchy of servers ... resists collapse under the load and a single
// point of failure"), so its state — admin key, registrations, policies,
// groups, issued credentials, revocations — must survive restarts. Snapshot
// produces a single deterministic blob; Restore reconstructs a backend that
// issues byte-identical credentials. The blob contains private keys: store
// it accordingly.

const snapshotVersion = 1

// Snapshot serializes the complete backend state.
func (b *Backend) Snapshot() []byte {
	w := enc.NewWriter(4096)
	w.U8(snapshotVersion)
	w.U16(uint16(b.strength))

	adminKey, caDER, serial, chain := b.admin.Export()
	w.Bytes16(adminKey)
	w.Bytes16(caDER)
	w.U64(uint64(serial))
	w.U8(byte(len(chain)))
	for _, c := range chain {
		w.Bytes16(c)
	}
	w.Bytes16(b.anchor)
	w.U32(uint32(b.profSizes))
	w.U64(b.nextPol)

	// Subjects, sorted for determinism.
	sids := make([]cert.ID, 0, len(b.subjects))
	for id := range b.subjects {
		sids = append(sids, id)
	}
	sort.Slice(sids, func(i, j int) bool { return sids[i].Less(sids[j]) })
	w.U32(uint32(len(sids)))
	for _, id := range sids {
		s := b.subjects[id]
		w.Raw(id[:])
		w.String16(s.Name)
		w.String16(s.Attrs.String())
		if s.Revoked {
			w.U8(1)
		} else {
			w.U8(0)
		}
	}

	// Objects.
	oids := b.Objects()
	w.U32(uint32(len(oids)))
	for _, id := range oids {
		o := b.objects[id]
		w.Raw(id[:])
		w.String16(o.Name)
		w.U8(byte(o.Level))
		w.String16(o.Attrs.String())
		w.U16(uint16(len(o.Functions)))
		for _, f := range o.Functions {
			w.String16(f)
		}
		// Covert services, sorted by group.
		gids := make([]groups.ID, 0, len(o.covert))
		for gid := range o.covert {
			gids = append(gids, gid)
		}
		sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
		w.U16(uint16(len(gids)))
		for _, gid := range gids {
			w.U64(uint64(gid))
			fns := o.covert[gid]
			w.U16(uint16(len(fns)))
			for _, f := range fns {
				w.String16(f)
			}
		}
		writeIDList(w, o.revoked)
	}

	// Policies.
	pols := b.Policies()
	w.U32(uint32(len(pols)))
	for _, p := range pols {
		w.U64(p.ID)
		w.String16(p.Subject.String())
		w.String16(p.Object.String())
		w.U16(uint16(len(p.Rights)))
		for _, r := range p.Rights {
			w.String16(r)
		}
	}

	// Issued keys and certificates.
	kids := make([]cert.ID, 0, len(b.keys))
	for id := range b.keys {
		kids = append(kids, id)
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Less(kids[j]) })
	w.U32(uint32(len(kids)))
	for _, id := range kids {
		w.Raw(id[:])
		w.Bytes16(b.keys[id].Marshal())
		w.Bytes16(b.certs[id])
	}

	// Groups registry.
	w.Bytes32(b.Groups.Export())
	return w.Bytes()
}

func writeIDList(w *enc.Writer, set map[cert.ID]bool) {
	ids := make([]cert.ID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.Raw(id[:])
	}
}

func readIDList(r *enc.Reader) map[cert.ID]bool {
	n := int(r.U32())
	// Cap the allocation hint by what the input could actually hold: a
	// forged count must not pre-size a huge map before truncation is
	// detected.
	hint := n
	if max := r.Remaining() / len(cert.ID{}); hint > max {
		hint = max
	}
	out := make(map[cert.ID]bool, hint)
	for i := 0; i < n && r.Err() == nil; i++ {
		var id cert.ID
		copy(id[:], r.Raw(len(id)))
		out[id] = true
	}
	return out
}

// Restore reconstructs a backend from a Snapshot blob. Options apply after
// reconstruction (telemetry and clock are not part of the persisted state).
func Restore(blob []byte, opts ...Option) (*Backend, error) {
	r := enc.NewReader(blob)
	if v := r.U8(); v != snapshotVersion && r.Err() == nil {
		return nil, fmt.Errorf("%w: unsupported snapshot version", ErrCorruptState)
	}
	strength := suite.Strength(r.U16())
	adminKey := r.Bytes16()
	caDER := r.Bytes16()
	serial := int64(r.U64())
	nChain := int(r.U8())
	var chain [][]byte
	for i := 0; i < nChain && r.Err() == nil; i++ {
		chain = append(chain, r.Bytes16())
	}
	anchor := r.Bytes16()
	profSizes := int(r.U32())
	nextPol := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	admin, err := cert.ImportAdmin(adminKey, caDER, serial, chain)
	if err != nil {
		return nil, err
	}
	b := newBackend(admin, anchor, strength, opts)
	b.nextPol = nextPol
	b.profSizes = profSizes

	nSubjects := int(r.U32())
	for i := 0; i < nSubjects && r.Err() == nil; i++ {
		var id cert.ID
		copy(id[:], r.Raw(len(id)))
		name := r.String16()
		attrText := r.String16()
		revoked := r.U8() == 1
		attrs, err := attr.ParseSet(attrText)
		if err != nil {
			return nil, err
		}
		b.subjects[id] = &SubjectRecord{ID: id, Name: name, Attrs: attrs, Revoked: revoked}
	}

	nObjects := int(r.U32())
	for i := 0; i < nObjects && r.Err() == nil; i++ {
		var id cert.ID
		copy(id[:], r.Raw(len(id)))
		o := &ObjectRecord{
			ID:     id,
			Name:   r.String16(),
			Level:  Level(r.U8()),
			covert: make(map[groups.ID][]string),
		}
		attrs, err := attr.ParseSet(r.String16())
		if err != nil {
			return nil, err
		}
		o.Attrs = attrs
		nf := int(r.U16())
		for j := 0; j < nf && r.Err() == nil; j++ {
			o.Functions = append(o.Functions, r.String16())
		}
		ng := int(r.U16())
		for j := 0; j < ng && r.Err() == nil; j++ {
			gid := groups.ID(r.U64())
			nfn := int(r.U16())
			var fns []string
			for k := 0; k < nfn && r.Err() == nil; k++ {
				fns = append(fns, r.String16())
			}
			o.covert[gid] = fns
		}
		o.revoked = readIDList(r)
		if !o.Level.Valid() {
			return nil, fmt.Errorf("%w: snapshot has invalid object level", ErrCorruptState)
		}
		b.objects[id] = o
	}

	nPols := int(r.U32())
	for i := 0; i < nPols && r.Err() == nil; i++ {
		p := &Policy{ID: r.U64()}
		subjPred, err := attr.Parse(r.String16())
		if err != nil {
			return nil, err
		}
		objPred, err := attr.Parse(r.String16())
		if err != nil {
			return nil, err
		}
		p.Subject, p.Object = subjPred, objPred
		nr := int(r.U16())
		for j := 0; j < nr && r.Err() == nil; j++ {
			p.Rights = append(p.Rights, r.String16())
		}
		b.policies[p.ID] = p
	}

	nKeys := int(r.U32())
	for i := 0; i < nKeys && r.Err() == nil; i++ {
		var id cert.ID
		copy(id[:], r.Raw(len(id)))
		keyBytes := r.Bytes16()
		der := r.Bytes16()
		if r.Err() != nil {
			break
		}
		key, err := suite.UnmarshalSigningKey(keyBytes)
		if err != nil {
			return nil, err
		}
		b.keys[id] = key
		b.certs[id] = der
	}

	groupBlob := r.Bytes32()
	if err := r.Done(); err != nil {
		return nil, err
	}
	g, err := groups.Import(groupBlob)
	if err != nil {
		return nil, err
	}
	b.Groups = g
	return b, nil
}
