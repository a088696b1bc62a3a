package baseline

import (
	"time"

	"argus/internal/enc"
	"argus/internal/pbc"
	"argus/internal/suite"
	"argus/internal/transport"
)

// PBC-based Level 3 discovery, adapted from MASHaBLE-style secret handshakes
// (§IX): subject and object hold SOK credentials from the community
// authority; each derives the pairwise key with ONE PAIRING and proves
// possession via HMAC. The object returns the covert profile encrypted under
// the pairwise key. Every peer interaction costs a pairing on each side —
// the structural weakness Fig 6(d) quantifies.

// PBCObject is a community member serving a covert profile.
type PBCObject struct {
	ep      transport.Endpoint
	Cred    *pbc.Credential
	Profile []byte
}

// Bind attaches the object to ep as the endpoint's handler.
func (o *PBCObject) Bind(ep transport.Endpoint) { o.ep = ep; ep.Bind(o) }

// Handle implements transport.Handler: on query, derive the pairwise key
// (one pairing — measured and charged), verify the subject's proof, respond
// with proof + encrypted profile.
func (o *PBCObject) Handle(from transport.Addr, payload []byte) {
	if len(payload) == 0 || payload[0] != pbcQueryMagic {
		return
	}
	r := enc.NewReader(payload[1:])
	to := r.String16()
	peerID := r.String16()
	rs := r.Bytes16()
	proof := r.Bytes16()
	if r.Err() != nil || r.Remaining() != 0 {
		return
	}
	if to != o.Cred.ID {
		return // probe addressed to another candidate identity
	}

	start := time.Now()
	key := o.Cred.PairwiseKey(peerID) // one pairing
	elapsed := time.Since(start)

	transcript := append([]byte(peerID), rs...)
	if !pbc.Verify(key, transcript, proof) {
		// Not a fellow: silence. The failed verification still cost the
		// pairing — charge it.
		o.ep.Compute(elapsed, transport.Func(func() {}))
		return
	}
	ct, err := suite.EncryptProfile(key[:], o.Profile, nil)
	if err != nil {
		return
	}
	respTranscript := append(append([]byte(o.Cred.ID), transcript...), ct...)
	respProof := pbc.Prove(key, respTranscript)

	w := enc.NewWriter(128 + len(ct))
	w.U8(pbcResponseMagic)
	w.String16(o.Cred.ID)
	w.Bytes16(respProof)
	w.Bytes16(ct)
	o.ep.Compute(elapsed, transport.Func(func() { o.ep.Send(from, w.Bytes()) }))
}

// PBCDiscovery is one covert service found via secret handshake.
type PBCDiscovery struct {
	Node    transport.Addr
	PeerID  string
	Profile []byte
	At      time.Duration
}

// PBCSubject is the subject engine: it broadcasts a proof of community
// membership toward each known/candidate peer. Following MASHaBLE, peers are
// addressed by identity: the subject derives one pairwise key per candidate
// peer (one pairing each — the cost the paper contrasts with Argus's two
// HMACs).
type PBCSubject struct {
	ep   transport.Endpoint
	Cred *pbc.Credential
	// Candidates are the object identities to probe (MASHaBLE discovers
	// community members by identity set).
	Candidates []string

	rs      []byte
	keys    map[string][32]byte
	Results []PBCDiscovery
}

// Bind attaches the subject to ep as the endpoint's handler.
func (s *PBCSubject) Bind(ep transport.Endpoint) { s.ep = ep; ep.Bind(s) }

// Discover derives pairwise keys for all candidates (pairings, measured and
// charged) and broadcasts the proof.
func (s *PBCSubject) Discover(ttl int) error {
	rs, err := suite.NewNonce(nil)
	if err != nil {
		return err
	}
	s.rs = rs
	s.keys = make(map[string][32]byte, len(s.Candidates))

	start := time.Now()
	for _, cand := range s.Candidates {
		s.keys[cand] = s.Cred.PairwiseKey(cand) // one pairing per candidate
	}
	elapsed := time.Since(start)

	s.ep.Compute(elapsed, transport.Func(func() {
		for _, cand := range s.Candidates {
			key := s.keys[cand]
			transcript := append([]byte(s.Cred.ID), rs...)
			w := enc.NewWriter(128)
			w.U8(pbcQueryMagic)
			w.String16(cand) // addressed probe: only that identity pairs
			w.String16(s.Cred.ID)
			w.Bytes16(rs)
			w.Bytes16(pbc.Prove(key, transcript))
			s.ep.Broadcast(w.Bytes(), ttl)
		}
	}))
	return nil
}

// Handle implements transport.Handler.
func (s *PBCSubject) Handle(from transport.Addr, payload []byte) {
	if len(payload) == 0 || payload[0] != pbcResponseMagic {
		return
	}
	r := enc.NewReader(payload[1:])
	peerID := r.String16()
	proof := r.Bytes16()
	ct := r.Bytes16()
	if r.Err() != nil || r.Remaining() != 0 {
		return
	}
	key, ok := s.keys[peerID]
	if !ok {
		return
	}
	transcript := append([]byte(s.Cred.ID), s.rs...)
	respTranscript := append(append([]byte(peerID), transcript...), ct...)
	if !pbc.Verify(key, respTranscript, proof) {
		return
	}
	profile, err := suite.DecryptProfile(key[:], ct)
	if err != nil {
		return
	}
	s.Results = append(s.Results, PBCDiscovery{Node: from, PeerID: peerID, Profile: profile, At: s.ep.Now()})
}
