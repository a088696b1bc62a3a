package baseline

import (
	"bytes"
	"testing"

	"argus/internal/abe"
	"argus/internal/netsim"
	"argus/internal/pbc"
	"argus/internal/transport"
)

// binder is either side of either scheme.
type binder interface{ Bind(transport.Endpoint) }

// star binds subject and each object to a fresh endpoint of one network, every
// object one hop from the subject.
func star(subject binder, objects ...binder) *netsim.Network {
	net := netsim.New(netsim.DefaultWiFi(), 1)
	sep := net.NewEndpoint()
	subject.Bind(sep)
	for _, o := range objects {
		oep := net.NewEndpoint()
		o.Bind(oep)
		net.Link(sep.Node(), oep.Node())
	}
	return net
}

func TestABEDiscoveryAuthorized(t *testing.T) {
	pk, mk, err := abe.Setup()
	if err != nil {
		t.Fatal(err)
	}
	profile := []byte("multimedia station: play, record")
	v, err := EncryptVariant(pk, abe.And(abe.Leaf("position:staff"), abe.Leaf("department:X")), profile)
	if err != nil {
		t.Fatal(err)
	}

	sk, _ := abe.KeyGen(pk, mk, []string{"position:staff", "department:X"})
	subj := &ABESubject{PK: pk, SK: sk}
	net := star(subj, &ABEObject{Variants: []ABEVariant{v}})

	subj.Discover(1)
	net.Run(0)
	if len(subj.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(subj.Results))
	}
	if !bytes.Equal(subj.Results[0].Profile, profile) {
		t.Fatal("recovered profile differs")
	}
	if subj.Results[0].At <= 0 {
		t.Fatal("decryption cost not charged to virtual clock")
	}
}

func TestABEDiscoveryUnauthorized(t *testing.T) {
	pk, mk, err := abe.Setup()
	if err != nil {
		t.Fatal(err)
	}
	v, err := EncryptVariant(pk, abe.Leaf("position:manager"), []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	sk, _ := abe.KeyGen(pk, mk, []string{"position:staff"})
	subj := &ABESubject{PK: pk, SK: sk}
	net := star(subj, &ABEObject{Variants: []ABEVariant{v}})

	subj.Discover(1)
	net.Run(0)
	if len(subj.Results) != 0 {
		t.Fatalf("unauthorized subject decrypted %d variants", len(subj.Results))
	}
}

func TestPBCDiscoveryFellow(t *testing.T) {
	auth, err := pbc.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	profile := []byte("covert support service")
	subj := &PBCSubject{Cred: auth.Issue("subject-S"), Candidates: []string{"kiosk-1"}}
	net := star(subj, &PBCObject{Cred: auth.Issue("kiosk-1"), Profile: profile})

	if err := subj.Discover(1); err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	if len(subj.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(subj.Results))
	}
	if !bytes.Equal(subj.Results[0].Profile, profile) {
		t.Fatal("recovered profile differs")
	}
	// One pairing per side ⇒ virtual completion well above the link latency.
	if subj.Results[0].At < 100*1e6 {
		t.Fatalf("completion at %v — pairing cost apparently not charged", subj.Results[0].At)
	}
}

func TestPBCDiscoveryOutsiderFails(t *testing.T) {
	authA, _ := pbc.NewAuthority()
	authB, _ := pbc.NewAuthority() // different community
	subj := &PBCSubject{Cred: authB.Issue("outsider"), Candidates: []string{"kiosk-1"}}
	net := star(subj, &PBCObject{Cred: authA.Issue("kiosk-1"), Profile: []byte("covert")})

	subj.Discover(1)
	net.Run(0)
	if len(subj.Results) != 0 {
		t.Fatalf("outsider discovered %d covert services", len(subj.Results))
	}
}

func TestPBCAddressedProbes(t *testing.T) {
	// A probe addressed to kiosk-1 must not cost kiosk-2 a pairing, and
	// kiosk-2 must not answer it.
	auth, _ := pbc.NewAuthority()
	subj := &PBCSubject{Cred: auth.Issue("s"), Candidates: []string{"kiosk-1"}}
	net := star(subj,
		&PBCObject{Cred: auth.Issue("kiosk-1"), Profile: []byte("p1")},
		&PBCObject{Cred: auth.Issue("kiosk-2"), Profile: []byte("p2")})

	subj.Discover(1)
	net.Run(0)
	if len(subj.Results) != 1 || subj.Results[0].PeerID != "kiosk-1" {
		t.Fatalf("results = %+v, want kiosk-1 only", subj.Results)
	}
}

func TestMalformedBaselineTraffic(t *testing.T) {
	pk, mk, _ := abe.Setup()
	sk, _ := abe.KeyGen(pk, mk, nil)
	auth, _ := pbc.NewAuthority()
	subj := &ABESubject{PK: pk, SK: sk}
	obj := &PBCObject{Cred: auth.Issue("o"), Profile: []byte("p")}
	net := star(subj, obj)
	// Garbage and wrong-magic payloads are ignored without panics.
	for _, p := range [][]byte{nil, {0xFF}, {abeResponseMagic}, {abeResponseMagic, 0, 5, 1, 2}} {
		subj.Handle(netsim.AddrOf(1), p)
	}
	for _, p := range [][]byte{nil, {0xEE}, {pbcQueryMagic, 0, 1}} {
		obj.Handle(netsim.AddrOf(0), p)
	}
	net.Run(0)
	if len(subj.Results) != 0 {
		t.Fatal("garbage produced results")
	}
}
