package cert

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/obs"
	"argus/internal/suite"

	"argus/internal/transport/transporttest"
)

// vcFixture builds an admin plus one issued entity credential pair.
type vcFixture struct {
	admin   *Admin
	id      ID
	pub     suite.PublicKey
	certDER []byte
	prof    *Profile
	profRaw []byte
}

func newVCFixture(t *testing.T, admin *Admin, name string) *vcFixture {
	t.Helper()
	key, err := suite.GenerateSigningKey(admin.Strength(), nil)
	if err != nil {
		t.Fatal(err)
	}
	id := IDFromName(name)
	certDER, err := admin.IssueCertChain(id, name, RoleObject, key.Public())
	if err != nil {
		t.Fatal(err)
	}
	prof := &Profile{
		Kind:    RoleObject,
		Entity:  id,
		Serial:  1,
		Issued:  time.Now().Truncate(time.Second),
		Expires: time.Now().Add(24 * time.Hour).Truncate(time.Second),
		Attrs:   attr.Set{"room": "101"},
	}
	if err := admin.SignProfile(prof); err != nil {
		t.Fatal(err)
	}
	raw := prof.Encode()
	decoded, err := DecodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	return &vcFixture{admin: admin, id: id, pub: key.Public(), certDER: certDER, prof: decoded, profRaw: raw}
}

func newVCAdmin(t *testing.T) *Admin {
	t.Helper()
	admin, err := NewAdmin(suite.S128, "vcache-root")
	if err != nil {
		t.Fatal(err)
	}
	return admin
}

func TestVerifyCacheCertHitMiss(t *testing.T) {
	admin := newVCAdmin(t)
	fx := newVCFixture(t, admin, "lamp")
	c := NewVerifyCache(8)

	info1, err := c.VerifyCert(admin.CACert(), fx.certDER, admin.Strength())
	if err != nil {
		t.Fatalf("first VerifyCert: %v", err)
	}
	if hits, misses, entries := statsOf(c); hits != 0 || misses != 1 || entries != 1 {
		t.Fatalf("after miss: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
	info2, err := c.VerifyCert(admin.CACert(), fx.certDER, admin.Strength())
	if err != nil {
		t.Fatalf("second VerifyCert: %v", err)
	}
	if hits, misses, _ := statsOf(c); hits != 1 || misses != 1 {
		t.Fatalf("after hit: hits=%d misses=%d", hits, misses)
	}
	if info1.ID != fx.id || info2.ID != fx.id || info1.Name != "lamp" || info2.Name != "lamp" {
		t.Fatalf("cached info mismatch: %+v vs %+v", info1, info2)
	}
	// The hit must return a private copy, not aliased cache state.
	info2.Name = "mutated"
	info3, err := c.VerifyCert(admin.CACert(), fx.certDER, admin.Strength())
	if err != nil || info3.Name != "lamp" {
		t.Fatalf("cache entry was aliased by caller: %+v err=%v", info3, err)
	}
}

func TestVerifyCacheProfileHitMiss(t *testing.T) {
	admin := newVCAdmin(t)
	fx := newVCFixture(t, admin, "plug")
	c := NewVerifyCache(8)
	now := time.Now()

	if err := c.VerifyProfileAnchored(fx.prof, fx.profRaw, admin.CACert(), admin.Public(), now); err != nil {
		t.Fatalf("first verify: %v", err)
	}
	if err := c.VerifyProfileAnchored(fx.prof, fx.profRaw, admin.CACert(), admin.Public(), now); err != nil {
		t.Fatalf("second verify: %v", err)
	}
	if hits, misses, entries := statsOf(c); hits != 1 || misses != 1 || entries != 1 {
		t.Fatalf("hits=%d misses=%d entries=%d", hits, misses, entries)
	}

	// A tampered profile must fail even though an entry exists for the
	// untampered bytes (different raw → different key → real verification).
	bad := *fx.prof
	bad.Note = "tampered"
	badRaw := bad.Encode()
	if err := c.VerifyProfileAnchored(&bad, badRaw, admin.CACert(), admin.Public(), now); err == nil {
		t.Fatal("tampered profile verified")
	}
	// Failures are never cached.
	if _, _, entries := statsOf(c); entries != 1 {
		t.Fatalf("failed verification was cached: entries=%d", entries)
	}
}

// TestVerifyCacheDecodeProfile: the decoding is memoized beside the
// verification — a hit hands back the profile its entry was stored with, so
// the same bytes are parsed and kept once — and never further than it: a
// window that closed, bytes that do not parse and a signature that does not
// verify take the real path, and a nil cache decodes and verifies every time.
func TestVerifyCacheDecodeProfile(t *testing.T) {
	admin := newVCAdmin(t)
	fx := newVCFixture(t, admin, "plug")
	c := NewVerifyCache(8)
	now := time.Now()

	p1, err := c.DecodeProfile(fx.profRaw, admin.CACert(), admin.Public(), now)
	if err != nil || p1.Entity != fx.id || p1.Attrs["room"] != "101" {
		t.Fatalf("first decode: %+v, %v", p1, err)
	}
	p2, err := c.DecodeProfile(append([]byte(nil), fx.profRaw...), admin.CACert(), admin.Public(), now)
	if err != nil || p2 != p1 {
		t.Fatalf("a hit decoded the profile again (%p, %p) or failed: %v", p1, p2, err)
	}
	if hits, misses, entries := statsOf(c); hits != 1 || misses != 1 || entries != 1 {
		t.Fatalf("hits=%d misses=%d entries=%d", hits, misses, entries)
	}
	// The entry VerifyProfileAnchored stores serves DecodeProfile too.
	fy := newVCFixture(t, admin, "lamp")
	if err := c.VerifyProfileAnchored(fy.prof, fy.profRaw, admin.CACert(), admin.Public(), now); err != nil {
		t.Fatal(err)
	}
	if p, err := c.DecodeProfile(fy.profRaw, admin.CACert(), admin.Public(), now); err != nil || p != fy.prof {
		t.Fatalf("entry stored by VerifyProfileAnchored: %p, want %p (%v)", p, fy.prof, err)
	}

	// Outside the window the entry is evicted and the real path refuses.
	if _, err := c.DecodeProfile(fx.profRaw, admin.CACert(), admin.Public(), now.Add(48*time.Hour)); err == nil {
		t.Fatal("expired profile served from the cache")
	}
	bad := *fx.prof
	bad.Note = "tampered"
	if _, err := c.DecodeProfile(bad.Encode(), admin.CACert(), admin.Public(), now); err == nil {
		t.Fatal("tampered profile verified")
	}
	if _, err := c.DecodeProfile(fx.profRaw[:len(fx.profRaw)/2], admin.CACert(), admin.Public(), now); err == nil {
		t.Fatal("truncated profile decoded")
	}
	if _, _, entries := statsOf(c); entries != 1 {
		t.Fatalf("entries = %d, want the one for lamp", entries)
	}

	var none *VerifyCache
	n1, err := none.DecodeProfile(fx.profRaw, admin.CACert(), admin.Public(), now)
	if err != nil || n1 == p1 || n1.Entity != fx.id {
		t.Fatalf("nil cache: %+v, %v", n1, err)
	}
	if _, err := none.DecodeProfile(bad.Encode(), admin.CACert(), admin.Public(), now); err == nil {
		t.Fatal("nil cache verified a tampered profile")
	}
}

func TestVerifyCacheFailuresNotCached(t *testing.T) {
	admin := newVCAdmin(t)
	other := newVCAdmin(t)
	fx := newVCFixture(t, admin, "cam")
	c := NewVerifyCache(8)

	// Verifying against the wrong anchor fails and stores nothing.
	if _, err := c.VerifyCert(other.CACert(), fx.certDER, admin.Strength()); err == nil {
		t.Fatal("chain verified against wrong anchor")
	}
	if _, misses, entries := statsOf(c); misses != 1 || entries != 0 {
		t.Fatalf("failure cached: misses=%d entries=%d", misses, entries)
	}
}

func TestVerifyCacheLRUBound(t *testing.T) {
	admin := newVCAdmin(t)
	c := NewVerifyCache(2)
	fxs := []*vcFixture{
		newVCFixture(t, admin, "a"),
		newVCFixture(t, admin, "b"),
		newVCFixture(t, admin, "c"),
	}
	for _, fx := range fxs {
		if _, err := c.VerifyCert(admin.CACert(), fx.certDER, admin.Strength()); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("capacity not enforced: len=%d", c.Len())
	}
	// "a" was least recently used and must have been evicted: re-verifying it
	// is a miss; "c" is still warm.
	if _, err := c.VerifyCert(admin.CACert(), fxs[2].certDER, admin.Strength()); err != nil {
		t.Fatal(err)
	}
	hitsBefore, missesBefore, _ := statsOf(c)
	if _, err := c.VerifyCert(admin.CACert(), fxs[0].certDER, admin.Strength()); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := statsOf(c)
	if hits != hitsBefore || misses != missesBefore+1 {
		t.Fatalf("evicted entry served warm: hits %d→%d misses %d→%d", hitsBefore, hits, missesBefore, misses)
	}
}

func TestVerifyCacheInvalidateEntity(t *testing.T) {
	admin := newVCAdmin(t)
	fx1 := newVCFixture(t, admin, "bulb")
	fx2 := newVCFixture(t, admin, "lock")
	c := NewVerifyCache(8)
	now := time.Now()

	for _, fx := range []*vcFixture{fx1, fx2} {
		if _, err := c.VerifyCert(admin.CACert(), fx.certDER, admin.Strength()); err != nil {
			t.Fatal(err)
		}
		if err := c.VerifyProfileAnchored(fx.prof, fx.profRaw, admin.CACert(), admin.Public(), now); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("expected 4 entries, got %d", c.Len())
	}
	if n := c.InvalidateEntity(fx1.id); n != 2 {
		t.Fatalf("InvalidateEntity removed %d entries, want 2", n)
	}
	if c.Len() != 2 {
		t.Fatalf("expected 2 entries after invalidation, got %d", c.Len())
	}
	// fx1 re-verifies cold, fx2 stays warm.
	_, missesBefore, _ := statsOf(c)
	if _, err := c.VerifyCert(admin.CACert(), fx1.certDER, admin.Strength()); err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := statsOf(c); misses != missesBefore+1 {
		t.Fatal("invalidated entry served warm")
	}
	hitsBefore, _, _ := statsOf(c)
	if _, err := c.VerifyCert(admin.CACert(), fx2.certDER, admin.Strength()); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := statsOf(c); hits != hitsBefore+1 {
		t.Fatal("unrelated entity was invalidated")
	}
	if n := c.InvalidateEntity(IDFromName("never-seen")); n != 0 {
		t.Fatalf("InvalidateEntity on unknown id removed %d", n)
	}
}

func TestVerifyCacheFlush(t *testing.T) {
	admin := newVCAdmin(t)
	fx := newVCFixture(t, admin, "tv")
	c := NewVerifyCache(8)
	if _, err := c.VerifyCert(admin.CACert(), fx.certDER, admin.Strength()); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("Flush left %d entries", c.Len())
	}
	_, missesBefore, _ := statsOf(c)
	if _, err := c.VerifyCert(admin.CACert(), fx.certDER, admin.Strength()); err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := statsOf(c); misses != missesBefore+1 {
		t.Fatal("flushed entry served warm")
	}
}

func TestVerifyCacheWindowExpiry(t *testing.T) {
	admin := newVCAdmin(t)
	fx := newVCFixture(t, admin, "meter")
	c := NewVerifyCache(8)
	now := time.Now()

	if err := c.VerifyProfileAnchored(fx.prof, fx.profRaw, admin.CACert(), admin.Public(), now); err != nil {
		t.Fatal(err)
	}
	// A hit at a time past the profile's Expires must NOT be served from the
	// cache: the entry is evicted and the real path re-runs (and fails, since
	// the window check fails there too).
	late := fx.prof.Expires.Add(time.Hour)
	if err := c.VerifyProfileAnchored(fx.prof, fx.profRaw, admin.CACert(), admin.Public(), late); err == nil {
		t.Fatal("expired profile served from warm cache")
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry still cached: len=%d", c.Len())
	}
}

func TestVerifyCacheHierarchyAndStrengthKeying(t *testing.T) {
	root := newVCAdmin(t)
	sub, err := root.NewSubordinate("building-7")
	if err != nil {
		t.Fatal(err)
	}
	fx := newVCFixture(t, sub, "printer")
	c := NewVerifyCache(8)
	now := time.Now()

	// Chain-issued certificate and sub-signed profile verify against the root
	// anchor, and the memoized results hit on repeat.
	if _, err := c.VerifyCert(root.CACert(), fx.certDER, root.Strength()); err != nil {
		t.Fatalf("hierarchical chain: %v", err)
	}
	if _, err := c.VerifyCert(root.CACert(), fx.certDER, root.Strength()); err != nil {
		t.Fatal(err)
	}
	if len(fx.prof.SignerChain) == 0 {
		t.Fatal("fixture profile is not sub-signed")
	}
	if err := c.VerifyProfileAnchored(fx.prof, fx.profRaw, root.CACert(), root.Public(), now); err != nil {
		t.Fatalf("hierarchical profile: %v", err)
	}
	if err := c.VerifyProfileAnchored(fx.prof, fx.profRaw, root.CACert(), root.Public(), now); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := statsOf(c); hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	// A different declared strength must key separately (it changes what the
	// real verification accepts), not alias the cached success.
	if _, err := c.VerifyCert(root.CACert(), fx.certDER, suite.S192); err == nil {
		t.Fatal("strength mismatch served from cache")
	}
}

func TestVerifyCacheNilReceiver(t *testing.T) {
	admin := newVCAdmin(t)
	fx := newVCFixture(t, admin, "nilcase")
	var c *VerifyCache

	info, err := c.VerifyCert(admin.CACert(), fx.certDER, admin.Strength())
	if err != nil || info.ID != fx.id {
		t.Fatalf("nil cache VerifyCert: %+v err=%v", info, err)
	}
	if err := c.VerifyProfileAnchored(fx.prof, fx.profRaw, admin.CACert(), admin.Public(), time.Now()); err != nil {
		t.Fatalf("nil cache VerifyProfileAnchored: %v", err)
	}
	if hits, misses, entries := statsOf(c); hits != 0 || misses != 0 || entries != 0 {
		t.Fatal("nil cache reported stats")
	}
	if c.Len() != 0 || c.InvalidateEntity(fx.id) != 0 {
		t.Fatal("nil cache mutators misbehaved")
	}
	c.Flush()
	c.Instrument(nil)
}

func TestVerifyCacheInstrument(t *testing.T) {
	admin := newVCAdmin(t)
	fx := newVCFixture(t, admin, "gauge")
	c := NewVerifyCache(8)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	now := time.Now()

	for i := 0; i < 2; i++ {
		if _, err := c.VerifyCert(admin.CACert(), fx.certDER, admin.Strength()); err != nil {
			t.Fatal(err)
		}
		if err := c.VerifyProfileAnchored(fx.prof, fx.profRaw, admin.CACert(), admin.Public(), now); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int64{"cert/hit": 1, "cert/miss": 1, "prof/hit": 1, "prof/miss": 1}
	for _, s := range reg.Snapshot().Metrics {
		if s.Name != obs.MVerifyCacheEvents {
			continue
		}
		k := s.Labels["kind"] + "/" + s.Labels["result"]
		if s.Value != float64(want[k]) {
			t.Fatalf("counter %s = %v, want %d", k, s.Value, want[k])
		}
		delete(want, k)
	}
	if len(want) != 0 {
		t.Fatalf("missing counters: %v", want)
	}
	// Detaching stops exposition without affecting behavior.
	c.Instrument(nil)
	if _, err := c.VerifyCert(admin.CACert(), fx.certDER, admin.Strength()); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCacheConcurrent(t *testing.T) {
	admin := newVCAdmin(t)
	fxs := []*vcFixture{
		newVCFixture(t, admin, "c0"),
		newVCFixture(t, admin, "c1"),
		newVCFixture(t, admin, "c2"),
	}
	c := NewVerifyCache(4)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	now := time.Now()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				fx := fxs[(g+i)%len(fxs)]
				switch i % 4 {
				case 0:
					if _, err := c.VerifyCert(admin.CACert(), fx.certDER, admin.Strength()); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if err := c.VerifyProfileAnchored(fx.prof, fx.profRaw, admin.CACert(), admin.Public(), now); err != nil {
						t.Error(err)
						return
					}
				case 2:
					c.InvalidateEntity(fx.id)
				case 3:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 4 {
		t.Fatalf("capacity exceeded under concurrency: %d", c.Len())
	}
}

func TestIssueCertChainBatchMatchesSequential(t *testing.T) {
	s := suite.S128
	admin, err := NewAdmin(s, "batch-root")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := admin.NewSubordinate("batch-sub")
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	reqs := make([]CertRequest, n)
	for i := range reqs {
		key, err := suite.GenerateSigningKey(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		name := string(rune('a' + i))
		reqs[i] = CertRequest{ID: IDFromName(name), Name: name, Role: RoleObject, Pub: key.Public()}
	}
	chains, err := sub.IssueCertChainBatch(reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != n {
		t.Fatalf("got %d chains", len(chains))
	}
	// Every chain verifies against the root, binds the right identity, and
	// carries the serial reserved for its index (request order).
	for i, chain := range chains {
		info, err := VerifyCertChain(admin.CACert(), chain, s)
		if err != nil {
			t.Fatalf("chain %d: %v", i, err)
		}
		if info.ID != reqs[i].ID || info.Name != reqs[i].Name {
			t.Fatalf("chain %d bound to %q, want %q", i, info.Name, reqs[i].Name)
		}
	}
	// Sizes equal the sequential path's (fixed-size signatures), so virtual
	// airtime is identical regardless of worker count.
	seq, err := sub.IssueCertChain(IDFromName("z"), "z", RoleObject, reqs[0].Pub)
	if err != nil {
		t.Fatal(err)
	}
	for i, chain := range chains {
		if len(chain) != len(seq) {
			t.Fatalf("chain %d is %d bytes, sequential is %d", i, len(chain), len(seq))
		}
	}
}

func statsOf(c *VerifyCache) (hits, misses int64, entries int) { return c.Stats() }

// The miss-path singleflight must coalesce concurrent verifications of the
// same credential onto one leader while keeping miss accounting exact:
// every caller records its miss before joining a flight.

func TestVerifyCacheFlightJoinLeave(t *testing.T) {
	c := NewVerifyCache(8)
	key := [32]byte{1}
	fl, leader := c.joinFlight(key)
	if !leader {
		t.Fatal("first join is not leader")
	}
	fl2, leader2 := c.joinFlight(key)
	if leader2 || fl2 != fl {
		t.Fatal("second join did not attach to the in-flight leader")
	}
	sentinel := errors.New("flight failed")
	c.leaveFlight(key, fl, sentinel)
	<-fl2.done // closed: must not block
	if fl2.err != sentinel {
		t.Fatalf("waiter saw err %v, want the leader's error", fl2.err)
	}
	if _, leader3 := c.joinFlight(key); !leader3 {
		t.Fatal("leaveFlight did not clear the flight; next join should lead")
	}
}

func TestVerifyCacheFlightWaiterServedFromStore(t *testing.T) {
	admin := newVCAdmin(t)
	fx := newVCFixture(t, admin, "flight-lamp")
	c := NewVerifyCache(8)

	s := admin.Strength()
	var sb [2]byte
	sb[0], sb[1] = byte(int(s)>>8), byte(int(s))
	key := vcKey(vcKindCert, admin.CACert(), sb[:], fx.certDER)

	fl, leader := c.joinFlight(key)
	if !leader {
		t.Fatal("test did not get the leader slot")
	}
	type res struct {
		info *CertInfo
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		info, err := c.VerifyCert(admin.CACert(), fx.certDER, s)
		ch <- res{info, err}
	}()
	// The concurrent caller records its miss before joining the flight.
	transporttest.WaitUntil(t, 5*time.Second, func() bool {
		_, misses, _ := statsOf(c)
		return misses >= 1
	}, "concurrent caller to record its miss")
	// Leader-style completion: verify, store, release the waiters.
	info, err := VerifyCertChain(admin.CACert(), fx.certDER, s)
	if err != nil {
		t.Fatal(err)
	}
	c.store(&vcEntry{key: key, kind: vcKindCert, entity: info.ID, info: *info, notBefore: info.NotBefore, notAfter: info.NotAfter})
	c.leaveFlight(key, fl, nil)

	r := <-ch
	if r.err != nil || r.info == nil || r.info.ID != fx.id {
		t.Fatalf("waiter result: %+v err=%v", r.info, r.err)
	}
	if hits, misses, entries := statsOf(c); hits != 0 || misses != 1 || entries != 1 {
		t.Fatalf("hits=%d misses=%d entries=%d, want 0/1/1", hits, misses, entries)
	}
}

func TestVerifyCacheConcurrentMissAccounting(t *testing.T) {
	admin := newVCAdmin(t)
	fx := newVCFixture(t, admin, "swarm-lamp")
	c := NewVerifyCache(8)

	const g = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*g)
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := c.VerifyCert(admin.CACert(), fx.certDER, admin.Strength())
			if err == nil && info.ID != fx.id {
				err = errors.New("wrong identity from coalesced verify")
			}
			errs <- err
			errs <- c.VerifyProfileAnchored(fx.prof, fx.profRaw, admin.CACert(), admin.Public(), time.Now())
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Whatever the interleaving, every call was either a hit or a counted
	// miss, and both credentials live in the cache exactly once.
	if hits, misses, entries := statsOf(c); hits+misses != 2*g || entries != 2 {
		t.Fatalf("hits=%d misses=%d entries=%d", hits, misses, entries)
	}
}

// TestAnchorParsedOnce: the trust anchor is parsed (and its pool built) by the
// first verification that needs it and shared by every later one, across
// caches; other bytes replace it; a bad anchor is an error, never the memo.
func TestAnchorParsedOnce(t *testing.T) {
	admin := newVCAdmin(t)
	a, b := newVCFixture(t, admin, "lamp-a"), newVCFixture(t, admin, "lamp-b")
	root := admin.CACert()
	for _, fx := range []*vcFixture{a, b, a} {
		c := NewVerifyCache(1) // every lookup below misses
		info, err := c.VerifyCert(root, fx.certDER, admin.Strength())
		if err != nil {
			t.Fatal(err)
		}
		if info.NotAfter.IsZero() || !info.NotBefore.Before(info.NotAfter) {
			t.Fatalf("CertInfo carries no validity window: %v – %v", info.NotBefore, info.NotAfter)
		}
	}
	first, err := parseAnchor(root)
	if err != nil {
		t.Fatal(err)
	}
	if first != lastAnchor.Load() {
		t.Fatal("the misses above left no parsed anchor behind")
	}
	if again, _ := parseAnchor(append([]byte(nil), root...)); again != first {
		t.Fatal("anchor parsed again for the same bytes")
	}
	if _, err := NewVerifyCache(1).VerifyCert([]byte("not a certificate"), a.certDER, admin.Strength()); err == nil {
		t.Fatal("garbage anchor verified")
	}
	if lastAnchor.Load() != first {
		t.Fatal("a bad anchor displaced the memo")
	}
	other := newVCAdmin(t)
	if _, err := VerifyCertChain(other.CACert(), a.certDER, admin.Strength()); err == nil {
		t.Fatal("certificate verified under a foreign root")
	}
	if got := lastAnchor.Load(); got == first || !bytes.Equal(got.der, other.CACert()) {
		t.Fatal("a new root did not replace the memo")
	}
	if _, err := VerifyCertChain(root, a.certDER, admin.Strength()); err != nil {
		t.Fatalf("back under its own root: %v", err)
	}
}
