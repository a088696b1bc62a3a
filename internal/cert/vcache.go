package cert

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"argus/internal/obs"
	"argus/internal/suite"
)

// VerifyCache memoizes admin-signed credential verifications — the CERT
// chain check of VerifyCertChain and the PROF signature check of
// Profile.VerifyAnchored. In the Level 2/3 handshake those four ECDSA
// verifications are repeated on every QUE2/RES1 exchange with the same peer,
// so at the paper's §VIII scales (up to 10³ subjects/objects per category)
// redundant signature verification dominates the handshake cost. Memoizing
// them turns the steady-state warm-peer handshake from 4 credential
// verifications to 0; only the per-session signatures over fresh nonces
// (SIG_O on RES1, SIG_S on QUE2) remain.
//
// Design:
//
//   - Keying. Entries are keyed by SHA-256 over (kind, trust anchor,
//     verifying key, credential bytes). A credential re-issued with any
//     change — rotated key, new serial, new attributes — has different bytes
//     and therefore can never be served a stale result; likewise a different
//     anchor (hierarchy reconfiguration) never aliases.
//   - Positive-only. Only successful verifications are cached. A failing
//     credential always takes the real verification path, so an attacker
//     cannot poison the cache and no failure mode needs invalidating.
//   - Validity windows. Each entry stores the joint validity window of
//     everything it verified (certificate chain NotBefore/NotAfter, profile
//     Issued/Expires). A hit outside the window is evicted and re-verified,
//     so caching never extends a credential's life.
//   - Bounded. At most capacity entries, evicted LRU, so a crowd of
//     ephemeral peers cannot exhaust device memory.
//   - Invalidation. InvalidateEntity drops every entry bound to one
//     registered identity (the hook Object.Revoke and engine Refresh use);
//     Flush drops everything (anchor rotation).
//
// All methods are safe for concurrent use, and safe on a nil *VerifyCache:
// a nil cache performs the real verification, so engine code calls through
// it unconditionally.
type VerifyCache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recently used; values are *vcEntry
	byKey    map[[32]byte]*list.Element
	byEntity map[ID]map[[32]byte]struct{}

	hitsN, missesN atomic.Int64

	// sf coalesces concurrent miss-path verifications of the same key onto a
	// single leader (per-key singleflight). With batched delivery the mesh
	// hands a worker a burst of identical QUE2s from one peer; without
	// coalescing each one pays the full ECDSA chain verification before the
	// first finishes and populates the cache. Counters are untouched by the
	// flight machinery: every caller records its miss before joining, so
	// miss accounting stays exact under coalescing.
	sfMu sync.Mutex
	sf   map[[32]byte]*vcFlight

	// tel holds the exposition handles (nil until Instrument): a hit/miss
	// counter pair per credential kind. Swapped atomically so Instrument is
	// safe against in-flight lookups.
	tel atomic.Pointer[vcTelemetry]
}

// vcFlight is one in-flight miss verification. Waiters block on done; err is
// the leader's result, published before done closes.
type vcFlight struct {
	done chan struct{}
	err  error
}

// joinFlight registers the caller on key's flight, reporting whether it is
// the leader (true: caller must verify and call leaveFlight) or a waiter
// (false: caller blocks on the returned flight's done channel).
func (c *VerifyCache) joinFlight(key [32]byte) (*vcFlight, bool) {
	c.sfMu.Lock()
	defer c.sfMu.Unlock()
	if fl, ok := c.sf[key]; ok {
		return fl, false
	}
	if c.sf == nil {
		c.sf = make(map[[32]byte]*vcFlight)
	}
	fl := &vcFlight{done: make(chan struct{})}
	c.sf[key] = fl
	return fl, true
}

// leaveFlight publishes the leader's result and releases the waiters. Called
// after store, so a waiter's re-lookup observes the fresh entry.
func (c *VerifyCache) leaveFlight(key [32]byte, fl *vcFlight, err error) {
	fl.err = err
	c.sfMu.Lock()
	delete(c.sf, key)
	c.sfMu.Unlock()
	close(fl.done)
}

type vcTelemetry struct {
	certHits, certMisses, profHits, profMisses *obs.Counter
}

// vcTelemetryKey names the cache block in its registry's memo.
type vcTelemetryKey struct{}

// DefaultVerifyCacheCapacity bounds a cache created with capacity <= 0:
// roomy enough for a full §VIII category (10³ peers, two credentials each)
// on the subject side while staying a few hundred KiB of index state.
const DefaultVerifyCacheCapacity = 2048

// Cache-key domain separators.
const (
	vcKindCert byte = 1
	vcKindProf byte = 2
)

type vcEntry struct {
	key    [32]byte
	kind   byte
	entity ID
	// info is the verified chain content (kind == vcKindCert only).
	info CertInfo
	// prof is the verified profile as decoded (kind == vcKindProf only).
	prof *Profile
	// notBefore/notAfter bound the interval the memoized result is valid in.
	notBefore, notAfter time.Time
}

// NewVerifyCache creates a cache bounded to capacity entries
// (DefaultVerifyCacheCapacity if capacity <= 0).
func NewVerifyCache(capacity int) *VerifyCache {
	if capacity <= 0 {
		capacity = DefaultVerifyCacheCapacity
	}
	return &VerifyCache{
		capacity: capacity,
		lru:      list.New(),
		byKey:    make(map[[32]byte]*list.Element),
		byEntity: make(map[ID]map[[32]byte]struct{}),
	}
}

// Instrument attaches hit/miss counters to the registry (nil detaches). Like
// all telemetry, counters never affect cache behavior. The handles are
// resolved once per registry: every cache instrumented on reg shares one
// read-only block.
func (c *VerifyCache) Instrument(reg *obs.Registry) {
	if c == nil {
		return
	}
	if reg == nil {
		c.tel.Store(nil)
		return
	}
	c.tel.Store(obs.Shared(reg, vcTelemetryKey{}, func() *vcTelemetry {
		h := func(kind, result string) *obs.Counter {
			return reg.Counter(obs.MVerifyCacheEvents,
				"Credential verification cache lookups, by credential kind and result.",
				obs.L("kind", kind), obs.L("result", result))
		}
		return &vcTelemetry{
			certHits: h("cert", "hit"), certMisses: h("cert", "miss"),
			profHits: h("prof", "hit"), profMisses: h("prof", "miss"),
		}
	}))
}

// Stats returns the lifetime hit/miss totals and the current entry count.
func (c *VerifyCache) Stats() (hits, misses int64, entries int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitsN.Load(), c.missesN.Load(), c.lru.Len()
}

// Len returns the current number of entries.
func (c *VerifyCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Flush drops every entry (e.g. after a trust-anchor rotation).
func (c *VerifyCache) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.byKey = make(map[[32]byte]*list.Element)
	c.byEntity = make(map[ID]map[[32]byte]struct{})
}

// InvalidateEntity drops every cached verification bound to the given
// registered identity — certificates and profiles alike — and returns how
// many entries were removed. Called when an entity is revoked or its
// credentials are known to have rotated: the next handshake re-verifies from
// scratch.
func (c *VerifyCache) InvalidateEntity(id ID) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byEntity[id]
	n := len(keys)
	for k := range keys {
		if el, ok := c.byKey[k]; ok {
			c.lru.Remove(el)
			delete(c.byKey, k)
		}
	}
	delete(c.byEntity, id)
	return n
}

// VerifyCert is the memoizing equivalent of VerifyCertChain. On a nil cache
// it performs the real verification.
func (c *VerifyCache) VerifyCert(rootDER, certDER []byte, s suite.Strength) (*CertInfo, error) {
	if c == nil {
		return VerifyCertChain(rootDER, certDER, s)
	}
	var sb [2]byte
	sb[0], sb[1] = byte(int(s)>>8), byte(int(s))
	key := vcKey(vcKindCert, rootDER, sb[:], certDER)
	if e := c.lookup(key, time.Now()); e != nil {
		c.hit(vcKindCert)
		info := e.info
		return &info, nil
	}
	c.miss(vcKindCert)
	fl, leader := c.joinFlight(key)
	if !leader {
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		// The leader stored a fresh entry; serve it at this caller's own
		// verification time, exactly like a hit. If it is already gone
		// (evicted under pressure, or the window closed in between), fall
		// back to the real verification — rare, and never less strict.
		if e := c.lookup(key, time.Now()); e != nil {
			info := e.info
			return &info, nil
		}
		return VerifyCertChain(rootDER, certDER, s)
	}
	info, err := VerifyCertChain(rootDER, certDER, s)
	if err == nil {
		c.store(&vcEntry{key: key, kind: vcKindCert, entity: info.ID, info: *info, notBefore: info.NotBefore, notAfter: info.NotAfter})
	}
	c.leaveFlight(key, fl, err)
	if err != nil {
		return nil, err
	}
	return info, nil
}

// VerifyProfileAnchored is the memoizing equivalent of
// Profile.VerifyAnchored. p must be the profile decoded from raw (the wire
// bytes, which key the cache); now is the verification time, checked against
// the cached validity window on every hit exactly as the real path checks
// it. On a nil cache it performs the real verification.
func (c *VerifyCache) VerifyProfileAnchored(p *Profile, raw, anchorDER []byte, rootPub suite.PublicKey, now time.Time) error {
	if c == nil {
		return p.VerifyAnchored(anchorDER, rootPub, now)
	}
	key := profKey(anchorDER, rootPub, raw)
	if e := c.lookup(key, now); e != nil {
		c.hit(vcKindProf)
		return nil
	}
	return c.verifyProfileMiss(key, p, anchorDER, rootPub, now)
}

// DecodeProfile is DecodeProfile followed by VerifyProfileAnchored, with the
// decoding memoized beside the verification: a hit returns the profile its
// entry was stored with — the same bytes, parsed once. An engine that meets
// the same peer a thousand times then holds its service information once, not
// a thousand times over. The profile is shared: callers must not modify it.
func (c *VerifyCache) DecodeProfile(raw, anchorDER []byte, rootPub suite.PublicKey, now time.Time) (*Profile, error) {
	if c != nil {
		key := profKey(anchorDER, rootPub, raw)
		if e := c.lookup(key, now); e != nil {
			c.hit(vcKindProf)
			return e.prof, nil
		}
		p, err := DecodeProfile(raw)
		if err != nil {
			return nil, err
		}
		return p, c.verifyProfileMiss(key, p, anchorDER, rootPub, now)
	}
	p, err := DecodeProfile(raw)
	if err != nil {
		return nil, err
	}
	return p, p.VerifyAnchored(anchorDER, rootPub, now)
}

// verifyProfileMiss verifies p, which no entry vouches for, and stores one.
func (c *VerifyCache) verifyProfileMiss(key [32]byte, p *Profile, anchorDER []byte, rootPub suite.PublicKey, now time.Time) error {
	c.miss(vcKindProf)
	fl, leader := c.joinFlight(key)
	if !leader {
		<-fl.done
		if fl.err != nil {
			return fl.err
		}
		if e := c.lookup(key, now); e != nil {
			return nil
		}
		return p.VerifyAnchored(anchorDER, rootPub, now)
	}
	if err := p.VerifyAnchored(anchorDER, rootPub, now); err != nil {
		c.leaveFlight(key, fl, err)
		return err
	}
	// The memoized result holds while the profile AND its signer chain (if
	// any) remain valid.
	nb, na := p.Window()
	c.store(&vcEntry{key: key, kind: vcKindProf, entity: p.Entity, prof: p, notBefore: nb, notAfter: na})
	c.leaveFlight(key, fl, nil)
	return nil
}

// lookup returns the live entry for key, promoting it to most-recent; an
// entry whose validity window excludes now is evicted and nil is returned.
func (c *VerifyCache) lookup(key [32]byte, now time.Time) *vcEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil
	}
	e := el.Value.(*vcEntry)
	if now.Before(e.notBefore) || now.After(e.notAfter) {
		c.removeLocked(el, e)
		return nil
	}
	c.lru.MoveToFront(el)
	return e
}

// store inserts an entry, evicting the least-recently-used one at capacity.
// A concurrent verification of the same credential may have stored the key
// already; the existing entry wins (results are identical by construction).
func (c *VerifyCache) store(e *vcEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byKey[e.key]; dup {
		return
	}
	for c.lru.Len() >= c.capacity {
		back := c.lru.Back()
		c.removeLocked(back, back.Value.(*vcEntry))
	}
	el := c.lru.PushFront(e)
	c.byKey[e.key] = el
	keys := c.byEntity[e.entity]
	if keys == nil {
		keys = make(map[[32]byte]struct{})
		c.byEntity[e.entity] = keys
	}
	keys[e.key] = struct{}{}
}

func (c *VerifyCache) removeLocked(el *list.Element, e *vcEntry) {
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	if keys := c.byEntity[e.entity]; keys != nil {
		delete(keys, e.key)
		if len(keys) == 0 {
			delete(c.byEntity, e.entity)
		}
	}
}

func (c *VerifyCache) hit(kind byte) {
	c.hitsN.Add(1)
	if t := c.tel.Load(); t != nil {
		if kind == vcKindCert {
			t.certHits.Inc()
		} else {
			t.profHits.Inc()
		}
	}
}

func (c *VerifyCache) miss(kind byte) {
	c.missesN.Add(1)
	if t := c.tel.Load(); t != nil {
		if kind == vcKindCert {
			t.certMisses.Inc()
		} else {
			t.profMisses.Inc()
		}
	}
}

// vcKey hashes length-prefixed parts under a kind domain separator, so no
// two distinct (anchor, key, credential) triples can collide by
// concatenation ambiguity. The parts are framed in pooled scratch and hashed
// in one call, so that a lookup allocates nothing.
func vcKey(kind byte, parts ...[]byte) [32]byte {
	bp := vcKeyScratch.Get().(*[]byte)
	b := append((*bp)[:0], 'v', 'c', kind)
	for _, p := range parts {
		b = binary.BigEndian.AppendUint64(b, uint64(len(p)))
		b = append(b, p...)
	}
	key := sha256.Sum256(b)
	*bp = b
	vcKeyScratch.Put(bp)
	return key
}

// vcKeyScratch holds vcKey's framing buffers.
var vcKeyScratch = sync.Pool{New: func() any { return new([]byte) }}

// profKey is the key of a PROF credential under an anchor and the admin key
// that signed it.
func profKey(anchorDER []byte, rootPub suite.PublicKey, raw []byte) [32]byte {
	var pb [2 * 66]byte // a P-521 point, the largest encoding
	return vcKey(vcKindProf, anchorDER, rootPub.AppendBytes(pb[:0]), raw)
}
