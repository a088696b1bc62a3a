package adversary

import (
	"fmt"
	"sync"
	"time"

	"argus/internal/obs"
	"argus/internal/slo"
	"argus/internal/transport"
	"argus/internal/wire"
)

// Capture is a per-object wiretap that reassembles honest discovery
// transcripts: QUE1 (inbound, carrying R_S), the RES1 the object sent back,
// and the subject's QUE2. Install it with WrapTap on the target object's
// endpoint during honest waves; the replayer re-injects the captured frames
// later from its own address.
type Capture struct {
	mu       sync.Mutex
	sessions map[string]*capturedSession // by R_S
	byPeer   map[transport.Addr]string   // last R_S seen from each peer
}

type capturedSession struct {
	que1, res1, que2 []byte
}

func (s *capturedSession) complete() bool {
	return s.que1 != nil && s.res1 != nil && s.que2 != nil
}

// NewCapture returns an empty transcript recorder.
func NewCapture() *Capture {
	return &Capture{
		sessions: make(map[string]*capturedSession),
		byPeer:   make(map[transport.Addr]string),
	}
}

// captureCap bounds retained transcripts per object; one complete session is
// enough for the replayer, a few guard against half-captured stragglers.
const captureCap = 8

// Inbound implements Tap.
func (c *Capture) Inbound(peer transport.Addr, payload []byte, at time.Duration) {
	msg, err := wire.Decode(payload)
	if err != nil {
		return
	}
	switch m := msg.(type) {
	case *wire.QUE1:
		c.mu.Lock()
		rs := string(m.RS)
		sess := c.sessions[rs]
		if sess == nil {
			if len(c.sessions) >= captureCap {
				c.mu.Unlock()
				return
			}
			sess = &capturedSession{}
			c.sessions[rs] = sess
		}
		if sess.que1 == nil {
			sess.que1 = append([]byte(nil), payload...)
		}
		c.byPeer[peer] = rs
		c.mu.Unlock()
	case *wire.QUE2:
		c.mu.Lock()
		if sess := c.sessions[string(m.RS)]; sess != nil && sess.que2 == nil {
			sess.que2 = append([]byte(nil), payload...)
		}
		c.mu.Unlock()
	}
}

// Outbound implements Tap. RES1 carries no R_S, so it is attributed to the
// peer's most recent QUE1 — exact on the object's serialized event loop.
func (c *Capture) Outbound(peer transport.Addr, payload []byte, at time.Duration) {
	msg, err := wire.Decode(payload)
	if err != nil {
		return
	}
	if m, ok := msg.(*wire.RES1); !ok || m.Mode != wire.ModeSecure {
		return
	}
	c.mu.Lock()
	if rs, ok := c.byPeer[peer]; ok {
		if sess := c.sessions[rs]; sess != nil && sess.res1 == nil {
			sess.res1 = append([]byte(nil), payload...)
		}
	}
	c.mu.Unlock()
}

// transcript returns one complete captured session, or nil.
func (c *Capture) transcript() *capturedSession {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sessions {
		if s.complete() {
			return s
		}
	}
	return nil
}

// Complete reports whether at least one full QUE1/RES1/QUE2 transcript was
// captured.
func (c *Capture) Complete() bool { return c.transcript() != nil }

// ReplayTarget names one object to attack: its transport address and the
// transcripts captured at it.
type ReplayTarget struct {
	Object  transport.Addr
	Capture *Capture
}

// ExecuteReplay runs the transcript-replay persona from ep against targets,
// all concurrently. ep must be an unbound endpoint on the targets' segment;
// ExecuteReplay binds it. Per target the sequence is:
//
//  1. the captured QUE2 (no session for our address yet) → orphan;
//  2. the captured QUE1 → the object opens a session and answers a fresh
//     RES1 (new R_O, new KEXM_O);
//  3. two concurrent duplicates of the same QUE1 → the cached RES1 must be
//     resent byte-identically, twice;
//  4. the captured QUE2 again → a session now exists, but the signature
//     binds the honest transcript's RES1, so verification must reject it
//     (a short QUE2's ticket is not the replayer's to present: refused).
//
// The returned stats count what was injected; the caller asserts the
// object-side counters moved by exactly these amounts.
func ExecuteReplay(ep transport.Endpoint, targets []ReplayTarget, timeout time.Duration, reg *obs.Registry) (slo.ReplayStats, error) {
	injQue1 := reg.Counter(obs.MAdversaryInjected,
		"Frames injected by adversarial personas.",
		obs.L("persona", PersonaReplay), obs.L("msg", "que1"))
	injQue2 := reg.Counter(obs.MAdversaryInjected,
		"Frames injected by adversarial personas.",
		obs.L("persona", PersonaReplay), obs.L("msg", "que2"))

	rec := newRecorder()
	ep.Bind(rec)

	var (
		mu    sync.Mutex
		stats = slo.ReplayStats{Targets: len(targets)}
		errs  []error
		wg    sync.WaitGroup
	)
	for _, tgt := range targets {
		sess := tgt.Capture.transcript()
		if sess == nil {
			stats.Skipped++
			continue
		}
		wg.Add(1)
		go func(obj transport.Addr, sess *capturedSession) {
			defer wg.Done()
			fail := func(err error) {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}

			// 1. Orphan replay: QUE2 with no session for our address.
			ep.Do(func() { ep.Send(obj, sess.que2) })
			injQue2.Inc()
			mu.Lock()
			stats.OrphanQue2++
			mu.Unlock()

			// 2. Replay the captured QUE1; await the fresh RES1.
			ep.Do(func() { ep.Send(obj, sess.que1) })
			injQue1.Inc()
			mu.Lock()
			stats.Que1++
			mu.Unlock()
			frames := rec.awaitFrom(obj, 1, timeout)
			if len(frames) < 1 {
				fail(fmt.Errorf("replay: no RES1 from %s within %v", obj, timeout))
				return
			}
			first := frames[0]

			// 3. Two concurrent duplicates: the cached answer must come back
			// byte-identical, twice.
			ep.Do(func() { ep.Send(obj, sess.que1) })
			ep.Do(func() { ep.Send(obj, sess.que1) })
			injQue1.Add(2)
			mu.Lock()
			stats.DupQue1 += 2
			mu.Unlock()
			frames = rec.awaitFrom(obj, 3, timeout)
			if len(frames) < 3 {
				mu.Lock()
				stats.IdempotencyViolations += int64(3 - len(frames))
				mu.Unlock()
				fail(fmt.Errorf("replay: %d/3 RES1 frames from %s within %v", len(frames), obj, timeout))
				return
			}
			for _, f := range frames[1:3] {
				if string(f) != string(first) {
					mu.Lock()
					stats.IdempotencyViolations++
					mu.Unlock()
				}
			}

			// 4. Stale QUE2 against the session we just opened: its signature
			// covers the honest RES1, not the fresh one — must be rejected.
			ep.Do(func() { ep.Send(obj, sess.que2) })
			injQue2.Inc()
			mu.Lock()
			stats.StaleQue2++
			mu.Unlock()
		}(tgt.Object, sess)
	}
	wg.Wait()
	if len(errs) > 0 {
		return stats, errs[0]
	}
	return stats, nil
}
