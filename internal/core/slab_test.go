package core

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"argus/internal/transport"
)

// frameSet is a set of frames by their first byte: the windows on a chunk an
// engine still holds.
type frameSet map[*byte]bool

func (fs frameSet) add(frames ...[]byte) {
	for _, f := range frames {
		if len(f) > 0 {
			fs[unsafe.SliceData(f)] = true
		}
	}
}

// onLoop runs fn on ep's event loop and waits for it.
func onLoop(ep transport.Endpoint, fn func()) {
	done := make(chan struct{})
	ep.Do(func() { fn(); close(done) })
	<-done
}

// heldFrames returns the frames the engines of p still hold, read on their
// loops, by the slab they were carved from: the subject's ("subject": its QUE1
// and its sessions' QUE2s), the objects' ("object": their cached answers and
// their sessions' RES1s), and on UDP the read loops' ("read loop": the
// inbound frames the engines keep windows on, a session's RES1 at the subject
// and its QUE1 at the object).
func (p *meshPair) heldFrames() map[string]frameSet {
	held := map[string]frameSet{"subject": {}, "object": {}, "read loop": {}}
	s := p.subj
	onLoop(s.ep, func() {
		held["subject"].add(s.que1Enc)
		for _, sess := range s.sessions {
			held["subject"].add(sess.que2Enc)
			held["read loop"].add(sess.ro, sess.res1)
		}
	})
	for _, o := range p.objs {
		onLoop(o.ep, func() {
			for _, a := range o.answers {
				held["object"].add(a.enc)
			}
			for _, sess := range o.sessions {
				held["object"].add(sess.res1Enc, sess.owed)
				held["read loop"].add(sess.que1Enc, sess.rs)
			}
		})
	}
	return held
}

// chunkOwner names the slab a chunk taken by fn, the caller of Slab.Take,
// belongs to.
func chunkOwner(fn string) string {
	switch {
	case strings.Contains(fn, "core.(*Subject)"), strings.Contains(fn, "core.(*subjSession)"):
		return "subject"
	case strings.Contains(fn, "core.(*Object)"), strings.Contains(fn, "core.(*objSession)"):
		return "object"
	case strings.HasSuffix(fn, "(*UDPEndpoint).readLoop"):
		return "read loop"
	}
	return ""
}

// liveChunks counts the slab chunks live at the last GC that the memory
// profile saw allocated, by the slab that took them (chunkOwner). It counts
// what was allocated while runtime.MemProfileRate was 1.
func liveChunks() map[string]int64 {
	n, _ := runtime.MemProfile(nil, false)
	var recs []runtime.MemProfileRecord
	for ok := false; !ok; {
		recs = make([]runtime.MemProfileRecord, n+50)
		n, ok = runtime.MemProfile(recs, false)
	}
	live := map[string]int64{}
	for _, r := range recs[:n] {
		if r.AllocObjects == 0 || r.AllocBytes/r.AllocObjects != transport.SlabChunk {
			continue
		}
		var fns []string
		for frames := runtime.CallersFrames(r.Stack()); ; {
			f, more := frames.Next()
			fns = append(fns, f.Function)
			if !more {
				break
			}
		}
		for i := 0; i+1 < len(fns); i++ {
			if strings.HasSuffix(fns[i], "transport.(*Slab).Take") {
				if who := chunkOwner(fns[i+1]); who != "" {
					live[who] += r.InUseObjects()
				}
				break
			}
		}
	}
	return live
}

// TestEngineSlabRetention holds the slabs to their promise that a chunk is
// garbage once no frame on it is referenced: after 10 000 resumed sessions
// and a GC, each engine holds at most its current chunk plus one chunk per
// frame it still holds — its resend cache's answers, above all. Over UDP each
// read loop holds at most its current chunk plus one per inbound frame the
// engines keep a window on. A slab that kept its old chunks, or an engine
// that kept its old frames, holds hundreds.
func TestEngineSlabRetention(t *testing.T) {
	const sessions = 10_000
	for _, pn := range pairNets {
		t.Run(pn.prefix+"resumed", func(t *testing.T) {
			rate := runtime.MemProfileRate
			runtime.MemProfileRate = 1
			defer func() { runtime.MemProfileRate = rate }()
			// Engines of earlier tests may still be reachable here (a pending
			// wheel timer holds its engine until it fires) and die before
			// after is read: that can only lower what is counted live.
			runtime.GC()
			runtime.GC()
			before := liveChunks()

			p := newMeshPair(t, pn, L2, L3)
			for i := 0; i < sessions/p.n; i++ {
				p.round()
			}
			held := p.heldFrames()
			for i := 0; i < 3; i++ {
				runtime.GC() // the profile may be two cycles old
			}
			after := liveChunks()

			slabs := map[string]int{"subject": 1, "object": len(p.objs)}
			if pn.prefix == "udp-" {
				slabs["read loop"] = 1 + len(p.objs)
			}
			for who, n := range slabs {
				bound := n + len(held[who])
				live := after[who] - before[who]
				t.Logf("%s: %d chunks live, at most %d", who, live, bound)
				if live > int64(bound) {
					t.Errorf("%s slabs hold %d chunks after %d sessions, at most %d", who, live, sessions, bound)
				}
			}
			if after["subject"] == 0 || after["object"] == 0 {
				t.Fatal("the memory profile saw no engine chunk live")
			}
		})
	}
}
