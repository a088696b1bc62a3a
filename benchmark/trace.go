package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"

	"argus/internal/transport"
)

// Spans are recorded from the benchmark's own wrappers, around the calls into
// the layers, kept in memory and written out once the run has ended:
//
//	round           due → complete, id = cell/subject address#round
//	transport.wait  enqueue at the sender's wrapper → handler entry at the
//	                receiver's wrapper (the mailbox), child of the round
//	core.handle     handler entry → exit, tagged with message type and the
//	                receiver's role, child of the round
//
// core.handle's self time cannot be split from outside the program; the split
// into suite, cert and wire comes from the budget (micro.go).

// frameRec is one delivered frame: a transport.wait span (when the sender
// stamped it) and a core.handle span.
type frameRec struct {
	sent, enter, exit int64 // ns on the tap clock; sent 0 = not stamped
	round             uint32
	cell              uint16
	subj              uint16 // mesh address number of the round's subject
	msg, role         uint8
}

// roundRec is one completed or failed round.
type roundRec struct {
	due, end int64
	round    uint32
	cell     uint16
	subj     uint16
	ok       bool
}

const traceShards = 64

// traceLog is sharded by cell so that recording does not serialize the
// engines' event loops on one lock.
type traceLog struct {
	shards [traceShards]struct {
		mu     sync.Mutex
		frames []frameRec
		rounds []roundRec
	}
}

func meshNumber(a transport.Addr) uint16 {
	var n uint16
	fmt.Sscanf(string(a), "mem-%d", &n)
	return n
}

// frame attributes a delivered frame to the round of the subject it belongs
// to: the receiver for RES1/RES2, the sender otherwise.
func (l *traceLog) frame(e *benchEndpoint, from transport.Addr, msg int, sent, enter, exit int64) {
	s := e.self
	if s == nil || msg == msgQUE1 || msg == msgQUE2 {
		s = e.cell.subjectAt(from)
	}
	rec := frameRec{sent: sent, enter: enter, exit: exit, cell: uint16(e.cell.idx), msg: uint8(msg), role: uint8(e.role)}
	if s != nil {
		rec.subj, rec.round = s.addrN, uint32(s.roundN.Load())
	}
	sh := &l.shards[e.cell.idx%traceShards]
	sh.mu.Lock()
	sh.frames = append(sh.frames, rec)
	sh.mu.Unlock()
}

func (l *traceLog) round(s *slot, round int, due, end int64, ok bool) {
	sh := &l.shards[s.cell.idx%traceShards]
	sh.mu.Lock()
	sh.rounds = append(sh.rounds, roundRec{due: due, end: end, round: uint32(round), cell: uint16(s.cell.idx), subj: s.addrN, ok: ok})
	sh.mu.Unlock()
}

// collect merges the shards; call once the fleet has stopped.
func (l *traceLog) collect() (frames []frameRec, rounds []roundRec) {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		frames = append(frames, sh.frames...)
		rounds = append(rounds, sh.rounds...)
		sh.mu.Unlock()
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i].enter < frames[j].enter })
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].due < rounds[j].due })
	return frames, rounds
}

// maxSpansWritten caps the span file (each frame is up to two spans); the
// aggregates in the result are always computed from every span.
const maxSpansWritten = 400000

func spanID(cell, subj uint16, round uint32) string {
	return fmt.Sprintf("c%d/mem-%d#%d", cell, subj, round)
}

// writeSpans writes the spans as one JSON document, oldest first.
func writeSpans(path, workload string, frames []frameRec, rounds []roundRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	total := len(rounds) + 2*len(frames)
	fmt.Fprintf(w, "{\"workload\":%q,\"clock\":\"ns since set-up ended\",\"spans_total\":%d,\"truncated\":%t,\"spans\":[\n",
		workload, total, total > maxSpansWritten)
	n := 0
	sep := func() {
		if n > 0 {
			w.WriteString(",\n")
		}
		n++
	}
	for _, r := range rounds {
		if n >= maxSpansWritten {
			break
		}
		sep()
		fmt.Fprintf(w, `{"name":"round","id":%q,"start":%d,"end":%d,"ok":%t}`,
			spanID(r.cell, r.subj, r.round), r.due, r.end, r.ok)
	}
	for _, fr := range frames {
		if n >= maxSpansWritten {
			break
		}
		parent := spanID(fr.cell, fr.subj, fr.round)
		if fr.sent != 0 {
			sep()
			fmt.Fprintf(w, `{"name":"transport.wait","parent":%q,"msg":%q,"to":%q,"start":%d,"end":%d}`,
				parent, msgNames[fr.msg], roleNames[fr.role], fr.sent, fr.enter)
		}
		sep()
		fmt.Fprintf(w, `{"name":"core.handle","parent":%q,"msg":%q,"role":%q,"start":%d,"end":%d}`,
			parent, msgNames[fr.msg], roleNames[fr.role], fr.enter, fr.exit)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
