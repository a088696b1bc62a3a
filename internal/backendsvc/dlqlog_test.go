package backendsvc

import (
	"path/filepath"
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/enc"
	"argus/internal/netsim"
	"argus/internal/suite"
	"argus/internal/update"
	"argus/internal/wire"
)

// dlqCrashRig wires one backend, one offline-able lock object with a
// recording agent, and a journaled distributor over the simulator — the
// minimal gateway a DLQ crash test needs.
type dlqCrashRig struct {
	t       *testing.T
	b       *backend.Backend
	net     *netsim.Network
	hub     netsim.NodeID
	sid     cert.ID
	sid2    cert.ID // a second subject, for a second revocation
	oid     cert.ID
	ep      *netsim.SimEndpoint
	applied []uint64
	kinds   []update.Kind
}

func newDLQCrashRig(t *testing.T) *dlqCrashRig {
	t.Helper()
	r := &dlqCrashRig{t: t}
	var err error
	r.b, err = backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	r.sid, _, _ = r.b.RegisterSubject("alice", attr.MustSet("position=staff"))
	r.sid2, _, _ = r.b.RegisterSubject("bob", attr.MustSet("position=staff"))
	r.net = netsim.New(netsim.DefaultWiFi(), 17)
	r.hub = r.net.AddNode()

	r.oid, _, err = r.b.RegisterObject("lock", backend.L2, attr.MustSet("type=lock"), []string{"open"})
	if err != nil {
		t.Fatal(err)
	}
	prov, _ := r.b.ProvisionObject(r.oid)
	eng := core.NewObject(prov, wire.V30, core.Costs{})
	agent := update.NewAgent(r.b.AdminPublic(), nil, func(n *update.Notification) {
		r.applied = append(r.applied, n.Seq)
		r.kinds = append(r.kinds, n.Kind)
	})
	r.ep = r.net.NewEndpoint()
	eng.Bind(agent.Wrap(r.ep))
	r.net.Link(r.hub, r.ep.Node())
	return r
}

// distributor builds a fresh journaled distributor — "fresh" is the point:
// each call models one gateway process generation.
func (r *dlqCrashRig) distributor(jl *DLQLog, opts ...update.DistributorOption) *update.Distributor {
	dep := r.net.NewEndpoint()
	r.net.Link(r.hub, dep.Node())
	opts = append([]update.DistributorOption{update.WithDLQJournal(jl)}, opts...)
	d := update.NewDistributor(r.b.Admin(), dep, opts...)
	d.Register(r.oid, r.ep.Addr())
	return d
}

// TestDLQJournalCrashReattach is the gateway-durability regression: letters
// parked for an offline device survive a gateway crash (no Close, state
// rebuilt only from the journal file), the destination comes back offline,
// the sequence counter resumes past the restored backlog, and a reattach
// redelivers everything — old and new — in order, exactly once.
func TestDLQJournalCrashReattach(t *testing.T) {
	r := newDLQCrashRig(t)
	path := filepath.Join(t.TempDir(), "dlq.log")

	jl, parked, err := OpenDLQLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(parked) != 0 {
		t.Fatalf("fresh journal restored %d destinations", len(parked))
	}
	dist := r.distributor(jl)
	dist.MarkOffline(r.oid)
	if err := dist.RevokeSubject(r.sid, []cert.ID{r.oid}); err != nil {
		t.Fatal(err)
	}
	if err := dist.Reprovision([]cert.ID{r.oid}); err != nil {
		t.Fatal(err)
	}
	if err := dist.RevokeSubject(r.sid2, []cert.ID{r.oid}); err != nil {
		t.Fatal(err)
	}
	if got := dist.DLQDepth(); got != 3 {
		t.Fatalf("depth before crash = %d, want 3", got)
	}
	if err := jl.Err(); err != nil {
		t.Fatalf("journal append failed: %v", err)
	}

	// Crash: the distributor (and its in-memory DLQ) is gone. Only the
	// journal file remains — every append was fsynced before the push
	// returned, so no Close is needed for the letters to be on disk.
	jl.Close()

	jl2, parked2, err := OpenDLQLog(path)
	if err != nil {
		t.Fatal(err)
	}
	q := parked2[r.oid]
	if len(q) != 3 {
		t.Fatalf("restored %d letters, want 3", len(q))
	}
	wantKinds := []update.Kind{update.KindRevokeSubject, update.KindReprovision, update.KindRevokeSubject}
	for i, n := range q {
		if n.Seq != uint64(i+1) || n.Kind != wantKinds[i] {
			t.Fatalf("restored letter %d: seq %d kind %v", i, n.Seq, n.Kind)
		}
	}

	dist2 := r.distributor(jl2)
	if err := dist2.RestoreParked(parked2); err != nil {
		t.Fatal(err)
	}
	if got := dist2.DLQDepth(); got != 3 {
		t.Fatalf("depth after restore = %d, want 3", got)
	}
	// The destination is restored offline: a new push parks behind the
	// backlog instead of jumping the queue, and its sequence continues past
	// the restored letters (seq 4, not 1 — the agent's replay check would
	// otherwise reject it).
	if err := dist2.Reprovision([]cert.ID{r.oid}); err != nil {
		t.Fatal(err)
	}
	if got := dist2.DLQDepth(); got != 4 {
		t.Fatalf("depth after post-restart push = %d, want 4 (destination not offline?)", got)
	}

	if got := dist2.Reattach(r.oid, ""); got != 4 {
		t.Fatalf("reattach redelivered %d, want 4", got)
	}
	r.net.Run(0)
	if len(r.applied) != 4 {
		t.Fatalf("agent applied %d, want 4: %v", len(r.applied), r.applied)
	}
	for i, seq := range r.applied {
		if seq != uint64(i+1) {
			t.Fatalf("effectuation order broken: seqs %v", r.applied)
		}
	}
	allKinds := append(wantKinds, update.KindReprovision)
	for i, k := range r.kinds {
		if k != allKinds[i] {
			t.Fatalf("kind order = %v, want %v", r.kinds, allKinds)
		}
	}

	// Exactly once: nothing left to redeliver, nothing double-applied.
	if got := dist2.Reattach(r.oid, ""); got != 0 {
		t.Fatalf("second reattach redelivered %d, want 0", got)
	}
	r.net.Run(0)
	if len(r.applied) != 4 {
		t.Fatalf("double effectuation after second reattach: %v", r.applied)
	}

	// The drain was journaled too: a crash after reattach restores nothing.
	jl2.Close()
	jl3, parked3, err := OpenDLQLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl3.Close()
	if len(parked3) != 0 {
		t.Fatalf("journal not drained: %d destinations survive reattach", len(parked3))
	}
}

// TestDLQJournalRestoresPerPushSignedRevocations: a journal written while
// every revocation was signed per push, over magic ‖ kind ‖ Seq ‖ subject,
// still redelivers after this restore. RestoreParked re-attaches the admin's
// revocation signature, and the object applies every letter once, in order.
func TestDLQJournalRestoresPerPushSignedRevocations(t *testing.T) {
	r := newDLQCrashRig(t)
	path := filepath.Join(t.TempDir(), "dlq.log")

	oldLetter := func(kind update.Kind, seq uint64, subject cert.ID) []byte {
		w := enc.NewWriter(92)
		w.U8(0xA5) // envelope magic
		w.U8(byte(kind))
		w.U64(seq)
		w.Raw(subject[:])
		sig, err := r.b.Admin().Sign(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		w.Bytes16(sig)
		return w.Bytes()
	}
	wal, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range [][]byte{
		oldLetter(update.KindRevokeSubject, 1, r.sid),
		oldLetter(update.KindReprovision, 2, cert.ID{}),
		oldLetter(update.KindRevokeSubject, 3, r.sid2),
	} {
		if _, err := wal.Append(encodeDLQRecord(dlqOpPark, r.oid, l)); err != nil {
			t.Fatal(err)
		}
	}
	wal.Close()

	jl, parked, err := OpenDLQLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	q := parked[r.oid]
	if len(q) != 3 {
		t.Fatalf("restored %d letters, want 3", len(q))
	}
	if q[0].Verify(r.b.AdminPublic()) {
		t.Fatal("a per-push revocation signature verifies as a revocation statement")
	}
	dist := r.distributor(jl)
	if err := dist.RestoreParked(parked); err != nil {
		t.Fatal(err)
	}
	if got := dist.Reattach(r.oid, ""); got != 3 {
		t.Fatalf("reattach redelivered %d, want 3", got)
	}
	r.net.Run(0)
	wantKinds := []update.Kind{update.KindRevokeSubject, update.KindReprovision, update.KindRevokeSubject}
	if len(r.applied) != 3 {
		t.Fatalf("agent applied %d, want 3: %v", len(r.applied), r.applied)
	}
	for i, seq := range r.applied {
		if seq != uint64(i+1) || r.kinds[i] != wantKinds[i] {
			t.Fatalf("applied seqs %v kinds %v, want [1 2 3] %v", r.applied, r.kinds, wantKinds)
		}
	}
	if got := dist.Reattach(r.oid, ""); got != 0 {
		t.Fatalf("second reattach redelivered %d, want 0", got)
	}
	r.net.Run(0)
	if len(r.applied) != 3 {
		t.Fatalf("double effectuation after second reattach: %v", r.applied)
	}
}

// TestDLQJournalEvictionSurvivesCrash: the capacity bound's evictions are
// journaled, so a restore holds exactly the retained (newest) letters.
func TestDLQJournalEvictionSurvivesCrash(t *testing.T) {
	r := newDLQCrashRig(t)
	path := filepath.Join(t.TempDir(), "dlq.log")
	jl, _, err := OpenDLQLog(path)
	if err != nil {
		t.Fatal(err)
	}
	dist := r.distributor(jl, update.WithDLQCapacity(2))
	dist.MarkOffline(r.oid)
	for i := 0; i < 3; i++ {
		if err := dist.Reprovision([]cert.ID{r.oid}); err != nil {
			t.Fatal(err)
		}
	}
	if got := dist.DLQDepth(); got != 2 {
		t.Fatalf("depth = %d, want cap 2", got)
	}
	jl.Close()

	jl2, parked, err := OpenDLQLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	q := parked[r.oid]
	if len(q) != 2 || q[0].Seq != 2 || q[1].Seq != 3 {
		seqs := []uint64{}
		for _, n := range q {
			seqs = append(seqs, n.Seq)
		}
		t.Fatalf("restored seqs %v, want [2 3] (newest retained)", seqs)
	}
}
