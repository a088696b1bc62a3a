package netsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// countDeliveries installs a handler on ep that appends every payload.
func countDeliveries(ep *SimEndpoint, got *[][]byte) {
	onDeliver(ep, func(_ NodeID, p []byte) {
		*got = append(*got, append([]byte(nil), p...))
	})
}

func TestUnicastLossCounted(t *testing.T) {
	nw, hub, leaves := star(1, DefaultWiFi())
	nw.SetFaults(FaultModel{Loss: 1})
	var got [][]byte
	countDeliveries(leaves[0], &got)
	hub.Send(leaves[0].Addr(), []byte("x"))
	nw.Run(0)
	if len(got) != 0 {
		t.Fatalf("delivered %d frames under total loss", len(got))
	}
	st := nw.Stats()
	if st.FaultLost != 1 {
		t.Fatalf("FaultLost = %d, want 1", st.FaultLost)
	}
	if st.Transmissions != 1 {
		t.Fatalf("Transmissions = %d: a lost frame still occupies the medium", st.Transmissions)
	}
}

func TestCorruptionDeliversAlteredBytes(t *testing.T) {
	nw, hub, leaves := star(1, DefaultWiFi())
	nw.SetFaults(FaultModel{Corrupt: 1})
	orig := []byte("some payload bytes")
	var got [][]byte
	countDeliveries(leaves[0], &got)
	hub.Send(leaves[0].Addr(), orig)
	nw.Run(0)
	if len(got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(got))
	}
	if bytes.Equal(got[0], orig) {
		t.Fatal("payload delivered unaltered despite Corrupt: 1")
	}
	if len(got[0]) != len(orig) {
		t.Fatalf("corruption changed length %d → %d; it must only flip bytes", len(orig), len(got[0]))
	}
	if string(orig) != "some payload bytes" {
		t.Fatal("corruption mutated the sender's buffer (must copy)")
	}
	if nw.Stats().FaultCorrupted != 1 {
		t.Fatalf("FaultCorrupted = %d, want 1", nw.Stats().FaultCorrupted)
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	nw, hub, leaves := star(1, DefaultWiFi())
	nw.SetFaults(FaultModel{Duplicate: 1})
	var got [][]byte
	countDeliveries(leaves[0], &got)
	hub.Send(leaves[0].Addr(), []byte("x"))
	nw.Run(0)
	if len(got) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(got))
	}
	if nw.Stats().FaultDuplicated != 1 {
		t.Fatalf("FaultDuplicated = %d, want 1", nw.Stats().FaultDuplicated)
	}
}

func TestReorderJitterDelaysDelivery(t *testing.T) {
	// With jitter the two frames to different leaves can swap arrival order;
	// at minimum the arrival time differs from the no-fault run.
	base := func(jitter time.Duration) time.Duration {
		nw, hub, leaves := star(1, DefaultWiFi())
		nw.SetFaults(FaultModel{ReorderJitter: jitter})
		var at time.Duration
		onDeliver(leaves[0], func(_ NodeID, _ []byte) { at = nw.Now() })
		hub.Send(leaves[0].Addr(), []byte("x"))
		nw.Run(0)
		return at
	}
	if base(0) >= base(500*time.Millisecond) {
		t.Fatal("ReorderJitter did not delay delivery")
	}
}

func TestCrashWindowDropsAndRecovers(t *testing.T) {
	nw, hub, leaves := star(1, DefaultWiFi())
	var got [][]byte
	countDeliveries(leaves[0], &got)
	nw.ScheduleCrash(leaves[0].Node(), 0, 1*time.Second)
	hub.Send(leaves[0].Addr(), []byte("during"))
	hub.NewTimer(func() { hub.Send(leaves[0].Addr(), []byte("after")) }).Reset(2 * time.Second)
	nw.Run(0)
	if len(got) != 1 || string(got[0]) != "after" {
		t.Fatalf("deliveries = %q, want only the post-recovery frame", got)
	}
	if nw.Stats().CrashDrops != 1 {
		t.Fatalf("CrashDrops = %d, want 1", nw.Stats().CrashDrops)
	}
}

func TestCrashedSourceCannotTransmit(t *testing.T) {
	nw, hub, leaves := star(1, DefaultWiFi())
	var got [][]byte
	countDeliveries(leaves[0], &got)
	nw.Crash(hub.Node(), time.Second)
	hub.Send(leaves[0].Addr(), []byte("x"))
	hub.Broadcast([]byte("y"), 1)
	nw.Run(0)
	if len(got) != 0 {
		t.Fatalf("a downed node transmitted %d frames", len(got))
	}
	if nw.Stats().CrashDrops != 2 {
		t.Fatalf("CrashDrops = %d, want 2", nw.Stats().CrashDrops)
	}
}

func TestSnoopHearsFramesToDownedReceiver(t *testing.T) {
	nw, hub, leaves := star(1, DefaultWiFi())
	snooped := 0
	nw.Snoop(func(_, _ NodeID, _ []byte) { snooped++ })
	nw.Crash(leaves[0].Node(), time.Second)
	hub.Send(leaves[0].Addr(), []byte("x"))
	nw.Run(0)
	if snooped != 1 {
		t.Fatalf("snoop saw %d frames, want 1: the radio still carried it", snooped)
	}
}

func TestPerLinkFaultOverride(t *testing.T) {
	nw, hub, leaves := star(2, DefaultWiFi())
	nw.SetLinkFaults(hub.Node(), leaves[0].Node(), FaultModel{Loss: 1})
	var got0, got1 [][]byte
	countDeliveries(leaves[0], &got0)
	countDeliveries(leaves[1], &got1)
	hub.Send(leaves[0].Addr(), []byte("a"))
	hub.Send(leaves[1].Addr(), []byte("b"))
	nw.Run(0)
	if len(got0) != 0 {
		t.Fatal("loss override on hub→leaf0 did not drop")
	}
	if len(got1) != 1 {
		t.Fatal("unrelated link affected by a per-link override")
	}
}

func TestDropFilterTargetedLoss(t *testing.T) {
	nw, hub, leaves := star(1, DefaultWiFi())
	nw.SetDropFilter(func(_, _ NodeID, p []byte) bool { return bytes.Equal(p, []byte("drop-me")) })
	var got [][]byte
	countDeliveries(leaves[0], &got)
	hub.Send(leaves[0].Addr(), []byte("drop-me"))
	hub.Send(leaves[0].Addr(), []byte("keep-me"))
	nw.Run(0)
	if len(got) != 1 || string(got[0]) != "keep-me" {
		t.Fatalf("deliveries = %q, want only keep-me", got)
	}
	if nw.Stats().FaultLost != 1 {
		t.Fatalf("FaultLost = %d, want 1 (filter drops count as losses)", nw.Stats().FaultLost)
	}
}

func TestBroadcastLossIsPerReceiver(t *testing.T) {
	// With 50% loss over many leaves, some receivers must get the frame and
	// some must lose it — per-receiver independence, not all-or-nothing.
	nw, hub, leaves := star(40, DefaultWiFi())
	nw.SetFaults(FaultModel{Loss: 0.5})
	delivered := 0
	for _, lf := range leaves {
		onDeliver(lf, func(_ NodeID, _ []byte) { delivered++ })
	}
	hub.Broadcast([]byte("x"), 1)
	nw.Run(0)
	if delivered == 0 || delivered == len(leaves) {
		t.Fatalf("delivered = %d of %d: loss must be independent per receiver", delivered, len(leaves))
	}
	if delivered+nw.Stats().FaultLost != len(leaves) {
		t.Fatalf("delivered(%d) + lost(%d) != receivers(%d)", delivered, nw.Stats().FaultLost, len(leaves))
	}
}

// TestFaultScheduleDeterministic replays the same seed twice and requires the
// identical delivery trace, and a different fault seed to produce a different
// one (while leaving airtime jitter untouched).
func TestFaultScheduleDeterministic(t *testing.T) {
	trace := func(faultSeed int64) string {
		nw, hub, leaves := star(8, DefaultWiFi())
		nw.FaultSeed(faultSeed)
		nw.SetFaults(FaultModel{Loss: 0.3, Corrupt: 0.2, Duplicate: 0.2, ReorderJitter: 20 * time.Millisecond})
		var log bytes.Buffer
		for _, lf := range leaves {
			id := lf.Node()
			onDeliver(lf, func(_ NodeID, p []byte) {
				fmt.Fprintf(&log, "%d@%v:%x\n", id, nw.Now(), p)
			})
		}
		for i := 0; i < 5; i++ {
			hub.Broadcast([]byte{byte(i), 0xaa, 0xbb}, 1)
			hub.Send(leaves[i].Addr(), []byte{0xcc, byte(i)})
		}
		nw.Run(0)
		return log.String()
	}
	a, b := trace(42), trace(42)
	if a != b {
		t.Fatal("identical fault seeds produced different delivery traces")
	}
	if a == trace(43) {
		t.Fatal("different fault seeds produced identical traces (fault RNG unused?)")
	}
}

// TestNoFaultsMatchesSeedBehavior pins the zero-fault fast path: a network
// with a FaultModel attached but all-zero must behave byte-identically to one
// with no fault layer touched at all (no fault RNG draws, same event order).
func TestNoFaultsMatchesSeedBehavior(t *testing.T) {
	run := func(attach bool) string {
		nw, hub, leaves := star(6, DefaultWiFi())
		if attach {
			nw.SetFaults(FaultModel{})
			nw.SetLinkFaults(hub.Node(), leaves[0].Node(), FaultModel{})
		}
		var log bytes.Buffer
		for _, lf := range leaves {
			id := lf.Node()
			onDeliver(lf, func(_ NodeID, p []byte) {
				fmt.Fprintf(&log, "%d@%v:%x\n", id, nw.Now(), p)
			})
		}
		hub.Broadcast([]byte("query"), 2)
		for i, lf := range leaves {
			hub.Send(lf.Addr(), []byte{byte(i)})
		}
		nw.Run(0)
		return log.String()
	}
	if run(false) != run(true) {
		t.Fatal("attaching a zero FaultModel changed the event sequence")
	}
}
