package netsim

import "testing"

// BenchmarkBroadcastStar measures one simulated broadcast round over a
// 20-leaf star (the Fig 6e topology) — pure simulator overhead, no crypto.
func BenchmarkBroadcastStar(b *testing.B) {
	payload := make([]byte, 200)
	for i := 0; i < b.N; i++ {
		nw, hub, leaves := star(20, DefaultWiFi())
		count := 0
		for _, l := range leaves {
			onDeliver(l, func(NodeID, []byte) { count++ })
		}
		hub.Broadcast(payload, 1)
		nw.Run(0)
		if count != 20 {
			b.Fatalf("delivered %d", count)
		}
	}
}
