package transport

import (
	"net"
	"testing"
	"time"
)

// listenLoopback binds a UDPEndpoint on a loopback port the OS picks.
func listenLoopback(t *testing.T, peers ...string) *UDPEndpoint {
	t.Helper()
	ep, err := ListenUDP(UDPConfig{Listen: "127.0.0.1:0", Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

// TestUDPBroadcastAllocatesNothing: Broadcast walks the peer snapshot AddPeer
// published, so a broadcast allocates nothing of its own — the datagram
// writes it makes allocate nothing either. The peers are plain sockets nobody
// reads: a read loop's allocations would be counted too.
func TestUDPBroadcastAllocatesNothing(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	ep := listenLoopback(t, sink.LocalAddr().String())
	if err := ep.AddPeer(sink.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if n := len(*ep.peers.Load()); n != 2 {
		t.Fatalf("%d peers after AddPeer, want 2", n)
	}
	payload := []byte("QUE1")
	if n := testing.AllocsPerRun(200, func() { ep.Broadcast(payload, 1) }); n != 0 {
		t.Fatalf("Broadcast to two peers allocates %v times, want 0", n)
	}
}

// TestUDPDestinationsBounded: a node answers frames from 10 000 distinct
// source ports, one socket at a time — a flood from spoofed ports — and
// neither its table of source Addrs nor its table of resolved destinations
// ever holds more than maxDestinations. Each frame arrives from the Addr its
// socket prints. The configured peer stays reachable, by Broadcast and by
// Send.
func TestUDPDestinationsBounded(t *testing.T) {
	const flood = 10_000
	peer := listenLoopback(t)
	heard := make(chan []byte, 4)
	peer.Bind(handlerFunc(func(_ Addr, p []byte) { heard <- p }))

	ep := listenLoopback(t, string(peer.Addr()))
	answered := make(chan Addr, 1)
	ep.Bind(handlerFunc(func(from Addr, p []byte) {
		ep.Send(from, p) // what an engine does: answer the sender
		answered <- from
	}))
	to := ep.conn.LocalAddr().(*net.UDPAddr)

	ports := make(map[int]bool, flood)
	for len(ports) < flood {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		port := c.LocalAddr().(*net.UDPAddr).Port
		if ports[port] {
			c.Close() // the OS handed out a port already used: not a new source
			continue
		}
		ports[port] = true
		if _, err := c.WriteToUDP([]byte{1}, to); err != nil {
			t.Fatal(err)
		}
		select {
		case from := <-answered:
			if want := Addr(c.LocalAddr().String()); from != want {
				t.Fatalf("frame %d arrived from %q, sent from %q", len(ports), from, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d was not answered", len(ports))
		}
		c.Close()
		ep.mu.Lock()
		nf, nd := len(ep.from), len(ep.dst)
		ep.mu.Unlock()
		if nf > maxDestinations || nd > maxDestinations {
			t.Fatalf("after %d sources the source table holds %d and the destination table %d, cap %d", len(ports), nf, nd, maxDestinations)
		}
	}

	for name, send := range map[string]func(){
		"Broadcast": func() { ep.Broadcast([]byte("broadcast"), 1) },
		"Send":      func() { ep.Send(peer.Addr(), []byte("send")) },
	} {
		send()
		select {
		case <-heard:
		case <-time.After(10 * time.Second):
			t.Fatalf("the configured peer did not hear %s after the flood", name)
		}
	}
}
