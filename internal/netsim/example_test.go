package netsim_test

import (
	"fmt"
	"time"

	"argus/internal/netsim"
	"argus/internal/transport"
)

// Example builds a two-room topology with a relay between them and sends a
// message across; the virtual clock advances by the modeled radio costs.
func Example() {
	model := netsim.LinkModel{
		PerMessage:     2 * time.Millisecond,
		BytesPerSecond: 100_000,
	} // no jitter: deterministic timing
	net := netsim.New(model, 1)

	phone := net.NewEndpoint()
	relay := net.AddNode() // passive: forwards, never answers
	lock := net.NewEndpoint()
	lock.Bind(transport.HandlerFunc(func(from transport.Addr, payload []byte) {
		fmt.Printf("lock got %d bytes from node %s at %v\n", len(payload), from, net.Now())
	}))
	net.Link(phone.Node(), relay)
	net.Link(relay, lock.Node())

	phone.Send(lock.Addr(), make([]byte, 100))
	net.Run(0)
	fmt.Println("hops:", net.HopDistance(phone.Node(), lock.Node()))
	// Output:
	// lock got 100 bytes from node 0 at 6ms
	// hops: 2
}
