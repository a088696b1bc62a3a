package realtime

import (
	"context"
	"testing"
	"time"
)

// TestServeCloseDrains: a plane brought up by Serve answers at its bound
// address, and Close is close-and-drain end to end — a frame published just
// before it still reaches an attached tail, whose stream then ends cleanly.
func TestServeCloseDrains(t *testing.T) {
	p, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr == "" || p.Registry == nil || p.Tracer == nil || p.Hub == nil {
		t.Fatalf("Serve returned an incomplete plane: %+v", p)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	attached := make(chan struct{})
	tailed := make(chan error, 1)
	sawReport := false
	go func() {
		tailed <- Tail(ctx, "http://"+p.Addr+"/events", func(ev Event) error {
			switch ev.Type {
			case EventHello:
				close(attached)
			case "report":
				sawReport = true
			}
			return nil
		})
	}()
	select {
	case <-attached:
	case err := <-tailed:
		t.Fatalf("tail ended before attaching: %v", err)
	}
	if err := p.Hub.PublishData("report", map[string]bool{"final": true}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := <-tailed; err != nil {
		t.Fatalf("tail across Close: %v", err)
	}
	if !sawReport {
		t.Fatal("the frame published before Close never reached the tail")
	}
}

// TestServeHeadless: an empty address listens nowhere but still yields a
// working registry, tracer and hub; Close (also on nil) is safe.
func TestServeHeadless(t *testing.T) {
	p, err := Serve("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr != "" {
		t.Fatalf("headless plane bound %q", p.Addr)
	}
	p.Registry.Counter("argus_t_total", "t").Inc()
	p.Hub.PublishSnapshot()
	p.Close()
	(*Plane)(nil).Close()

	if _, err := Serve("127.0.0.1:99999"); err == nil {
		t.Fatal("Serve on an invalid port returned no error")
	}
}
