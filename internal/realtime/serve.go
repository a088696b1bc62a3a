package realtime

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"argus/internal/obs"
)

// Plane is one process's obs plane: a registry and tracer its engines report
// into, a hub streaming both at /events, and — unless headless — an HTTP
// listener serving the obs mux (/metrics, /trace.json, /events, /debug/...).
type Plane struct {
	Registry *obs.Registry
	Tracer   *obs.Tracer
	Hub      *Hub
	// Addr is the bound listen address (":0" resolved), "" when headless.
	Addr string

	srv *http.Server
}

// Serve brings the plane up on addr. An empty addr is a headless plane:
// nothing listens, but the registry, tracer and hub exist, so a caller can
// still flush a final snapshot. Announcing Addr is the caller's business —
// the daemons print it on stdout, the harness on stderr.
func Serve(addr string) (*Plane, error) {
	p := &Plane{Registry: obs.NewRegistry(), Tracer: obs.NewTracer()}
	p.Hub = New(Config{Registry: p.Registry, Tracer: p.Tracer})
	if addr == "" {
		return p, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		p.Hub.Close()
		return nil, fmt.Errorf("obs listen: %w", err)
	}
	p.Addr = ln.Addr().String()
	p.srv = &http.Server{Handler: obs.NewMux(p.Registry, p.Tracer, obs.WithStream(p.Hub.StreamHandler()))}
	go p.srv.Serve(ln)
	return p, nil
}

// Close closes the hub first — every subscriber stream drains its queued
// frames (whatever the caller published last is already in them) and ends —
// then shuts the listener down, escalating to a hard close if a client never
// disconnects. Safe on nil.
func (p *Plane) Close() {
	if p == nil {
		return
	}
	p.Hub.Close()
	if p.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if p.srv.Shutdown(ctx) != nil {
		p.srv.Close()
	}
}
