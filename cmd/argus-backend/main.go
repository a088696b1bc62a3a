// Command argus-backend hosts the enterprise backend as a long-running
// service: a multi-tenant store behind the versioned /v1 HTTP API
// (internal/backendsvc). Each tenant is one enterprise — its own trust
// anchor, policy set and secret groups — durably persisted through a
// write-ahead log with snapshot compaction, so a crash mid-churn replays to
// the exact pre-crash state on restart.
//
// Usage:
//
//	argus-backend -listen 127.0.0.1:8420 -data ./argus-data -init-demo
//
// The daemon prints one "listening addr=<host:port>" line once the API is
// up. -init-demo provisions the same demo enterprise argus-node -init
// writes to a snapshot file — subject alice, one object per visibility
// level, the kiosk's covert service — inside a tenant named "demo", and
// prints the tenant's auth key ("tenant name=demo auth-key=<key>") so
// argus-node processes can source their credentials over HTTP:
//
//	argus-node -role object -names kiosk -backend http://127.0.0.1:8420 \
//	    -tenant demo -auth-key <key>
//
// Tenant administration (POST /v1/tenants) is guarded by -admin-key; when
// empty a random key is generated and printed. /metrics serves the obs
// registry (request counts and latency by route, WAL appends/replays,
// compactions, tenant gauge). SIGTERM/SIGINT shuts down gracefully: the
// listener drains, every tenant compacts its WAL into a fresh snapshot, and
// the process exits 0.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/backendsvc"
	"argus/internal/obs"
	"argus/internal/suite"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "HTTP listen address (\":0\" picks a port)")
		data     = flag.String("data", "argus-data", "state directory (per-tenant WAL and snapshot files)")
		adminKey = flag.String("admin-key", "", "key guarding tenant administration (empty generates one and prints it)")
		initDemo = flag.Bool("init-demo", false, "ensure the demo tenant exists and print its auth key")
		duration = flag.Duration("duration", 0, "serve this long then exit (0 = until SIGTERM)")
	)
	flag.Parse()
	if err := run(*listen, *data, *adminKey, *initDemo, *duration); err != nil {
		fmt.Fprintf(os.Stderr, "argus-backend: %v\n", err)
		os.Exit(1)
	}
}

func run(listen, data, adminKey string, initDemo bool, duration time.Duration) error {
	reg := obs.NewRegistry()
	store, err := backendsvc.OpenStore(data, reg)
	if err != nil {
		return err
	}
	if adminKey == "" {
		raw := make([]byte, 24)
		if _, err := rand.Read(raw); err != nil {
			return err
		}
		adminKey = hex.EncodeToString(raw)
		fmt.Printf("admin-key %s\n", adminKey)
	}
	if initDemo {
		key, err := ensureDemoTenant(store)
		if err != nil {
			return err
		}
		fmt.Printf("tenant name=demo auth-key=%s\n", key)
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", backendsvc.NewServer(store, adminKey, reg).Handler())
	mux.Handle("/metrics", obs.Handler(reg))
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Printf("listening addr=%s\n", ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	if duration > 0 {
		select {
		case <-stop:
		case <-time.After(duration):
		}
	} else {
		<-stop
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		store.Close()
		return err
	}
	// Close compacts every tenant: restart replays from fresh snapshots.
	return store.Close()
}

// ensureDemoTenant creates (or reuses) the "demo" tenant holding the same
// enterprise argus-node -init writes to a snapshot file, so the quickstart
// and the smoke test work against either state source.
func ensureDemoTenant(store *backendsvc.Store) (authKey string, err error) {
	if tn, err := store.Tenant("demo"); err == nil {
		return tn.AuthKey(), nil // already provisioned on a previous run
	} else if !errors.Is(err, backendsvc.ErrNoTenant) {
		return "", err
	}
	tn, err := store.Create("demo", suite.S128)
	if err != nil {
		return "", err
	}
	ctx := context.Background()
	var svc backend.Service = tn
	if _, _, err := svc.AddPolicy(ctx, attr.MustParse("position=='staff'"),
		attr.MustParse("type=='printer'"), []string{"print"}); err != nil {
		return "", err
	}
	sid, _, err := svc.RegisterSubject(ctx, "alice", attr.MustSet("position=staff"))
	if err != nil {
		return "", err
	}
	if _, _, err := svc.RegisterObject(ctx, "thermometer", backend.L1,
		attr.MustSet("type=thermometer"), []string{"read-temperature"}); err != nil {
		return "", err
	}
	if _, _, err := svc.RegisterObject(ctx, "printer", backend.L2,
		attr.MustSet("type=printer"), []string{"print"}); err != nil {
		return "", err
	}
	kid, _, err := svc.RegisterObject(ctx, "kiosk", backend.L3,
		attr.MustSet("type=kiosk"), []string{"use"})
	if err != nil {
		return "", err
	}
	gid, err := svc.CreateGroup(ctx, "fellows")
	if err != nil {
		return "", err
	}
	if err := svc.AddCovertService(ctx, kid, gid, []string{"use", "covert-bulletin"}); err != nil {
		return "", err
	}
	if err := svc.AddSubjectToGroup(ctx, sid, gid); err != nil {
		return "", err
	}
	return tn.AuthKey(), nil
}
