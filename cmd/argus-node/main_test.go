package main

// End-to-end: real OS processes, real UDP sockets, the full 4-way handshake
// at every visibility level. The test re-executes its own binary as
// argus-node (the ARGUS_NODE_CHILD trampoline below), so `go test` needs no
// pre-built artifact: one child serves three objects (L1/L2/L3) on loopback
// sockets, another runs the subject until it has verified all three levels.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/backendsvc"
	"argus/internal/obs"
	"argus/internal/suite"
)

func TestMain(m *testing.M) {
	if os.Getenv("ARGUS_NODE_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// child builds an exec.Cmd that re-runs this test binary as argus-node.
func child(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ARGUS_NODE_CHILD=1")
	return cmd
}

func TestE2EDiscoveryOverUDPLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	snap := filepath.Join(t.TempDir(), "enterprise.snap")

	// 1. Provision the enterprise through the CLI path.
	out, err := child("-init", "-snapshot", snap).CombinedOutput()
	if err != nil {
		t.Fatalf("-init failed: %v\n%s", err, out)
	}

	// 2. Object daemon: three engines (one per level) on their own sockets.
	objects := child("-role", "object", "-names", "thermometer,printer,kiosk",
		"-snapshot", snap, "-listen", "127.0.0.1:0")
	objOut, err := objects.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	objects.Stderr = os.Stderr
	if err := objects.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		objects.Process.Kill()
		objects.Wait()
	})

	// Parse the three "listening name=... addr=..." lines.
	addrs := make(map[string]string)
	sc := bufio.NewScanner(objOut)
	for len(addrs) < 3 && sc.Scan() {
		line := sc.Text()
		var name, addr string
		if _, err := fmt.Sscanf(line, "listening name=%s addr=%s", &name, &addr); err == nil {
			addrs[name] = addr
		}
	}
	if len(addrs) != 3 {
		t.Fatalf("object daemon announced %d sockets, want 3 (scan err %v)", len(addrs), sc.Err())
	}
	go io.Copy(io.Discard, objOut) // keep the pipe drained

	// 3. Subject process: must verify every level within the deadline.
	peers := []string{addrs["thermometer"], addrs["printer"], addrs["kiosk"]}
	subject := child("-role", "subject", "-name", "alice", "-snapshot", snap,
		"-listen", "127.0.0.1:0", "-peers", strings.Join(peers, ","),
		"-ttl", "1", "-expect", "thermometer=L1,printer=L2,kiosk=L3",
		"-timeout", "30s")
	start := time.Now()
	sout, err := subject.CombinedOutput()
	if err != nil {
		t.Fatalf("subject failed after %v: %v\n%s", time.Since(start), err, sout)
	}
	text := string(sout)
	for _, want := range []string{
		"discovered name=thermometer level=L1",
		"discovered name=printer level=L2",
		"discovered name=kiosk level=L3",
		"all expectations met",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("subject output missing %q:\n%s", want, text)
		}
	}
}

// TestE2EDiscoveryFromBackendHTTP runs the same three-level discovery, but
// the node processes source their trust anchor and provisioning bundles from
// a live backend service over the versioned /v1 HTTP API instead of a
// snapshot file — no enterprise state ever touches the node side's disk.
func TestE2EDiscoveryFromBackendHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	// The backend service: a real HTTP listener on loopback, multi-tenant
	// store in a scratch directory, demo enterprise in tenant "demo".
	store, err := backendsvc.OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := store.Create("demo", suite.S128, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var svc backend.Service = tn
	sid, _, err := svc.RegisterSubject(ctx, "alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.AddPolicy(ctx, attr.MustParse("position=='staff'"),
		attr.MustParse("type=='printer'"), []string{"print"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterObject(ctx, "thermometer", backend.L1,
		attr.MustSet("type=thermometer"), []string{"read-temperature"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterObject(ctx, "printer", backend.L2,
		attr.MustSet("type=printer"), []string{"print"}); err != nil {
		t.Fatal(err)
	}
	kid, _, err := svc.RegisterObject(ctx, "kiosk", backend.L3,
		attr.MustSet("type=kiosk"), []string{"use"})
	if err != nil {
		t.Fatal(err)
	}
	gid, err := svc.CreateGroup(ctx, "fellows")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddCovertService(ctx, kid, gid, []string{"use", "covert-bulletin"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddSubjectToGroup(ctx, sid, gid); err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(backendsvc.NewServer(store, "root", nil).Handler())
	t.Cleanup(api.Close)
	backendFlags := []string{"-backend", api.URL, "-tenant", "demo", "-auth-key", tn.AuthKey()}

	objects := child(append([]string{"-role", "object", "-names", "thermometer,printer,kiosk",
		"-listen", "127.0.0.1:0"}, backendFlags...)...)
	objOut, err := objects.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	objects.Stderr = os.Stderr
	if err := objects.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		objects.Process.Kill()
		objects.Wait()
	})
	addrs := make(map[string]string)
	sc := bufio.NewScanner(objOut)
	for len(addrs) < 3 && sc.Scan() {
		var name, addr string
		if _, err := fmt.Sscanf(sc.Text(), "listening name=%s addr=%s", &name, &addr); err == nil {
			addrs[name] = addr
		}
	}
	if len(addrs) != 3 {
		t.Fatalf("object daemon announced %d sockets, want 3 (scan err %v)", len(addrs), sc.Err())
	}
	go io.Copy(io.Discard, objOut)

	peers := []string{addrs["thermometer"], addrs["printer"], addrs["kiosk"]}
	subject := child(append([]string{"-role", "subject", "-name", "alice",
		"-listen", "127.0.0.1:0", "-peers", strings.Join(peers, ","),
		"-ttl", "1", "-expect", "thermometer=L1,printer=L2,kiosk=L3",
		"-timeout", "30s"}, backendFlags...)...)
	sout, err := subject.CombinedOutput()
	if err != nil {
		t.Fatalf("subject failed: %v\n%s", err, sout)
	}
	for _, want := range []string{
		"discovered name=thermometer level=L1",
		"discovered name=printer level=L2",
		"discovered name=kiosk level=L3",
		"all expectations met",
	} {
		if !strings.Contains(string(sout), want) {
			t.Errorf("subject output missing %q:\n%s", want, sout)
		}
	}
}

// sumMetric totals one family across label sets in an unmarshaled snapshot.
func sumMetric(snap *obs.Snapshot, name string) float64 {
	var total float64
	for i := range snap.Metrics {
		if snap.Metrics[i].Name == name {
			total += snap.Metrics[i].Value
		}
	}
	return total
}

// TestGracefulShutdownFlushesObs: an object daemon serving the obs plane
// answers /metrics, and on SIGTERM exits 0 with the final registry snapshot
// flushed to -obs-out.
func TestGracefulShutdownFlushesObs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "enterprise.snap")
	if out, err := child("-init", "-snapshot", snap).CombinedOutput(); err != nil {
		t.Fatalf("-init failed: %v\n%s", err, out)
	}
	obsOut := filepath.Join(dir, "final.obs.json")
	objects := child("-role", "object", "-names", "thermometer",
		"-snapshot", snap, "-listen", "127.0.0.1:0",
		"-obs", "127.0.0.1:0", "-obs-out", obsOut)
	stdout, err := objects.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	objects.Stderr = os.Stderr
	if err := objects.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		objects.Process.Kill()
		objects.Wait()
	})

	var obsAddr string
	listening := false
	sc := bufio.NewScanner(stdout)
	for (obsAddr == "" || !listening) && sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "obs listening addr=") {
			obsAddr = strings.TrimPrefix(line, "obs listening addr=")
		}
		if strings.HasPrefix(line, "listening name=") {
			listening = true
		}
	}
	if obsAddr == "" || !listening {
		t.Fatalf("daemon never announced obs+engine (scan err %v)", sc.Err())
	}

	resp, err := http.Get("http://" + obsAddr + "/metrics")
	if err != nil {
		t.Fatalf("live /metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}

	go io.Copy(io.Discard, stdout)
	if err := objects.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := objects.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v (want graceful 0)", err)
	}
	blob, err := os.ReadFile(obsOut)
	if err != nil {
		t.Fatalf("final snapshot not written: %v", err)
	}
	var final obs.Snapshot
	if err := json.Unmarshal(blob, &final); err != nil {
		t.Fatalf("final snapshot not valid JSON: %v", err)
	}
}

// TestGatewayDLQDrainOnSIGTERM: the gateway role parks pushes to an offline
// target, and graceful shutdown reattaches it, redelivers the backlog, and
// flushes a snapshot whose DLQ depth gauge reads zero.
func TestGatewayDLQDrainOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "enterprise.snap")
	if out, err := child("-init", "-snapshot", snap).CombinedOutput(); err != nil {
		t.Fatalf("-init failed: %v\n%s", err, out)
	}

	objects := child("-role", "object", "-names", "printer,kiosk",
		"-snapshot", snap, "-listen", "127.0.0.1:0")
	objOut, err := objects.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	objects.Stderr = os.Stderr
	if err := objects.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		objects.Process.Kill()
		objects.Wait()
	})
	addrs := make(map[string]string)
	osc := bufio.NewScanner(objOut)
	for len(addrs) < 2 && osc.Scan() {
		var name, addr string
		if _, err := fmt.Sscanf(osc.Text(), "listening name=%s addr=%s", &name, &addr); err == nil {
			addrs[name] = addr
		}
	}
	if len(addrs) != 2 {
		t.Fatalf("object daemon announced %d sockets, want 2 (scan err %v)", len(addrs), osc.Err())
	}
	go io.Copy(io.Discard, objOut)

	gwOut := filepath.Join(dir, "gateway.obs.json")
	gw := child("-role", "gateway", "-snapshot", snap,
		"-targets", "printer="+addrs["printer"]+",kiosk="+addrs["kiosk"],
		"-reprovision-every", "50ms", "-offline", "printer",
		"-obs-out", gwOut)
	gwPipe, err := gw.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	gw.Stderr = os.Stderr
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		gw.Process.Kill()
		gw.Wait()
	})

	// Let a few pushes park for the offline target before shutting down.
	pushes := 0
	sc := bufio.NewScanner(gwPipe)
	for pushes < 3 && sc.Scan() {
		if strings.HasPrefix(sc.Text(), "pushed kind=reprovision") {
			pushes++
		}
	}
	if pushes < 3 {
		t.Fatalf("gateway pushed %d times (scan err %v)", pushes, sc.Err())
	}
	if err := gw.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var tail strings.Builder
	for sc.Scan() {
		tail.WriteString(sc.Text() + "\n")
	}
	if err := gw.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v (want graceful drain)\n%s", err, tail.String())
	}
	text := tail.String()
	if !strings.Contains(text, "reattached name=printer") {
		t.Fatalf("shutdown never reattached the offline target:\n%s", text)
	}
	if !strings.Contains(text, "drained depth=0") {
		t.Fatalf("shutdown never drained the DLQ:\n%s", text)
	}

	blob, err := os.ReadFile(gwOut)
	if err != nil {
		t.Fatalf("final snapshot not written: %v", err)
	}
	var final obs.Snapshot
	if err := json.Unmarshal(blob, &final); err != nil {
		t.Fatalf("final snapshot not valid JSON: %v", err)
	}
	if v := sumMetric(&final, obs.MUpdateDLQDepth); v != 0 {
		t.Fatalf("final DLQ depth = %v, want 0", v)
	}
	if v := sumMetric(&final, obs.MUpdateUndeliverable); v < 3 {
		t.Fatalf("undeliverable = %v, want >= 3 parked pushes", v)
	}
	if v := sumMetric(&final, obs.MUpdateRedelivered); v < 3 {
		t.Fatalf("redelivered = %v, want >= 3", v)
	}
}

// TestShardRoleIsAUsageError: the daemon hosts subject, object and gateway
// only — the load harness's shard is `argus-load shard`, and asking the node
// for it is the unknown-role usage error, not a fleet.
func TestShardRoleIsAUsageError(t *testing.T) {
	out, err := child("-role", "shard").CombinedOutput()
	if err == nil {
		t.Fatalf("-role shard exited 0:\n%s", out)
	}
	if want := `need -init or -role subject|object|gateway (got "shard")`; !strings.Contains(string(out), want) {
		t.Fatalf("-role shard printed %q, want the usage error %q", out, want)
	}
}
