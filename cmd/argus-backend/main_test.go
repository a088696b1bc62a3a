package main

// End-to-end durability: a real argus-backend process serving /v1 over TCP,
// churned through internal/backendclient, killed without warning (SIGKILL —
// no compaction, no graceful drain), restarted on the same -data directory.
// The replayed state must fingerprint byte-identically and keep serving.
// The test re-executes its own binary as the daemon (ARGUS_BACKEND_CHILD).

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/backendclient"
	"argus/internal/suite"
)

func TestMain(m *testing.M) {
	if os.Getenv("ARGUS_BACKEND_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func child(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ARGUS_BACKEND_CHILD=1")
	return cmd
}

// startDaemon launches the daemon and scans stdout until the API address
// (and, when -init-demo is among args, the demo auth key) is announced.
func startDaemon(t *testing.T, args ...string) (cmd *exec.Cmd, addr, demoKey string) {
	t.Helper()
	cmd = child(args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	wantDemo := false
	for _, a := range args {
		if a == "-init-demo" {
			wantDemo = true
		}
	}
	sc := bufio.NewScanner(stdout)
	for (addr == "" || (wantDemo && demoKey == "")) && sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "listening addr=") {
			addr = strings.TrimPrefix(line, "listening addr=")
		}
		if strings.HasPrefix(line, "tenant name=demo auth-key=") {
			demoKey = strings.TrimPrefix(line, "tenant name=demo auth-key=")
		}
	}
	if addr == "" {
		t.Fatalf("daemon never announced its address (scan err %v)", sc.Err())
	}
	go io.Copy(io.Discard, stdout)
	return cmd, addr, demoKey
}

func TestE2ECrashMidChurnReplaysFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	ctx := context.Background()

	daemon, addr, demoKey := startDaemon(t,
		"-listen", "127.0.0.1:0", "-data", dir, "-admin-key", "root", "-init-demo")
	base := "http://" + addr

	// Tenant administration and churn happen over the versioned API only.
	admin := backendclient.NewAdmin(base, "root")
	acmeKey, err := admin.CreateTenant(ctx, "acme", suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	acme := backendclient.New(base, "acme", acmeKey)
	var svc backend.Service = acme
	ids := []string{}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("sensor-%d", i)
		if _, _, err := svc.RegisterObject(ctx, name, backend.L2,
			attr.MustSet("type=sensor"), []string{"read"}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, name)
	}
	sid, _, err := svc.RegisterSubject(ctx, "carol", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.AddPolicy(ctx, attr.MustParse("position=='staff'"),
		attr.MustParse("type=='sensor'"), []string{"read"}); err != nil {
		t.Fatal(err)
	}
	gid, err := svc.CreateGroup(ctx, "ops")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddSubjectToGroup(ctx, sid, gid); err != nil {
		t.Fatal(err)
	}
	fpBefore, err := svc.StateFingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	demoFP, err := backendclient.New(base, "demo", demoKey).StateFingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(base + "/metrics"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %v %v", resp, err)
	}

	// Crash mid-churn: SIGKILL leaves the WAL un-compacted; durability now
	// rests entirely on the fsynced effect records.
	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	daemon.Wait()

	_, addr2, _ := startDaemon(t, "-listen", "127.0.0.1:0", "-data", dir, "-admin-key", "root")
	base2 := "http://" + addr2
	acme2 := backendclient.New(base2, "acme", acmeKey)
	fpAfter, err := acme2.StateFingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fpAfter != fpBefore {
		t.Fatalf("replayed fingerprint differs:\n got %s\nwant %s", fpAfter, fpBefore)
	}
	// The other tenant replayed independently, auth keys intact.
	demo2 := backendclient.New(base2, "demo", demoKey)
	if fp, err := demo2.StateFingerprint(ctx); err != nil || fp != demoFP {
		t.Fatalf("demo tenant after restart: fp %s err %v, want %s", fp, err, demoFP)
	}
	// The replayed service keeps working: provisioning verifies, churn goes on.
	sp, err := acme2.ProvisionSubject(ctx, sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Memberships) != 1 {
		t.Fatalf("replayed subject lost group membership: %+v", sp)
	}
	if _, _, err := acme2.RegisterObject(ctx, "sensor-post-crash", backend.L2,
		attr.MustSet("type=sensor"), nil); err != nil {
		t.Fatalf("churn after replay: %v", err)
	}
	if fp2, _ := acme2.StateFingerprint(ctx); fp2 == fpBefore {
		t.Fatal("post-crash churn did not change the fingerprint")
	}
	_ = ids
}
