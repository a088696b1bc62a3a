package main

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/obs"
	"argus/internal/suite"
)

// inspect runs the command on args and returns its exit status and output.
func inspect(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func writeFile(t *testing.T, name string, blob []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, blob, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestInspectBackendJSON: -json on a backend snapshot lists its policies,
// objects and groups, and no form of the group key appears in the output.
func TestInspectBackendJSON(t *testing.T) {
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='printer'"), []string{"print"}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Groups.CreateGroup("support circle")
	if err != nil {
		t.Fatal(err)
	}
	alice, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddSubjectToGroup(alice, g.ID()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RegisterObject("printer", backend.L2, attr.MustSet("type=printer"), []string{"print"}); err != nil {
		t.Fatal(err)
	}
	kiosk, _, err := b.RegisterObject("kiosk", backend.L3, attr.MustSet("type=kiosk"), []string{"browse"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddCovertService(kiosk, g.ID(), []string{"support"}); err != nil {
		t.Fatal(err)
	}
	ms, err := b.Groups.MembershipsFor(alice, cert.RoleSubject)
	if err != nil || len(ms) != 1 {
		t.Fatalf("memberships %v, %v: want alice in one group", ms, err)
	}
	key := ms[0].Key

	code, out, errOut := inspect("-json", writeFile(t, "state.bin", b.Snapshot()))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var doc backendJSON
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not the backend JSON: %v\n%s", err, out)
	}
	if len(doc.Policies) != 1 || doc.Policies[0].Rights[0] != "print" {
		t.Errorf("policies %+v, want the one print policy", doc.Policies)
	}
	var names []string
	for _, o := range doc.Objects {
		names = append(names, o.Name+"/"+o.Level)
	}
	sort.Strings(names)
	if want := []string{"kiosk/Level 3", "printer/Level 2"}; !reflect.DeepEqual(names, want) {
		t.Errorf("objects %v, want %v", names, want)
	}
	if len(doc.Groups) != 1 || doc.Groups[0].Description != "support circle" || doc.Groups[0].Size != 2 {
		t.Errorf("groups %+v, want the support circle with two members", doc.Groups)
	}
	for _, form := range []string{string(key), hex.EncodeToString(key), base64.StdEncoding.EncodeToString(key)} {
		if strings.Contains(out, form) {
			t.Fatalf("output carries the group key:\n%s", out)
		}
	}
}

// TestInspectMetricsRoundTrip: a Prometheus exposition written by obs parses
// back into the same series.
func TestInspectMetricsRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("argus_sessions_total", "sessions", obs.L("level", "2")).Add(7)
	reg.Gauge("argus_inflight", "in flight").Set(3)
	h := reg.Histogram("argus_session_seconds", "session time", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5} {
		h.Observe(v)
	}
	want := reg.Snapshot()
	var prom bytes.Buffer
	if err := want.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}

	code, out, errOut := inspect("-json", writeFile(t, "m.prom", prom.Bytes()))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var got obs.Snapshot
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("output is not a snapshot: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(series(&got), series(want)) {
		t.Fatalf("parsed series\n%v\nwant\n%v", series(&got), series(want))
	}

	// The table form names every series too.
	code, out, _ = inspect(writeFile(t, "m.prom", prom.Bytes()))
	if code != 0 || !strings.Contains(out, "metrics snapshot: 3 series") {
		t.Fatalf("exit %d, table:\n%s", code, out)
	}
}

// series reduces a snapshot to what a round trip must keep, one line a series.
func series(s *obs.Snapshot) []string {
	var out []string
	for i := range s.Metrics {
		m := &s.Metrics[i]
		line, _ := json.Marshal([]any{m.Name, m.Type, m.Labels, m.Value, m.Count, m.Sum, m.Buckets})
		out = append(out, string(line))
	}
	return out
}

func TestInspectRejectsOtherFiles(t *testing.T) {
	code, _, errOut := inspect(writeFile(t, "junk", []byte("not a snapshot\x00\x01")))
	if code != 1 || !strings.Contains(errOut, "neither") {
		t.Fatalf("exit %d, stderr %q: want 1 and \"neither\"", code, errOut)
	}
	if code, _, errOut := inspect(); code != 2 || !strings.Contains(errOut, "usage") {
		t.Fatalf("no argument: exit %d, stderr %q: want 2 and the usage", code, errOut)
	}
}
