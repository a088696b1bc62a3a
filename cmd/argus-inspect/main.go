// Command argus-inspect prints the inventory of an argus-sim artifact:
// either a backend snapshot (argus-sim -save-state, backend.Snapshot) —
// registered subjects and objects, policies, secret groups and revocations —
// or a metrics snapshot (argus-sim -metrics, Prometheus text or JSON). Keys
// are never printed.
//
// Usage:
//
//	argus-inspect state.bin
//	argus-inspect -json state.bin
//	argus-inspect -json metrics.prom        # parsed back into structured JSON
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"argus/internal/backend"
	"argus/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run inspects the one file named in args and returns the exit status: 0
// printed, 1 unreadable or neither kind of snapshot, 2 a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	jsonOut := false
	if len(args) > 0 && args[0] == "-json" {
		jsonOut = true
		args = args[1:]
	}
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: argus-inspect [-json] <snapshot-file>")
		return 2
	}
	blob, err := os.ReadFile(args[0])
	if err == nil {
		if b, rerr := backend.Restore(blob); rerr == nil {
			err = inspectBackend(stdout, b, len(blob), jsonOut)
		} else if snap, perr := obs.ParseSnapshot(blob); perr == nil {
			err = inspectMetrics(stdout, snap, jsonOut)
		} else {
			err = fmt.Errorf("%s is neither a backend snapshot nor a metrics snapshot", args[0])
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "argus-inspect:", err)
		return 1
	}
	return 0
}

// backendJSON is the -json projection of a backend snapshot (no key material).
type backendJSON struct {
	Bytes    int          `json:"bytes"`
	Strength string       `json:"strength"`
	Policies []policyJSON `json:"policies"`
	Objects  []objectJSON `json:"objects"`
	Groups   []groupJSON  `json:"groups"`
}

type policyJSON struct {
	ID      uint64   `json:"id"`
	Subject string   `json:"subject"`
	Object  string   `json:"object"`
	Rights  []string `json:"rights"`
}

type objectJSON struct {
	ID        string   `json:"id"`
	Name      string   `json:"name"`
	Level     string   `json:"level"`
	Attrs     string   `json:"attrs"`
	Functions []string `json:"functions"`
	Revoked   int      `json:"revoked,omitempty"`
}

type groupJSON struct {
	ID          uint64 `json:"id"`
	Description string `json:"description"`
	Size        int    `json:"size"`
	KeyVersion  uint64 `json:"key_version"`
}

func inspectBackend(w io.Writer, b *backend.Backend, size int, jsonOut bool) error {
	out := backendJSON{Bytes: size, Strength: fmt.Sprint(b.Strength())}
	for _, p := range b.Policies() {
		out.Policies = append(out.Policies, policyJSON{
			ID: p.ID, Subject: fmt.Sprint(p.Subject), Object: fmt.Sprint(p.Object), Rights: p.Rights,
		})
	}
	for _, oid := range b.Objects() {
		o, err := b.Object(oid)
		if err != nil {
			continue
		}
		revoked, _ := b.RevokedFor(oid)
		out.Objects = append(out.Objects, objectJSON{
			ID: o.ID.String(), Name: o.Name, Level: o.Level.String(),
			Attrs: fmt.Sprint(o.Attrs), Functions: o.Functions, Revoked: len(revoked),
		})
	}
	for _, gid := range b.Groups.Groups() {
		g, err := b.Groups.Get(gid)
		if err != nil {
			continue
		}
		out.Groups = append(out.Groups, groupJSON{
			ID: uint64(gid), Description: g.Description(), Size: g.Size(), KeyVersion: g.KeyVersion(),
		})
	}

	if jsonOut {
		return emitJSON(w, out)
	}
	fmt.Fprintf(w, "backend snapshot: %d bytes, strength %v\n\n", out.Bytes, out.Strength)
	fmt.Fprintln(w, "policies:")
	for _, p := range out.Policies {
		fmt.Fprintf(w, "  #%d  subject[%s]  object[%s]  rights%v\n", p.ID, p.Subject, p.Object, p.Rights)
	}
	fmt.Fprintln(w, "\nobjects:")
	for _, o := range out.Objects {
		fmt.Fprintf(w, "  %-24s %-8s attrs[%s] functions%v", o.Name, o.Level, o.Attrs, o.Functions)
		if o.Revoked > 0 {
			fmt.Fprintf(w, " blacklist=%d", o.Revoked)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nsecret groups:")
	for _, g := range out.Groups {
		fmt.Fprintf(w, "  #%d  %q  γ=%d  key-version=%d\n", g.ID, g.Description, g.Size, g.KeyVersion)
	}
	return nil
}

func inspectMetrics(w io.Writer, snap *obs.Snapshot, jsonOut bool) error {
	if jsonOut {
		return emitJSON(w, snap)
	}
	fmt.Fprintf(w, "metrics snapshot: %d series\n\n", len(snap.Metrics))
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		switch m.Type {
		case "histogram":
			fmt.Fprintf(w, "  %-44s %s count=%d sum=%g p50=%g p95=%g p99=%g\n",
				m.Name+labelSuffix(m), m.Type, m.Count, m.Sum, m.P50, m.P95, m.P99)
		default:
			fmt.Fprintf(w, "  %-44s %s %g\n", m.Name+labelSuffix(m), m.Type, m.Value)
		}
	}
	return nil
}

func labelSuffix(m *obs.Metric) string {
	if len(m.Labels) == 0 {
		return ""
	}
	ls := make([]obs.Label, 0, len(m.Labels))
	for k, v := range m.Labels {
		ls = append(ls, obs.L(k, v))
	}
	return obs.LabelString(ls)
}

func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
