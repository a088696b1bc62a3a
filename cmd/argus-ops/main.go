// Command argus-ops is the operator's tail onto a running Argus process.
// It attaches to the obs plane of an argus-node or argus-load run (-obs),
// follows the realtime event stream at /events, and renders fleet health
// from each snapshot frame: per-level discovery latency quantiles,
// retransmissions, mailbox drops, dead-letter depth and redeliveries —
// plus the SLO gates of a chosen load profile, evaluated live with
// budget-burn rates. The gates are the very definitions internal/load
// enforces at the end of a run (SLO.StreamGates over slo.SnapshotReport, the
// profile's block from slo.Profiles), so the tail and the final report can
// never disagree about what green means. The tail is a reader: it links obs,
// realtime and slo, and none of the engines the harness drives.
//
// Usage:
//
//	argus-node -role subject ... -obs 127.0.0.1:9970 -linger 1h &
//	argus-ops -attach 127.0.0.1:9970 -profile ci-soak
//
// Stop conditions compose: -for bounds wall time, -frames bounds frame
// count, and -await lists event types (e.g. "snapshot,span") after which the
// tail exits 0 — the CI smoke uses -await to assert a live node is actually
// streaming. -json switches to raw NDJSON passthrough for piping into jq.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"argus/internal/realtime"
	"argus/internal/slo"
)

type options struct {
	attach  string
	slo     slo.SLO
	await   []string
	tailFor time.Duration
	frames  int
	raw     bool
	spans   bool
}

func main() {
	attach := flag.String("attach", "", "obs endpoint to tail: host:port or a full URL (required)")
	profile := flag.String("profile", "", "evaluate the SLO gates of this load profile (default: strict zero budgets)")
	await := flag.String("await", "", "comma-separated event types; exit 0 once every one has been seen")
	tailFor := flag.Duration("for", 0, "stop after this long (0 = until the stream ends)")
	frames := flag.Int("frames", 0, "stop after this many frames (0 = unbounded)")
	raw := flag.Bool("json", false, "emit raw NDJSON frames instead of rendered text")
	spans := flag.Bool("spans", false, "render span frames (per-phase protocol timings)")
	flag.Parse()

	o := options{attach: *attach, tailFor: *tailFor, frames: *frames, raw: *raw, spans: *spans}
	if *profile != "" {
		gates, ok := slo.Profiles()[*profile]
		if !ok {
			fmt.Fprintf(os.Stderr, "argus-ops: unknown profile %q (try argus-load -list)\n", *profile)
			os.Exit(2)
		}
		o.slo = gates
	}
	for _, t := range strings.Split(*await, ",") {
		if t = strings.TrimSpace(t); t != "" {
			o.await = append(o.await, t)
		}
	}
	if o.attach == "" {
		fmt.Fprintln(os.Stderr, "argus-ops: -attach is required")
		os.Exit(2)
	}
	if err := run(context.Background(), os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "argus-ops:", err)
		os.Exit(1)
	}
}

// eventsURL normalizes -attach (host:port, base URL, or full stream URL)
// into the /events stream URL.
func eventsURL(attach string) string {
	if !strings.Contains(attach, "://") {
		attach = "http://" + attach
	}
	if strings.HasSuffix(attach, "/events") {
		return attach
	}
	return strings.TrimRight(attach, "/") + "/events"
}

// run tails the stream until a stop condition fires. A -for deadline is a
// bounded tail, not a failure; a stream that ends before every -await type
// was seen is.
func run(ctx context.Context, w io.Writer, o options) error {
	url := eventsURL(o.attach)
	if o.tailFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.tailFor)
		defer cancel()
	}
	pending := make(map[string]bool, len(o.await))
	for _, t := range o.await {
		pending[t] = true
	}
	t := &tail{o: o, w: w, enc: json.NewEncoder(w)}
	frames := 0
	err := realtime.Tail(ctx, url, func(ev realtime.Event) error {
		frames++
		if err := t.render(ev); err != nil {
			return err
		}
		delete(pending, ev.Type)
		if len(o.await) > 0 && len(pending) == 0 {
			fmt.Fprintf(w, "awaited %s: all seen\n", strings.Join(o.await, ","))
			return realtime.Stop
		}
		if o.frames > 0 && frames >= o.frames {
			return realtime.Stop
		}
		return nil
	})
	if errors.Is(err, context.DeadlineExceeded) && o.tailFor > 0 {
		err = nil
	}
	if err != nil {
		return err
	}
	if len(pending) > 0 {
		missing := make([]string, 0, len(pending))
		for typ := range pending {
			missing = append(missing, typ)
		}
		sort.Strings(missing)
		return fmt.Errorf("stream ended before awaited events: %s", strings.Join(missing, ","))
	}
	return nil
}

// tail renders frames, carrying the previous snapshot-derived report so
// budgeted gates get a burn rate over the inter-frame window.
type tail struct {
	o   options
	w   io.Writer
	enc *json.Encoder

	prev   *slo.Report
	prevAt time.Duration
}

func (t *tail) render(ev realtime.Event) error {
	if t.o.raw {
		return t.enc.Encode(ev)
	}
	switch ev.Type {
	case realtime.EventHello:
		fmt.Fprintf(t.w, "attached seq=%d config=%s\n", ev.Seq, ev.Data)
	case realtime.EventSnapshot:
		t.snapshot(ev)
	case realtime.EventSpan:
		if t.o.spans && ev.Span != nil {
			s := ev.Span
			fmt.Fprintf(t.w, "span seq=%d session=%d %s/%s L%d dur=%s\n",
				ev.Seq, s.Session, s.Name, s.Phase, s.Level, s.Duration())
		}
	default: // free-form kinds: wave, churn, report, gates, ...
		fmt.Fprintf(t.w, "event kind=%s seq=%d %s\n", ev.Type, ev.Seq, ev.Data)
	}
	return nil
}

// snapshot renders one fleet-health block: headline counters, per-level
// latency quantiles, redelivery lag, then every SLO gate with its budget
// burn since the previous frame.
func (t *tail) snapshot(ev realtime.Event) {
	rep := slo.SnapshotReport(ev.Snapshot)
	fmt.Fprintf(t.w,
		"snapshot seq=%d completed=%d lost=%d retransmissions=%d timeout=%d mailbox_drops=%d dlq_depth=%d redelivered=%d\n",
		ev.Seq, rep.Totals.Completed, rep.Totals.Lost,
		rep.Counters["retransmissions"], rep.Counters["retransmissions_timeout"], rep.Counters["mailbox_drops"],
		rep.Counters["dlq_depth"], rep.Counters["update_redelivered"])

	levels := make([]string, 0, len(rep.Latency))
	for lvl := range rep.Latency {
		levels = append(levels, lvl)
	}
	sort.Strings(levels)
	for _, lvl := range levels {
		q := rep.Latency[lvl]
		fmt.Fprintf(t.w, "  L%s n=%d p50=%s p95=%s p99=%s overflow=%d\n",
			lvl, q.Count, fmtSec(q.P50), fmtSec(q.P95), fmtSec(q.P99), q.Overflow)
	}
	if q := rep.RedeliveryLag; q != nil {
		fmt.Fprintf(t.w, "  redelivery_lag n=%d p50=%s p99=%s\n",
			q.Count, fmtSec(q.P50), fmtSec(q.P99))
	}
	// The observer publishes -1 while its verdict is pending; show the line
	// once either channel has a real p-value.
	if tp, lp := rep.Counters["covert_timing_p_ppm"], rep.Counters["covert_length_p_ppm"]; tp >= 0 || lp >= 0 {
		fmt.Fprintf(t.w, "  covertness samples=%d timing_p=%.6f length_p=%.6f\n",
			rep.Counters["observer_samples"], float64(tp)/1e6, float64(lp)/1e6)
	}

	var dt time.Duration
	if t.prev != nil && ev.At > t.prevAt {
		dt = ev.At - t.prevAt
	}
	violated := 0
	for _, g := range t.o.slo.StreamGates(rep, t.prev, dt) {
		fmt.Fprintf(t.w, "  gate %s\n", g)
		if g.Violated {
			violated++
		}
	}
	if violated > 0 {
		fmt.Fprintf(t.w, "  SLO: %d gate(s) VIOLATED\n", violated)
	}
	t.prev, t.prevAt = rep, ev.At
}

// fmtSec renders a seconds-valued quantile as a rounded duration.
func fmtSec(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(10 * time.Microsecond).String()
}
