package main

import (
	"fmt"
	"math"
)

// The metrics a run prints, in the order BENCHMARK.json lists them. An
// untraced run prints exactly the end-to-end set and a traced run exactly the
// per-layer set, on every workload; README.md defines each.

type metricDef struct {
	Name, Unit, Better string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"lat_p50_ms", "ms", "lower"},
	{"within_100ms_share", "share", "higher"},
	{"ok_share", "share", "higher"},
	{"sat_sessions_s", "1/s", "higher"},
	{"cpu_us_per_session", "us", "lower"},
	{"allocs_per_session", "count", "lower"},
	{"frames_per_session", "count", "lower"},
	{"bytes_per_session", "B", "lower"},
	{"heap_kb_per_engine", "KiB", "lower"},
	{"churn_apply_p50_ms", "ms", "lower"},
}

var perLayerMetrics = []metricDef{
	{"suite.batch_verify_ns_per_sig", "ns", "lower"},
	{"suite.decrypt_profile_ns", "ns", "lower"},
	{"suite.encrypt_profile_ns", "ns", "lower"},
	{"suite.kex_gen_ns", "ns", "lower"},
	{"suite.kex_shared_ns", "ns", "lower"},
	{"suite.mac_ns", "ns", "lower"},
	{"suite.ops_per_session", "count", "lower"},
	{"suite.prf_ns", "ns", "lower"},
	{"suite.sign_ns", "ns", "lower"},
	{"suite.verify_ns", "ns", "lower"},
	{"cert.issue_chain_ns", "ns", "lower"},
	{"cert.vcache_hit_ratio", "share", "higher"},
	{"cert.vcache_lookups_per_session", "count", "lower"},
	{"cert.verify_cert_hit_ns", "ns", "lower"},
	{"cert.verify_cert_miss_ns", "ns", "lower"},
	{"cert.verify_prof_hit_ns", "ns", "lower"},
	{"cert.verify_prof_miss_ns", "ns", "lower"},
	{"wire.decode_allocs.que1", "count", "lower"},
	{"wire.decode_allocs.que2", "count", "lower"},
	{"wire.decode_allocs.res1", "count", "lower"},
	{"wire.decode_allocs.res2", "count", "lower"},
	{"wire.decode_ns.que1", "ns", "lower"},
	{"wire.decode_ns.que2", "ns", "lower"},
	{"wire.decode_ns.res1", "ns", "lower"},
	{"wire.decode_ns.res2", "ns", "lower"},
	{"wire.encode_ns.que1", "ns", "lower"},
	{"wire.encode_ns.que2", "ns", "lower"},
	{"wire.encode_ns.res1", "ns", "lower"},
	{"wire.encode_ns.res2", "ns", "lower"},
	{"wire.size_bytes.que1", "B", "lower"},
	{"wire.size_bytes.que2", "B", "lower"},
	{"wire.size_bytes.res1", "B", "lower"},
	{"wire.size_bytes.res2", "B", "lower"},
	{"transport.deliveries_per_session", "count", "lower"},
	{"transport.handler_busy_share", "share", "lower"},
	{"transport.mailbox_drops", "count", "lower"},
	{"transport.mailbox_wait_p50_us", "us", "lower"},
	{"transport.mailbox_wait_p99_us", "us", "lower"},
	{"transport.mesh_frame_ns", "ns", "lower"},
	{"transport.udp_frame_ns", "ns", "lower"},
	{"core.duplicate_frames_per_session", "count", "lower"},
	{"core.object_que1_us", "us", "lower"},
	{"core.object_que2_us", "us", "lower"},
	{"core.pending_sessions_peak", "count", "lower"},
	{"core.que1_refused", "count", "lower"},
	{"core.retransmits_per_session", "count", "lower"},
	{"core.session_ms.l1", "ms", "lower"},
	{"core.session_ms.l2", "ms", "lower"},
	{"core.session_ms.l3", "ms", "lower"},
	{"core.sessions_expired_per_1k", "count", "lower"},
	{"core.subject_res1_us", "us", "lower"},
	{"core.subject_res2_us", "us", "lower"},
	{"backend.notified_per_revoke", "count", "lower"},
	{"backend.provision_object_us", "us", "lower"},
	{"backend.provision_subject_us", "us", "lower"},
	{"backend.register_subject_us", "us", "lower"},
	{"backend.rekeyed_per_revoke", "count", "lower"},
	{"backend.revoke_us", "us", "lower"},
	{"update.apply_p50_ms", "ms", "lower"},
	{"update.push_us", "us", "lower"},
	{"update.rejected", "count", "lower"},
	{"obs.counter_inc_ns", "ns", "lower"},
	{"obs.histogram_observe_ns", "ns", "lower"},
	{"driver.churn_apply_p90_ms", "ms", "lower"},
	{"driver.cpu_cores_used", "cores", "higher"},
	{"driver.cpu_us_per_session", "us", "lower"},
	{"driver.fail_share", "share", "lower"},
	{"driver.gen_late_max_ms", "ms", "lower"},
	{"driver.gen_late_p99_ms", "ms", "lower"},
	{"driver.host_speed", "1/s", "higher"},
	{"driver.lat_p50_ms.r250", "ms", "lower"},
	{"driver.lat_p50_ms.r500", "ms", "lower"},
	{"driver.lat_p50_ms.r750", "ms", "lower"},
	{"driver.lat_p95_ms.r250", "ms", "lower"},
	{"driver.lat_p95_ms.r500", "ms", "lower"},
	{"driver.lat_p95_ms.r750", "ms", "lower"},
	{"driver.lat_p99_ms", "ms", "lower"},
	{"driver.trace_overhead_pct", "%", "lower"},
	{"driver.window_spread_pct", "%", "lower"},
	{"budget.crypto_share", "share", "higher"},
	{"budget.explained_us", "us", "higher"},
	{"budget.residual_pct", "%", "lower"},
}

// checkMetrics reports a run whose metrics are not exactly the declared set:
// BENCHMARK.json promises every one of them on every workload.
func checkMetrics(got map[string]windowed, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("run produced %d metrics, %d are declared", len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("declared metric %s was not produced", d.Name)
		case v.Unit != d.Unit:
			return fmt.Errorf("metric %s has unit %q, declared %q", d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %s is %v", d.Name, v.Value)
		}
	}
	return nil
}
