package obs

// Canonical metric family names, shared by the instrumented packages, the
// cmd binaries and the tests so that producers and consumers never drift.
// Conventions (documented in DESIGN.md §Observability):
//
//   - families are `argus_<subsystem>_<noun>[_<unit>]`;
//   - counters end in `_total`;
//   - histograms use base units: `_seconds` for time, `_bytes` for sizes;
//   - labels are low-cardinality: level ("1".."3"), phase (protocol phase),
//     version ("v1"|"v2"|"v3"), op (crypto or churn operation), role
//     ("subject"|"object"), channel / from / to (small integers), kind,
//     result.
const (
	// internal/core — subject side.
	MDiscoveryRounds       = "argus_discovery_rounds_total"
	MDiscoveries           = "argus_discoveries_total"       // level
	MDiscoveryPhaseSeconds = "argus_discovery_phase_seconds" // level, phase, version
	MCryptoOps             = "argus_crypto_ops_total"        // op, role

	// internal/core — object side.
	MObjectQue1           = "argus_object_que1_total" // result
	MObjectQue2           = "argus_object_que2_total" // result
	MObjectComputeSeconds = "argus_object_equalized_compute_seconds"
	MObjectRes2Bytes      = "argus_object_res2_bytes"

	// internal/netsim.
	MNetMessages      = "argus_net_messages_total"
	MNetTransmissions = "argus_net_transmissions_total"
	MNetBytesOnAir    = "argus_net_bytes_on_air_total"
	MNetDrops         = "argus_net_drops_total"
	MNetPayloadBytes  = "argus_net_payload_bytes"
	MNetHopLatency    = "argus_net_hop_latency_seconds"
	MNetMediumWait    = "argus_net_medium_wait_seconds"
	MNetChannelBytes  = "argus_net_channel_bytes_total" // channel
	MNetLinkBytes     = "argus_net_link_bytes_total"    // from, to

	// internal/netsim — fault injection (see netsim.FaultModel).
	MNetFaultLost       = "argus_net_fault_lost_total"
	MNetFaultCorrupted  = "argus_net_fault_corrupted_total"
	MNetFaultDuplicated = "argus_net_fault_duplicated_total"
	MNetCrashDrops      = "argus_net_crash_drops_total"

	// internal/core — retransmission / robustness (both roles).
	MRetransmissions = "argus_retransmissions_total"  // role, msg, cause
	MSessionsExpired = "argus_sessions_expired_total" // role
	MMalformedDrops  = "argus_malformed_drops_total"  // role
	MResumptions     = "argus_resumptions_total"      // side, result

	// internal/cert — credential verification cache (handshake fast path).
	MVerifyCacheEvents = "argus_verify_cache_events_total" // kind, result

	// internal/transport — concurrent-transport mailboxes (Mesh/UDP actor
	// loops). Inbound frames shed under backpressure vs. frames delivered.
	MTransportMailboxDrops = "argus_transport_mailbox_drops_total" // addr
	MTransportDeliveries   = "argus_transport_deliveries_total"    // addr

	// internal/backend.
	MBackendChurnOps = "argus_backend_churn_ops_total" // op
	MBackendNotified = "argus_backend_notified_total"  // kind

	// internal/update.
	MUpdateSent        = "argus_update_sent_total" // kind
	MUpdateApplied     = "argus_update_applied_total"
	MUpdateRejected    = "argus_update_rejected_total"
	MUpdatePropagation = "argus_update_propagation_seconds"

	// internal/update — dead-letter queue for churn notifications that could
	// not be delivered (destination offline/unreachable). Undeliverable
	// counts every push that had to be parked instead of sent; evictions
	// count letters discarded at the per-destination bound (never silent);
	// redelivery lag is park time → actual send after the node reattaches.
	MUpdateUndeliverable = "argus_update_undeliverable_total" // kind
	MUpdateDLQDepth      = "argus_update_dlq_depth"
	MUpdateDLQEvictions  = "argus_update_dlq_evictions_total"
	MUpdateRedelivered   = "argus_update_redelivered_total" // kind
	MUpdateRedeliveryLag = "argus_update_redelivery_lag_seconds"

	// internal/backendsvc — the durable multi-tenant service fronting the
	// enterprise backends. Requests count the /v1 HTTP surface by route
	// pattern and status code; WAL appends/replays count effect records
	// written at churn time and re-applied at open; compactions count
	// snapshot+truncate cycles; auth failures count rejected bearer keys.
	MBackendsvcRequests    = "argus_backendsvc_requests_total"  // route, code
	MBackendsvcLatency     = "argus_backendsvc_request_seconds" // route
	MBackendsvcAuthFail    = "argus_backendsvc_auth_failures_total"
	MBackendsvcWALAppends  = "argus_backendsvc_wal_appends_total" // tenant, op
	MBackendsvcWALReplays  = "argus_backendsvc_wal_replays_total" // tenant, op
	MBackendsvcCompactions = "argus_backendsvc_compactions_total" // tenant
	MBackendsvcTenants     = "argus_backendsvc_tenants"

	// internal/realtime — streaming ops plane. Subscribers is the live
	// client count; events count everything published to the hub by kind;
	// subscriber drops count events shed from a slow consumer's ring (by the
	// kind of the evicted event) — drops are per-subscriber, so one stalled
	// client never stalls the fleet or its fellow subscribers.
	MRealtimeSubscribers    = "argus_realtime_subscribers"
	MRealtimeEvents         = "argus_realtime_events_total"           // kind
	MRealtimeSubscriberDrop = "argus_realtime_subscriber_drops_total" // kind

	// internal/load — load/soak harness bookkeeping. Inflight counts armed
	// discovery sessions (one subject↔object handshake each) not yet
	// completed; the peak gauge latches the high-water mark for the run.
	MLoadInflight     = "argus_load_inflight_sessions"
	MLoadPeakInflight = "argus_load_peak_inflight_sessions"
	MLoadRoundsArmed  = "argus_load_rounds_armed_total"
	MLoadCompletions  = "argus_load_completions_total"
	MLoadLost         = "argus_load_lost_total"
	MLoadUnexpected   = "argus_load_unexpected_total"
	// MLoadSkipped counts open-loop arrivals that found every subject busy —
	// offered load the fleet could not absorb (never queued, by definition of
	// open-loop). The capacity search's utilization gate reads this family, so
	// multi-process shards must emit it too.
	MLoadSkipped = "argus_load_skipped_arrivals_total"

	// internal/load — scenario diversity (mobility + duty cycling). Roams
	// count subject migrations between cells (each forces a fresh engine and
	// re-discovery in the destination cell); sleepy drops count frames a
	// duty-cycled object's radio missed while asleep (each one forces the
	// subject's RetryPolicy retransmission path).
	MLoadRoams       = "argus_load_roams_total"
	MLoadSleepyDrops = "argus_load_sleepy_drops_total"

	// internal/adversary — hostile personas driven by the load harness.
	// Injected counts frames a persona put on the air (by persona and msg);
	// samples count passive-observer measurements (by population); the
	// covertness gauge publishes the two-sample test p-value in parts per
	// million (by channel: "timing" | "length") so the Case-7 covertness
	// claim is visible on the ops plane.
	MAdversaryInjected  = "argus_adversary_injected_total"   // persona, msg
	MAdversarySamples   = "argus_adversary_samples_total"    // population
	MAdversaryCovertPpm = "argus_adversary_covertness_p_ppm" // channel
)

// Protocol phases of a discovery session, in wire order. Used as the
// `phase` label of MDiscoveryPhaseSeconds and as Span.Phase values.
const (
	PhaseQUE1 = "que1_res1"    // QUE1 broadcast → RES1 arrival
	PhaseRES1 = "res1_verify"  // RES1 arrival → QUE2 on the air (verify + ECDH + sign)
	PhaseQUE2 = "que2_res2"    // QUE2 sent → RES2 arrival (object turnaround + air)
	PhaseRES2 = "res2_decrypt" // RES2 arrival → discovery recorded (MAC + decrypt + verify)
	PhaseAll  = "total"        // QUE1 broadcast → discovery recorded
)

// Causes of a retransmission: the `cause` label of MRetransmissions. A timeout
// is a resend for someone in particular — a QUE1 rebroadcast while a peer the
// subject expects is silent, and every QUE2, RES1 and RES2 resend. A probe is a
// blind round's QUE1 rebroadcast with nobody missing: the only retransmission
// a lossless, unhurried network sees, which is why the SLO gates and the
// bottleneck attribution read timeout alone.
const (
	CauseTimeout = "timeout"
	CauseProbe   = "probe"
)
