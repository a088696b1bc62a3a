package core

import (
	"argus/internal/cert"
	"argus/internal/obs"
	"argus/internal/transport"
)

// Option configures a Subject or Object engine at construction. The options
// pattern replaces the earlier mutator sprawl (Attach / SetRetry /
// Instrument), which forced every caller to know the right post-construction
// call order and grew a method per knob; options compose, apply atomically
// before the engine handles its first message, and keep NewSubject/NewObject
// signatures stable as knobs accumulate.
type Option func(*engineOptions)

type engineOptions struct {
	ep transport.Endpoint

	retry RetryPolicy

	reg    *obs.Registry
	tracer *obs.Tracer

	vcache *cert.VerifyCache
}

func applyOptions(opts []Option) engineOptions {
	var eo engineOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&eo)
		}
	}
	return eo
}

// WithEndpoint binds the engine to its transport endpoint at construction:
// the engine is installed as the endpoint's inbound handler before it can
// receive its first frame. Equivalent to calling Bind(ep) on the fresh
// engine. An engine built without this option is inert until Bind.
func WithEndpoint(ep transport.Endpoint) Option {
	return func(eo *engineOptions) { eo.ep = ep }
}

// WithRetry installs the retransmission policy (the former SetRetry mutator).
// The zero policy disables retransmission, duplicate-response resends and
// TTL-based session expiry, reproducing the one-shot seed protocol exactly.
func WithRetry(p RetryPolicy) Option {
	return func(eo *engineOptions) { eo.retry = p }
}

// WithTelemetry attaches a metrics registry and, for subjects, an optional
// span tracer (the former Instrument mutator; objects ignore tr). Telemetry
// is purely observational — it consumes no randomness and schedules no
// events, so instrumented and uninstrumented runs of one seed are identical.
func WithTelemetry(reg *obs.Registry, tr *obs.Tracer) Option {
	return func(eo *engineOptions) { eo.reg, eo.tracer = reg, tr }
}

// WithVerifyCache shares a credential-verification cache with the engine: the
// CERT-chain and PROF checks of the Level 2/3 handshake consult it, so a peer
// seen before costs zero ECDSA credential verifications (only the per-session
// nonce signatures remain). A nil cache — and the default, when the option is
// absent — verifies every credential from scratch. The cache affects real
// wall-clock work only; the modeled virtual Costs are charged identically
// either way, so fixed-seed simulations are byte-identical with and without
// it (the engine cannot observe a hit, only the host's CPU can).
//
// Caches may be shared across engines: entries are keyed by trust anchor and
// credential bytes, so engines with different anchors never alias. The engine
// invalidates on Refresh (anchor change flushes; newly revoked peers are
// dropped) and Object.Revoke; rotated credentials miss inherently, because
// re-issued bytes hash to a different key.
func WithVerifyCache(c *cert.VerifyCache) Option {
	return func(eo *engineOptions) { eo.vcache = c }
}
