#!/usr/bin/env bash
# check_bench.sh — gate the hot-path allocation ceilings (ISSUE 9).
#
# Runs the wire codec, warm-handshake and mesh-session microbenchmarks and
# fails if any allocs/op figure exceeds its committed ceiling, so the
# zero-alloc codec seam can never silently regress. Throughput ceilings are gated separately,
# at runtime, by the load profiles' SLO blocks (retransmissions, latency,
# lost sessions) — allocation is the only axis a microbenchmark measures
# deterministically on shared CI hardware.
#
# Ceilings (BENCH_9.json has the values the codec ceilings first bound; the
# handshake ones were re-measured when the symmetric path came off the
# allocator, EXPERIMENTS.md "off the allocator"):
#   AppendToQUE2    0 allocs/op  — the zero-alloc append path, exactly zero
#   EncodeQUE2      1 alloc/op   — thin wrapper: one buffer per Encode
#   DecodeQUE2      1 alloc/op   — the message struct; its fields are windows
#                                  on the payload (8 when they were copies)
#   WarmHandshake/first-contact 302 allocs/op — full L2 round under the default
#                                  retry policy, ticket minted; 288 measured
#                                  + 5 % (310 while messages decoded onto the
#                                  heap and compute continuations were
#                                  closures, 329 before session keys were held
#                                  prepared and wheel entries embedded, 482
#                                  before PR 14)
#   WarmHandshake/resumed 19 allocs/op — the same round on a ticket: hinted
#                                  QUE1, short RES1, short QUE2; 18 measured
#                                  + 5 % (22 while each frame was an
#                                  allocation of its own; 24 while both
#                                  session records were allocated per
#                                  session; 49 while every frame decoded onto
#                                  the heap, continuations closed over their
#                                  sessions, nonces and the hint block were
#                                  allocations of their own and the wheel
#                                  armed a closure a timer; 69 while keys,
#                                  MACs, tickets and wheel entries were too;
#                                  303 before the symmetric half came off the
#                                  allocator). What is left: the simulator's
#                                  event queue and deliveries (the wheel's
#                                  timers among them), the two AES key
#                                  schedules and the engines' slab chunks
#                                  (transport.Slab) the frames are carved
#                                  from. The session records come from the
#                                  engines' free lists
#   WarmHandshake/uncached-resumed 19 allocs/op — resumed with no verify cache
#                                  on either engine, so a lookup is a real
#                                  P-256 verification; 18 measured + 5 % (22
#                                  with a frame an allocation, 24 with
#                                  per-session records; 109 while every
#                                  resumed RES2 admin-verified the PROF_O
#                                  bytes its ticket was minted on). Its name
#                                  must not start with "resumed": check
#                                  matches on a prefix
#   MeshSession/resumed 5 allocs/op — one resumed L2 and one L3 session between
#                                  engines on a transport.Mesh, once the
#                                  objects' resend caches are full; 4
#                                  measured + 5 %, rounded up: each session's
#                                  two AES key schedules, the frames carved
#                                  from the engines' slabs (11 while each
#                                  frame was an allocation of its own, 15
#                                  while both session records were allocated
#                                  per session, 46 before the message values,
#                                  continuations, nonces, hint block, wheel
#                                  closures and broadcast peer lists came off
#                                  the allocator)
#   MeshSession/udp-resumed 5 allocs/op — the same round between engines on
#                                  UDP sockets on loopback
#                                  (transport.UDPEndpoint), the path
#                                  argus-node ships; 4 measured + 5 %,
#                                  rounded up. The read loop interns each
#                                  source's Addr and carves each payload from
#                                  its slab (51 while it allocated the
#                                  sender's *UDPAddr, its string Addr and a
#                                  payload copy per frame, 56 with
#                                  per-session records)
#   MeshSession/udp-level-1 1 alloc/op — one Level 1 round over UDP on
#                                  loopback; 0 measured (0.12 a round: slab
#                                  chunks), 11 while the read loop allocated
#                                  per frame
#   IssueCertChain 455 allocs/op — one S128 entity certificate: template,
#                                  TBS marshal, the pinned-width signature
#                                  and x509's check of it; 433 measured + 5 %
#                                  (545 while the signer waited for r and s
#                                  both to come out full-width, 3.9 ECDSA
#                                  signatures a certificate where (r, n−s)
#                                  now takes 2.0). An ECDSA signature is
#                                  ≈ 60 allocations, so the figure moves with
#                                  the attempt count: 1000 iterations keep
#                                  its spread near ±3
#   WheelRearm 0 allocs/op       — a retry wheel on a transport.Mesh endpoint
#                                  arming, canceling and re-arming a deadline
#                                  twice: the wheel owns one resettable timer,
#                                  set and stopped in place (each arm that
#                                  moved the earliest deadline built a
#                                  time.AfterFunc while the wheel armed a new
#                                  timer per deadline)
#   RevocationPush/plain 710 allocs/op — one revocation pushed to 300 objects
#                                  through 200 distributors sharing an admin:
#                                  each push's notification and frame, one
#                                  statement per distributor, one signature;
#                                  676 measured + 5 %. A signature per push
#                                  (≈ 60 allocations each) reads 22 729
#   RevocationPush/instrumented 733 allocs/op — the same push with the
#                                  distributors sharing a registry, as the
#                                  benchmark fleet's and argus-node's
#                                  gateways do; 698 measured + 5 %. The
#                                  counters are resolved once by Instrument
#                                  and the unread push stamps are capped
#                                  (3 098 while each push resolved its
#                                  labelled counter by name)
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(go test -bench='QUE2|WarmHandshake|MeshSession|WheelRearm' -benchmem -run='^$' -benchtime=100x \
	./internal/wire ./internal/core)
out+=$'\n'$(go test -bench='IssueCertChain' -benchmem -run='^$' -benchtime=1000x ./internal/cert)
out+=$'\n'$(go test -bench='RevocationPush' -benchmem -run='^$' -benchtime=100x ./internal/update)
echo "$out"

fail=0
check() {
	local name=$1 max=$2 allocs
	allocs=$(echo "$out" | awk -v n="^$name" '$1 ~ n {print $(NF-1); exit}')
	if [ -z "$allocs" ]; then
		echo "check_bench: benchmark $name not found in output" >&2
		fail=1
	elif [ "$allocs" -gt "$max" ]; then
		echo "check_bench: $name allocates $allocs/op > ceiling $max" >&2
		fail=1
	fi
}

check BenchmarkAppendToQUE2 0
check BenchmarkEncodeQUE2 1
check BenchmarkDecodeQUE2 1
check BenchmarkWarmHandshake/first-contact 302
check BenchmarkWarmHandshake/resumed 19
check BenchmarkWarmHandshake/uncached-resumed 19
check BenchmarkMeshSession/resumed 5
check BenchmarkMeshSession/udp-resumed 5
check BenchmarkMeshSession/udp-level-1 1
check BenchmarkWheelRearm 0
check BenchmarkIssueCertChain 455
check BenchmarkRevocationPush/plain 710
check BenchmarkRevocationPush/instrumented 733

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_bench: all allocation ceilings hold"
