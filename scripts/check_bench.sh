#!/usr/bin/env bash
# check_bench.sh — gate the hot-path allocation ceilings (ISSUE 9).
#
# Runs the wire codec and warm-handshake microbenchmarks and fails if any
# allocs/op figure exceeds its committed ceiling, so the zero-alloc codec
# seam can never silently regress. Throughput ceilings are gated separately,
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
#   WarmHandshake/first-contact 325 allocs/op — full L2 round under the default
#                                  retry policy, ticket minted; 310 measured
#                                  + 5 % (329 before session keys were held
#                                  prepared and wheel entries embedded, 482
#                                  before PR 14)
#   WarmHandshake/resumed 51 allocs/op — the same round on a ticket: hinted
#                                  QUE1, short RES1, short QUE2; 49 measured
#                                  + 5 % (69 while keys, MACs, tickets and
#                                  wheel entries were allocations of their own
#                                  and the profile cipher built a CBC mode
#                                  object a side; 87 while every RES2 decoded
#                                  PROF_O afresh, 168 while the object still
#                                  generated a key and signed RES1 for it, 303
#                                  before PR 14). What is left: the
#                                  simulator's event queue and deliveries ≈18,
#                                  the wheel's armed timers and the round's
#                                  QUE1 and resend-cache entries ≈7, the
#                                  frames, decoded messages, nonces, records
#                                  and compute callbacks a round sends or
#                                  keeps ≈20, the ciphertext and the two AES
#                                  key schedules
#   WarmHandshake/uncached-resumed 51 allocs/op — resumed with no verify cache
#                                  on either engine, so a lookup is a real
#                                  P-256 verification; 49 measured + 5 % (109
#                                  while every resumed RES2 admin-verified the
#                                  PROF_O bytes its ticket was minted on). Its
#                                  name must not start with "resumed": check
#                                  matches on a prefix
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(go test -bench='QUE2|WarmHandshake' -benchmem -run='^$' -benchtime=100x \
	./internal/wire ./internal/core)
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
check BenchmarkWarmHandshake/first-contact 325
check BenchmarkWarmHandshake/resumed 51
check BenchmarkWarmHandshake/uncached-resumed 51

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_bench: all allocation ceilings hold"
