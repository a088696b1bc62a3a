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
# Ceilings (see BENCH_9.json for the measured values they bound):
#   AppendToQUE2    0 allocs/op  — the zero-alloc append path, exactly zero
#   EncodeQUE2      1 alloc/op   — thin wrapper: one buffer per Encode
#   DecodeQUE2      8 allocs/op  — decode-from-borrowed-slice
#   WarmHandshake/first-contact 500 allocs/op — full L2 round under the default
#                                  retry policy, ticket minted; 482 measured
#                                  (464 before resumption: minting is one HMAC
#                                  a side), nearly all inside stdlib ECDSA/ECDH.
#                                  The ceiling predates resumption and stays:
#                                  first contact must not get dearer.
#   WarmHandshake/resumed 330 allocs/op — the same round on a ticket; 303
#                                  measured, over half of them the object's
#                                  RES1 (key generation, signature), the rest
#                                  stdlib HMAC set-up
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
check BenchmarkDecodeQUE2 8
check BenchmarkWarmHandshake/first-contact 500
check BenchmarkWarmHandshake/resumed 330

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_bench: all allocation ceilings hold"
