#!/bin/sh
# End-to-end capacity-search smoke: the same tiny fleet searched on both
# placements — in this process, then sharded across two real shard processes
# by `argus-load -capacity -procs 2`, which re-executes its own binary as
# `argus-load shard` (one build serves both legs). Passes only when
#
#   1. both searches exit 0 (some rate sustained): the in-process session
#      and, for -procs 2, the coordinator launching both shards and
#      completing the cross-process warm sweep,
#   2. both emitted documents carry a non-zero knee — for -procs 2 that is
#      the merged multi-process SLO verdict passing at least one rate — and
#   3. both warm waves resolved the same level mix (the profile's L1/L2/L3
#      pattern with fellows): the sharded fleet is the profile's fleet.
#
# The tolerance is deliberately coarse (-cap-tol 0.5) and the windows short:
# this is a wiring check for the one driver on its two placements, not a
# benchmark — BENCH_10.json is where knees are recorded.
#
# This is the CI capacity-smoke job; run it locally with `make capacity-smoke`.
set -eu

cd "$(dirname "$0")/.."
TMP=$(mktemp -d)
cleanup() {
	rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/argus-load" ./cmd/argus-load

# search <name> [placement flags...]: one search over the smoke fleet.
search() {
	name=$1
	shift
	"$TMP/argus-load" -capacity "$@" \
		-profile ci-soak -cells 2 -subjects 2 -objects 2 \
		-cap-start 25 -cap-tol 0.5 -cap-trials 4 -cap-duration 1s \
		-out "$TMP/$name.json" 2>"$TMP/$name.log" || {
		echo "capacity smoke: $name search failed" >&2
		cat "$TMP/$name.log" >&2
		exit 1
	}
	KNEE=$(sed -n 's/^ *"knee_sessions_per_second": \([0-9.]*\).*/\1/p' "$TMP/$name.json" | head -n 1)
	if [ -z "$KNEE" ] || [ "$KNEE" = "0" ]; then
		echo "capacity smoke: no knee in the $name report (got '$KNEE')" >&2
		cat "$TMP/$name.json" >&2
		exit 1
	fi
	# The by-level block (keys sorted by the encoder) squeezed onto one line.
	sed -n '/"warm_sessions_by_level"/,/}/p' "$TMP/$name.json" | tr -d ' \n' | sed 's/,$//' >"$TMP/$name.levels"
	echo "capacity smoke: $name knee $KNEE sessions/s, warm $(cat "$TMP/$name.levels")"
}

search in-process
search two-process -procs 2

WANT='"warm_sessions_by_level":{"1":2,"2":4,"3":2}'
for name in in-process two-process; do
	if [ "$(cat "$TMP/$name.levels")" != "$WANT" ]; then
		echo "capacity smoke: $name warm wave resolved $(cat "$TMP/$name.levels"), want $WANT" >&2
		exit 1
	fi
done
echo "capacity smoke: PASS (a knee and the profile's level mix on both placements)"
