#!/bin/sh
# End-to-end capacity-search smoke: one tiny fleet searched in process by
# `argus-load -capacity`. Passes only when
#
#   1. the search exits 0 (some rate sustained: the capacity session built
#      the fleet, ran its warm wave and at least one passing trial),
#   2. the emitted document carries a non-zero knee, and
#   3. the warm wave resolved the profile's level mix (its L1/L2/L3 pattern
#      with fellows).
#
# The tolerance is deliberately coarse (-cap-tol 0.5) and the windows short:
# this is a wiring check, not a benchmark.
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

"$TMP/argus-load" -capacity \
	-profile ci-soak -cells 2 -subjects 2 -objects 2 \
	-cap-start 25 -cap-tol 0.5 -cap-trials 4 -cap-duration 1s \
	-out "$TMP/capacity.json" 2>"$TMP/capacity.log" || {
	echo "capacity smoke: search failed" >&2
	cat "$TMP/capacity.log" >&2
	exit 1
}
KNEE=$(sed -n 's/^ *"knee_sessions_per_second": \([0-9.]*\).*/\1/p' "$TMP/capacity.json" | head -n 1)
if [ -z "$KNEE" ] || [ "$KNEE" = "0" ]; then
	echo "capacity smoke: no knee in the report (got '$KNEE')" >&2
	cat "$TMP/capacity.json" >&2
	exit 1
fi
# The by-level block (keys sorted by the encoder) squeezed onto one line.
LEVELS=$(sed -n '/"warm_sessions_by_level"/,/}/p' "$TMP/capacity.json" | tr -d ' \n' | sed 's/,$//')
WANT='"warm_sessions_by_level":{"1":2,"2":4,"3":2}'
if [ "$LEVELS" != "$WANT" ]; then
	echo "capacity smoke: warm wave resolved $LEVELS, want $WANT" >&2
	exit 1
fi
echo "capacity smoke: PASS (knee $KNEE sessions/s, warm $LEVELS)"
