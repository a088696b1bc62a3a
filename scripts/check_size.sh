#!/bin/sh
# Per-package size ratchet.
#
#   scripts/check_size.sh          compare against scripts/size_baseline.txt
#   scripts/check_size.sh update   re-count and rewrite the baseline
#
# The baseline records the non-test Go lines of each package directory
# outside benchmark/ (a nested module with its own history). A package
# that grows past its line, or a new package, fails the check: a change
# that grows a package raises that package's line in the same diff and
# says why. After a cut, update lowers the lines so the ground gained is
# kept.
set -eu

cd "$(dirname "$0")/.."
BASELINE=scripts/size_baseline.txt
MODE=${1:-check}

measure() {
	find . \( -path ./benchmark -o -path './.*' -o -name testdata \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print |
		xargs wc -l |
		awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1 }
			END { for (d in n) print d, n[d] }' |
		sort
}

case "$MODE" in
update)
	measure >"$BASELINE"
	echo "wrote $BASELINE ($(awk '{ s += $2 } END { print s }' "$BASELINE") lines)"
	;;
check)
	[ -f "$BASELINE" ] || { echo "missing $BASELINE — run scripts/check_size.sh update" >&2; exit 2; }
	status=0
	measure >/tmp/size.$$
	while read -r pkg got; do
		max=$(awk -v p="$pkg" '$1 == p { print $2 }' "$BASELINE")
		if [ -z "$max" ]; then
			echo "FAIL $pkg: $got lines, not in $BASELINE (a new package: record it)"
			status=1
		elif [ "$got" -gt "$max" ]; then
			echo "FAIL $pkg: $got lines, over its line of $max"
			status=1
		fi
	done </tmp/size.$$
	total=$(awk '{ s += $2 } END { print s }' /tmp/size.$$)
	rm -f /tmp/size.$$
	[ $status -eq 0 ] && echo "ok   $total non-test Go lines, no package over its line"
	exit $status
	;;
*)
	echo "usage: $0 [check|update]" >&2
	exit 2
	;;
esac
