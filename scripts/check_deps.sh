#!/bin/sh
# Import-graph gate: what ships links only what it runs (DESIGN.md §1, "who
# may import whom"). Plain `go list`, nothing downloaded. Fails when
#
#   1. the daemon, ./cmd/argus-node, links a harness package
#      (internal/{load,fleetcoord,adversary,netsim,scale,chaos,exp}),
#   2. the reader, ./cmd/argus-ops, links any internal package other than
#      obs, realtime and slo,
#   3. internal/slo links any internal package other than obs, or
#   4. a non-test file under cmd/ or internal/ imports a package whose path
#      ends in "test" (a test-helper package in a shipped binary), or
#   5. the load harness, ./cmd/argus-load, links the backend service
#      (internal/{backendsvc,backendclient,scale}): it drives backend.Service
#      in process.
#
# Run it locally with `make deps-check`; `make verify` and CI include it.
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}
status=0

# A list that fails inside $(...) below would read as "no dependencies": fail here.
$GO list -deps ./cmd/argus-node ./cmd/argus-ops ./cmd/argus-load ./internal/slo >/dev/null

# internal_deps <package>: the internal packages it links (and is, if it is one).
internal_deps() {
	$GO list -deps "$1" | sed -n 's#^argus/internal/##p'
}

# allow_only <package> <name>...: every internal dependency is a listed one.
allow_only() {
	pkg=$1
	shift
	for dep in $(internal_deps "$pkg"); do
		ok=0
		for want in "$@"; do
			[ "$dep" = "$want" ] && ok=1
		done
		if [ $ok -eq 0 ]; then
			echo "FAIL $pkg links internal/$dep (allowed: $*)"
			status=1
		fi
	done
}

node_deps=$(internal_deps ./cmd/argus-node)
for dep in $node_deps; do
	case $dep in
	load | fleetcoord | adversary | netsim | scale | chaos | exp)
		echo "FAIL ./cmd/argus-node links internal/$dep (a harness package in the daemon)"
		status=1
		;;
	esac
done
allow_only ./cmd/argus-ops obs realtime slo
allow_only ./internal/slo obs slo

load_deps=$(internal_deps ./cmd/argus-load)
for dep in $load_deps; do
	case $dep in
	backendsvc | backendclient | scale)
		echo "FAIL ./cmd/argus-load links internal/$dep (the backend service in the load harness)"
		status=1
		;;
	esac
done

# .Imports is the import set of the package's non-test files.
testimports=$($GO list -f '{{$p := .ImportPath}}{{range .Imports}}{{$p}} {{.}}{{"\n"}}{{end}}' ./cmd/... ./internal/... |
	awk '$2 ~ /test$/ { print "FAIL " $1 " imports " $2 " from a non-test file" }')
if [ -n "$testimports" ]; then
	echo "$testimports"
	status=1
fi

if [ $status -eq 0 ]; then
	echo "deps check: ok (argus-node links $(echo "$node_deps" | wc -l | tr -d ' ') internal packages, none of the harness; argus-ops obs + realtime + slo; argus-load $(echo "$load_deps" | wc -l | tr -d ' '), none of the backend service)"
fi
exit $status
