#!/usr/bin/env bash
# bench_failcheck.sh — no more failures than the parent, and no more frames
# or allocations than the work takes.
#
# The benchmark contract rejects a change on which a larger share of
# operations fails than at the parent, and the parent fails none: a single
# round that waits out roundLimit (8 s) in one run of twenty is a rejection.
# A state-machine change can introduce exactly that — a rare dead end only
# `churn`'s mid-round Refresh reaches — while every median improves. This runs
# the declared benchmark over workloads × seeds, reads each run's last stdout
# line, and exits non-zero unless every run has `failed == 0` and
# `correct == true`; for a run that does not it prints `failures_by_kind` from
# the result file. It edits nothing under benchmark/: results go to
# .bench_build/failcheck (git-ignored).
#
# It also prints each run's `frames_per_session` and `bytes_per_session` and
# fails a run whose `frames_per_session` exceeds its workload's ceiling below.
# A session's work is 3.0 frames; a subject's every eighth round is blind and
# rebroadcasts QUE1 whoever answered, ≈ 0.3 more; `lossy` and `churn` add
# their recoveries and cold replacement subjects. The counts spread under 1 %
# across seeds and do not hang on the host's speed, so the ceilings sit 6–8 %
# above what was measured (`warm`/`cold` 3.38–3.39, `lossy` 3.50–3.54, `churn`
# 4.61–4.64): rebroadcasting to nobody in particular every round, as before
# ISSUE 24 (5.22 / 5.22 / 5.25 / 6.46), cannot come back unnoticed.
#
# It gates `allocs_per_session` the same way. `warm` and `cold` differ only in
# their verify caches, and a resumed session looks nothing up, so both measure
# 7.45–7.68 (15 runs) and share the ceiling 8.3; the `lossy` and `churn`
# ceilings sit 8–10 % above the most they measured (6.92–7.03, 12 runs, and
# 10.7–11.3, 5 runs). A session keeps its frames, its two records and its two
# AES key schedules; each wheel resets the one timer it owns. `lossy` read
# 11.0–11.8 while a lost frame waited 250 ms for its retransmission and each
# wheel armed a `time.AfterFunc` whenever its earliest deadline moved earlier.
# The ceilings were 25 / 30.5 / 32.5 (measured ≈ 20.4 / 26.0 / 24.5) while
# every frame decoded onto the heap, compute continuations closed over their
# sessions, nonces, the hint block and the wheel's closures were allocations
# of their own, and 46 / 49 / 54 while session keys, MACs, tickets and wheel
# entries were too: any of those coming back, a resumed RES2 that
# admin-verifies its PROF_O again (`cold` read 84 while every one did), or any
# per-session allocation the size of a credential check, fails it.
#
#   scripts/bench_failcheck.sh                       # 4 workloads × seeds 1–5, ~10 min
#   WORKLOADS=churn SEEDS="1 2" scripts/bench_failcheck.sh
#
# The table it prints (markdown) is what a PR pastes into CHANGES.md, for the
# parent and for the change.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOADS=${WORKLOADS:-"warm cold lossy churn"}
SEEDS=${SEEDS:-"1 2 3 4 5"}
out=.bench_build/failcheck
mkdir -p "$out"

# field <json> <name>: the scalar value of a top-level "name": of one JSON line.
field() {
	printf '%s' "$1" | sed -n "s/.*\"$2\":\([^,}]*\).*/\1/p"
}

# metric <json> <name>: the value of metrics.<name> of the same line, 2 places.
metric() {
	printf '%s' "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" | awk '{ printf "%.2f", $1 }'
}

# max_frames <workload>: the frames_per_session ceiling (none for a workload
# the benchmark may grow later).
max_frames() {
	case "$1" in
	warm | cold) echo 3.6 ;;
	lossy) echo 3.8 ;;
	churn) echo 4.9 ;;
	esac
}

# max_allocs <workload>: the allocs_per_session ceiling, likewise.
max_allocs() {
	case "$1" in
	warm | cold) echo 8.3 ;;
	lossy) echo 7.6 ;;
	churn) echo 12.5 ;;
	esac
}

# over <value> <ceiling>: true when a ceiling is set and the value is missing
# or above it.
over() {
	[ -n "$2" ] && ! awk -v v="$1" -v c="$2" 'BEGIN { exit !(v != "" && v <= c) }'
}

status=0
rows=""
for w in $WORKLOADS; do
	for s in $SEEDS; do
		file="$out/$w-$s.json"
		if ! log=$(bash benchmark/run.sh --workload "$w" --seed "$s" --seconds 25 --trace 0 --out "$file" 2>"$out/$w-$s.err"); then
			echo "bench_failcheck: $w seed $s: the benchmark exited non-zero" >&2
			tail -n 5 "$out/$w-$s.err" >&2
			rows+="| $w | $s | - | - | - | - | - | - | run failed |"$'\n'
			status=1
			continue
		fi
		last=$(printf '%s\n' "$log" | tail -n 1)
		correct=$(field "$last" correct)
		attempted=$(field "$last" attempted)
		failed=$(field "$last" failed)
		slowest=$(printf '%s\n' "$log" | sed -n 's/.*closed-phase round latency.*max \([0-9.]* ms\).*/\1/p' | tail -n 1)
		frames=$(metric "$last" frames_per_session)
		bytes=$(metric "$last" bytes_per_session)
		allocs=$(metric "$last" allocs_per_session)
		rows+="| $w | $s | $attempted | $failed | $correct | $frames | $bytes | $allocs | ${slowest:--} |"$'\n'
		if [ "$failed" != 0 ] || [ "$correct" != true ]; then
			status=1
			echo "bench_failcheck: $w seed $s: failed=$failed correct=$correct; failures_by_kind:" >&2
			# The result file is indented JSON: print the object that follows the key.
			sed -n '/"failures_by_kind"/,/}/p' "$file" >&2
		fi
		if ceiling=$(max_frames "$w") && over "$frames" "$ceiling"; then
			status=1
			echo "bench_failcheck: $w seed $s: frames_per_session ${frames:-missing} > ceiling $ceiling" >&2
		fi
		if ceiling=$(max_allocs "$w") && over "$allocs" "$ceiling"; then
			status=1
			echo "bench_failcheck: $w seed $s: allocs_per_session ${allocs:-missing} > ceiling $ceiling" >&2
		fi
	done
done

echo "| workload | seed | attempted | failed | correct | frames/session | bytes/session | allocs/session | slowest closed-phase round |"
echo "|---|---|---|---|---|---|---|---|---|"
printf '%s' "$rows"
if [ "$status" -ne 0 ]; then
	echo "bench_failcheck: FAIL — at least one run failed an operation, the oracle or a frames/allocs ceiling" >&2
	exit 1
fi
echo "bench_failcheck: every run has failed 0, correct true, and frames_per_session and allocs_per_session under their ceilings"
