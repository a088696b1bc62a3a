GO ?= go
FUZZTIME ?= 15s

# Comparing two revisions:
#
#   bash benchmark/run.sh --seed 1 --out benchmark/out/a.json   # at the parent
#   <apply change>
#   bash benchmark/run.sh --seed 1 --out benchmark/out/b.json
#   bash benchmark/run.sh --compare benchmark/out/a.json benchmark/out/b.json
#
# is the diffable PR-to-PR benchmark (the nested module in benchmark/, declared
# by BENCHMARK.json: four workloads, eleven end-to-end metrics with bounds, a
# per-layer budget); a claimed gain takes ten alternated pairs. Beside it:
#
#   make bench-check   allocs/op ceilings of the codec, the warm handshake and
#                      certificate issuance (internal/wire, internal/core,
#                      internal/cert; scripts/check_bench.sh)
#   make bench-failcheck  the benchmark over workloads × seeds, gated on
#                      `failed` 0, `correct` true and `frames_per_session`
#                      and `allocs_per_session` ceilings on every run
#   make capacity      the capacity knee of one ci-soak fleet, searched in
#                      process: the search ladder and the warm wave's
#                      sessions, seconds and level mix as JSON on stdout
#
# The BENCH_N.json files are frozen history, each in its PR's schema
# (EXPERIMENTS.md says what measures each one now).

.PHONY: build bench-build test race vet fmt-check deps-check docs-check verify cover cover-check fuzz chaos bench bench-obs bench-check bench-failcheck load soak capacity ops-smoke backend-smoke capacity-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark is a nested module outside ./..., so build/vet/test above
# cannot see a core API change break it; this can.
bench-build:
	cd benchmark && $(GO) vet . && $(GO) test .

# Race-enabled run of the packages with real concurrency: the telemetry
# registry is hammered from many goroutines, cert's verification cache and
# batch issuance fan out across worker pools, backend provisioning does the
# same, and core's Results/PendingSessions are read cross-goroutine.
race:
	$(GO) test -race ./internal/obs ./internal/core ./internal/netsim ./internal/cert ./internal/backend ./internal/transport ./internal/load ./internal/realtime ./internal/update ./internal/adversary ./internal/backendsvc ./internal/backendclient ./internal/wire ./internal/suite

vet:
	$(GO) vet ./...

# Every Go file, benchmark/ included, is gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

# Import-graph gate: what ships links only what it runs — argus-node no
# harness package, argus-ops obs + realtime + slo, argus-load no backend-service
# package, no *test package in a non-test file (scripts/check_deps.sh;
# DESIGN.md §1).
deps-check:
	scripts/check_deps.sh

# Stale-name gate: every backticked internal/… or cmd/… path and every
# pkg.Ident, pkg.TestX or pkg.FuzzX in README, DESIGN, EXPERIMENTS and the
# verify skill resolves (scripts/check_docs.sh).
docs-check:
	scripts/check_docs.sh

# Per-package statement coverage (the human-readable view).
cover:
	$(GO) test -count=1 -cover ./...

# Coverage gate: fails if any package drops below its recorded floor in
# scripts/coverage_baseline.txt. Rebuild floors (measured - 2pt margin) with
# `scripts/check_coverage.sh update` after intentionally adding/removing
# tests.
cover-check:
	scripts/check_coverage.sh

# Full gate: everything CI and the verify skill run.
verify: build vet fmt-check deps-check docs-check test bench-build race

# Codec and key-schedule fuzzing (one target per invocation: go test allows a single
# -fuzz pattern at a time). FUZZTIME=2m make fuzz for a longer campaign.
fuzz:
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecodeQUE2$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecodeRES2$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/suite -run='^$$' -fuzz='^FuzzMACMatchesStdlib$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/backend -run='^$$' -fuzz='^FuzzRestore$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/realtime -run='^$$' -fuzz='^FuzzTailDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/backendsvc -run='^$$' -fuzz='^FuzzWALReplay$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/obs -run='^$$' -fuzz='^FuzzMergeSnapshots$$' -fuzztime=$(FUZZTIME)

# Live ops-plane smoke: argus-load serves /events while the ci-soak profile
# runs and argus-ops tails it with the same SLO gates (scripts/ops_smoke.sh).
ops-smoke:
	scripts/ops_smoke.sh

# Backend-service smoke: a real argus-backend daemon serves /v1, argus-node
# processes source credentials from it over HTTP, then a SIGKILL + restart
# proves WAL replay end to end (scripts/backend_smoke.sh).
backend-smoke:
	scripts/backend_smoke.sh

# Capacity-search smoke: one tiny fleet under a coarse `argus-load -capacity`
# search, with a non-zero knee and the profile's level mix
# (scripts/capacity_smoke.sh, ~20 s).
capacity-smoke:
	scripts/capacity_smoke.sh

# Property/chaos harness: seeds × loss rates × levels, crash windows, Case 7
# under retransmission (internal/chaos).
chaos:
	$(GO) test ./internal/chaos -count=1 -v

# Paper tables/figures benchmarks (bench_test.go at the repo root).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Telemetry fast-path microbenchmarks (<50 ns/observe target).
bench-obs:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/obs

# Hot-path allocation gate: wire codec, warm-handshake and certificate
# issuance microbenchmarks against the committed allocs/op ceilings (scripts/check_bench.sh, ~10 s).
# Throughput/retransmission ceilings are gated at runtime by the load
# profiles' SLO blocks.
bench-check:
	scripts/check_bench.sh

# No more failures than the parent: the declared benchmark over its four
# workloads × seeds 1–5, failing unless every run reports `failed` 0,
# `correct` true and `frames_per_session` and `allocs_per_session` under
# their workload's ceilings — counts, so they do not hang on the host (scripts/bench_failcheck.sh, ~10 min;
# narrow it with WORKLOADS="churn" SEEDS="1 2"). A rare dead end in the protocol's state
# machine shows here, as a round that waits out the 8 s limit, while every
# median improves; run it on the parent and on the change.
bench-failcheck:
	scripts/bench_failcheck.sh

# Load/soak harness (cmd/argus-load). `load` is the deterministic CI-sized
# soak; `soak` is the 10k-subject headline profile.
load:
	$(GO) run ./cmd/argus-load -profile ci-soak

soak:
	$(GO) run ./cmd/argus-load -profile standard

# Capacity knee search: bracket-and-bisect over the open-loop arrival rate
# on a widened ci-soak topology (192 subjects), in this one process; the
# document goes to stdout. BENCH_10.json is frozen history (EXPERIMENTS.md).
capacity:
	$(GO) run ./cmd/argus-load -capacity -profile ci-soak -subjects 16 -cap-duration 3s

clean:
	$(GO) clean ./...
