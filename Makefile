# sx4bench — build, test, and regenerate the paper's results.

GO ?= go

.PHONY: all build vet fmt-check lint test test-short race race-full perfbench-check bench bench-baseline bench-capacity bench-capacity-short ci smoke serve-smoke warm-restart-smoke chaos faults capacity examples figures report clean goldens goldens-check fuzz-smoke cover

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any tracked Go file is not gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# sx4lint enforces the repo's determinism, layering and
# golden-stability invariants (see DESIGN.md, "Static analysis"). One
# run analyzes every package in one process, threading the
# interprocedural facts along the import graph.
SX4LINT_SRCS := go.mod $(wildcard cmd/sx4lint/*.go) $(shell find internal/analysis -name '*.go' -not -path '*/testdata/*' 2>/dev/null)

bin/sx4lint: $(SX4LINT_SRCS)
	$(GO) build -o $@ ./cmd/sx4lint

lint: bin/sx4lint
	./bin/sx4lint ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

race-full:
	$(GO) test -race ./...

# perfbench is a nested module (the repository benchmark), so the root
# ./... patterns never build it; vet and test it on its own, since it
# names target, serve, ncar and fleet APIs.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# What CI runs (see .github/workflows/ci.yml): the gofmt gate, vet
# (plus staticcheck and govulncheck when installed — CI installs them,
# local runs skip them gracefully), one sx4lint run, build, the full test suite under the race
# detector, the registry tests run twice in one process (a test that
# registers a machine without a guard fails there, not on someone's
# -count run), the benchmark module's vet and tests, the golden-artifact
# check, the cross-machine smoke sweep, the resilience smoke, the fleet
# capacity smoke (golden-pinned capacity artifact plus a live -fleet
# run), the capacity scaling smoke (1k cold scenarios, worker-count
# checksums cross-checked), the sx4d daemon smoke (live /healthz and
# golden-pinned /v1/run over real HTTP), the seeded chaos soak, the
# cache warm-restart smoke (SIGTERM → snapshot → reboot → hit), and
# every example program (examples/operations is the only caller of
# qcat, checkpoint and restart outside tests).
ci:
	$(MAKE) fmt-check
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI installs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI installs it)"; fi
	$(MAKE) lint
	$(GO) build ./...
	$(MAKE) race-full
	$(GO) test -count=2 ./internal/target
	$(MAKE) perfbench-check
	$(GO) run ./cmd/goldens
	$(GO) run ./cmd/ncarbench -machine all -short
	$(MAKE) faults
	$(MAKE) capacity
	$(MAKE) bench-capacity-short
	$(MAKE) serve-smoke
	$(MAKE) chaos
	$(MAKE) warm-restart-smoke
	$(MAKE) examples

# Cross-machine smoke: one line of scalar anchors per registered
# machine, exercising the Target registry end to end.
smoke:
	$(GO) run ./cmd/ncarbench -machine all -short

# Daemon smoke: boot sx4d on an ephemeral port, probe /healthz, and
# diff a live /v1/run response against the committed golden — the
# serve artifact verified over real HTTP instead of in-process.
bin/sx4d: go.mod $(wildcard cmd/sx4d/*.go) $(shell find internal -name '*.go' -not -path '*/testdata/*' 2>/dev/null)
	$(GO) build -o $@ ./cmd/sx4d

serve-smoke: bin/sx4d
	./scripts/serve_smoke.sh

# The resilient daemon client; built alongside sx4d for the smokes.
bin/sx4ctl: go.mod $(wildcard cmd/sx4ctl/*.go) $(shell find internal -name '*.go' -not -path '*/testdata/*' 2>/dev/null)
	$(GO) build -o $@ ./cmd/sx4ctl

# Warm-restart smoke: boot sx4d with a snapshot file, answer the
# canonical query through sx4ctl (a miss), SIGTERM the daemon (drain
# writes the snapshot), boot a second daemon from the same file, and
# require the same query to be an exact cache hit with a
# byte-identical body.
warm-restart-smoke: bin/sx4d bin/sx4ctl
	./scripts/warm_restart_smoke.sh

# Deterministic chaos soak: hammer an sx4d instance through a seeded
# fault-injecting middleware (latency, 503s, slow bodies, cancelled
# contexts) and assert the invariants — no lost responses, admission
# books balance, gauges return to zero, snapshot stays deterministic,
# no goroutine leaks — at every seed. Override the seed list with
# CHAOS_SEEDS=7,8,9.
CHAOS_SEEDS ?= 1,2,3
chaos:
	$(GO) test ./internal/chaos -race -count=1 -chaos.seeds $(CHAOS_SEEDS)

# Resilience smoke: the canonical fault schedule across sx4-1, sx4-32
# and c90 — the resilience artifact must match its golden, no machine
# may lose a job (last column all zeros), and every suite member must
# survive a seeded fault schedule end to end through the resilient
# retry loop (PRODLOAD needs 4 attempts).
faults:
	$(GO) run ./cmd/goldens -artifact resilience
	$(GO) run ./cmd/figures -exp resilience | awk 'NR>3 && NF>1 { if ($$NF != "0") { print "faults: lost jobs in row:", $$0; exit 1 } }'
	$(GO) run ./cmd/ncarbench -machine sx4-32 -run all -faults 1996

# Fleet capacity smoke: the canonical capacity artifact must match its
# golden (the 24-scenario Monte Carlo over sx4-32x2,c90), and a live
# -fleet run must answer — the multi-node engine exercised end to end,
# with no job lost (last column all zeros).
capacity:
	$(GO) run ./cmd/goldens -artifact capacity
	$(GO) run ./cmd/ncarbench -fleet sx4-32x2,c90 -scenarios 24 | awk 'NR>3 && NF>1 { if ($$NF != "0") { print "capacity: lost jobs in row:", $$0; exit 1 } }'

# Regenerate the golden artifacts in internal/check/testdata/goldens
# after an intentional model change; review `git diff` before
# committing. goldens-check verifies without writing (what CI runs).
goldens:
	$(GO) run ./cmd/goldens -update

goldens-check:
	$(GO) run ./cmd/goldens

# Run each native fuzz target briefly (no new corpus is committed);
# any panic or property violation fails the target. Minimization is
# capped at 100 runs per new input: at the default 60 s, a target that
# finds one new input can spend the rest of its budget minimizing it
# at 0 execs/s.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/check -run '^$$' -fuzz '^FuzzProgramFingerprint$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/check -run '^$$' -fuzz '^FuzzMachineRun$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/check -run '^$$' -fuzz '^FuzzReportParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzServeRequest$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzCacheSnapshotLoad$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzRunResponseRender$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzRunRequestFastPath$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzFaultPlanParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/superux -run '^$$' -fuzz '^FuzzRestart$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/target -run '^$$' -fuzz '^FuzzFPCacheBudget$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x

# Aggregate statement coverage across all packages.
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Record the benchmark baseline (including the serial-vs-parallel
# RunAll wall-clock pair) as BENCH_BASELINE.json.
bench-baseline:
	$(GO) test -run '^$$' -bench=. -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_BASELINE.json

# Record the fleet capacity scaling baseline — the scenario-memo-cold
# 10k-scenario Monte Carlo over the canonical fleet at 1 and GOMAXPROCS
# workers, with their ratio pinned as capacity_parallel_speedup — as
# BENCH_CAPACITY.json. bench-capacity-short is the CI smoke: 1k
# scenarios, one iteration, checksum cross-checked between variants.
bench-capacity:
	$(GO) test -run '^$$' -bench '^BenchmarkCapacityMonteCarlo$$' -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_CAPACITY.json

bench-capacity-short:
	$(GO) test -run '^$$' -bench '^BenchmarkCapacityMonteCarlo$$' -short -benchtime 1x .

# Regenerate every table and figure of the paper.
figures:
	$(GO) run ./cmd/figures -exp all

# The procurement-style findings document (all anchors, pass/fail).
report:
	$(GO) run ./cmd/figures -exp report

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/climate
	$(GO) run ./examples/ocean
	$(GO) run ./examples/procurement
	$(GO) run ./examples/multinode
	$(GO) run ./examples/operations

clean:
	$(GO) clean ./...
