# Developer entry points; CI runs the same targets.

GO ?= go

.PHONY: build test race bench relaybench relaybench-baseline vttifbench vttifbench-baseline scale chaos coordtest estbench fmt vet loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# Data-plane micro-benchmarks (forwarding, Wren ingest, record codec).
# CI archives this output as the bench-results artifact; before/after
# tables live in docs/OPERATIONS.md.
bench:
	$(GO) test -run '^$$' -bench 'Daemon|Monitor|Frame' -benchmem -count=5 \
		./internal/vnet/ ./internal/wren/ ./internal/pcap/

# Relay fast-path regression fence: rerun the transit-relay benchmarks
# and gate against the committed BENCH_RELAY.json (allocs exact, ns/op
# within 10%). Regenerate the baseline with `make relaybench-baseline`
# after an intentional change.
relaybench:
	$(GO) test -run '^$$' -bench 'TransitRelay' -benchmem -count=3 ./internal/vnet/ | \
		$(GO) run ./cmd/benchgate -baseline BENCH_RELAY.json -tolerance 0.10

relaybench-baseline:
	$(GO) test -run '^$$' -bench 'TransitRelay' -benchmem -count=3 ./internal/vnet/ | \
		$(GO) run ./cmd/benchgate -out BENCH_RELAY.json

# VTTIF heavy-traffic regression fence: striped Local ingest (vs the
# single-mutex baseline), the aggregator's 1M-flow report above its pair
# cap (sketch on; Shipped1M, at the shipped cap, has no baseline entry
# yet and is printed only), its steady state below the cap (exact table,
# no sketch), and the incremental warm/full solver, gated
# against the committed BENCH_VTTIF.json. ns/op gates at 30% (the matrix
# benches are memory-bound and noisier than the relay fast path) and
# allocs at-or-below baseline; the committed baseline carries alloc
# headroom because sketch admission churn is workload-order dependent.
# Regenerate with `make vttifbench-baseline` after an intentional change.
vttifbench:
	$(GO) test -run '^$$' -bench 'LocalAddFrame|AggregatorUpdate|Incremental' -benchmem -count=3 \
		./internal/vttif/ ./internal/vadapt/ | \
		$(GO) run ./cmd/benchgate -baseline BENCH_VTTIF.json -tolerance 0.30

vttifbench-baseline:
	$(GO) test -run '^$$' -bench 'LocalAddFrame|AggregatorUpdate|Incremental' -benchmem -count=3 \
		./internal/vttif/ ./internal/vadapt/ | \
		$(GO) run ./cmd/benchgate -out BENCH_VTTIF.json

# Full-size sharded-mesh scale scenario: 10k daemons / 100k VMs on the
# in-memory fabric, race detector on. The PR-sized variant (1k hosts)
# runs inside the normal test suite; this is the nightly job.
scale:
	SCALE_FULL=1 $(GO) test -race -shuffle=on -count=1 -timeout 30m \
		-run 'TestScale' -v ./internal/vnet/

# Fault-injection suites (docs/OPERATIONS.md "Chaos testing"). Seed and
# trace dir come from the environment: CHAOS_SEED pins the scenario seed,
# CHAOS_TRACE_DIR collects flight-recorder JSON for failed runs.
chaos:
	$(GO) test -race -shuffle=on -count=1 -run 'TestChaos' \
		./internal/chaos/ ./internal/control/ ./internal/vnet/ ./internal/wren/ \
		./internal/estimator/eval/

# Coordination-tier suite (DESIGN.md §10): store conformance on both
# backends, the store's differential test against a history model,
# bandwidth-map round-trip + fuzz regression corpus, the chaos scenarios,
# and TestCoordEndToEnd — all under the race detector with shuffled
# order. CHAOS_SEED/CHAOS_TRACE_DIR work here exactly as in `make chaos`.
coordtest:
	$(GO) test -race -shuffle=on -count=1 ./internal/wren/coord/

# Estimator benchmark (docs/ESTIMATORS.md): replays the seeded scenario
# suite through every registered estimator and regenerates the committed
# BENCH_ESTIMATORS.json. CI runs the same command with -baseline to fail
# on accuracy regressions.
estbench:
	$(GO) run ./cmd/estbench -seed 1 -out BENCH_ESTIMATORS.json

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# Non-test Go lines per package and in total, over tracked files, with the
# benchmark harness (cmd/meshbench, internal/bench) left out. ROADMAP item
# 11 asks every consolidation PR to quote this before and after in
# CHANGES.md.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^internal/bench/\|^cmd/meshbench/' | \
		xargs wc -l | awk '$$2 != "total" { dir = $$2; if (!sub("/[^/]*$$", "", dir)) dir = "."; \
			loc[dir] += $$1; total += $$1 } \
			END { for (d in loc) printf "%7d %s\n", loc[d], d | "sort -k2"; close("sort -k2"); \
			printf "%7d total\n", total }'
