# Development entry points.  `make check` is the CI gate: a full build,
# the complete test suite (which runs the online protocol invariant
# checker on every harness sweep and litmus machine), a smoke run of
# the CLI checker, and — when ocamlformat is installed — a formatting
# check that fails on drift.

DUNE ?= dune

.PHONY: all build test check fmt fmt-check smoke chaos-smoke lock-smoke par-smoke obs-par-smoke adapt-smoke kv-smoke trace-lint perf perf-smoke perf-diff bench-selftest clean

all: build

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

# End-to-end: the CLI with trace + invariant checker enabled must
# produce a clean run and a parseable Chrome trace.
smoke: build
	$(DUNE) exec bin/mgs_run.exe -- --app jacobi --procs 8 --cluster 2 \
	  --size 32 --iters 2 --check --trace _build/smoke-trace.json
	@grep -q traceEvents _build/smoke-trace.json

# Chaos: the same app under a seeded lossy LAN must still terminate,
# verify, and report its retransmission work.  A fixed seed makes the
# run (and therefore this gate) deterministic.
chaos-smoke: build
	$(DUNE) exec bin/mgs_run.exe -- --app jacobi --procs 8 --cluster 2 \
	  --size 32 --iters 2 --check --seed 42 \
	  --faults drop=0.05,dup=0.05,delay=0.1:2000,reorder=0.05 \
	  > _build/chaos-smoke.out
	@cat _build/chaos-smoke.out
	@grep -q "net: retries=" _build/chaos-smoke.out
	@grep -q "verification: OK" _build/chaos-smoke.out

# Every lock kind under every coherence protocol, tiny: each point
# verifies its lock-protected counter and machine quiescence, so a pass
# means every algorithm still provides mutual exclusion.  The points
# rerun at --par 2, whose lock table must match par 1's.
lock-smoke: build
	$(DUNE) exec bench/main.exe -- lock-smoke > _build/lock-smoke.out
	@cat _build/lock-smoke.out
	@grep -q "lock-smoke: OK" _build/lock-smoke.out

# Job-count identity: a protocol x app sample must produce byte-
# identical reports at par 2 and 4 as at par 1, with the windowed
# multi-domain path really exercised.
par-smoke: build
	$(DUNE) exec bench/main.exe -- par-smoke > _build/par-smoke.out
	@cat _build/par-smoke.out
	@grep -q "par-smoke: OK" _build/par-smoke.out

# Observability under the parallel engine: with trace + metrics on,
# the engine keeps its domains and every merged export at par 2 and 4
# is byte-identical to par 1's.
obs-par-smoke: build
	$(DUNE) exec bench/main.exe -- obs-par-smoke > _build/obs-par-smoke.out
	@cat _build/obs-par-smoke.out
	@grep -q "obs-par-smoke: OK" _build/obs-par-smoke.out

# Adaptive per-page coherence: tiny static-vs-adaptive cells with the
# invariant checker on, adaptive reruns byte-identical, classifier
# engaged.
adapt-smoke: build
	$(DUNE) exec bench/main.exe -- adapt-smoke > _build/adapt-smoke.out
	@cat _build/adapt-smoke.out
	@grep -q "adapt-smoke: OK" _build/adapt-smoke.out

# Request-serving KV tier: a tiny run with the app verifier and the
# protocol invariant checker on, double-run determinism, par 1/2/4
# identity, and the adaptive layer provably engaging on serving traffic
# (thundering-herd cell reaches invalidate-on-read, contended cell
# migrates a home), plus a CLI run whose tail-latency table must render
# and one at kv's default size whose span store must keep every request.
kv-smoke: build
	$(DUNE) exec bench/main.exe -- kv-smoke > _build/kv-smoke.out
	@cat _build/kv-smoke.out
	@grep -q "kv-smoke: OK" _build/kv-smoke.out
	$(DUNE) exec bin/mgs_run.exe -- --app kv --procs 8 --cluster 2 \
	  --iters 40 --size 64 --check > _build/kv-cli.out
	@grep -q "kv.put" _build/kv-cli.out
	@grep -q "verification: OK" _build/kv-cli.out
	$(DUNE) exec bin/mgs_run.exe -- --app kv --procs 64 --cluster 16 > _build/kv-default.out
	@grep -q "verification: OK" _build/kv-default.out
	@! grep -q "span store full" _build/kv-default.out

# Validate every observability export against its own contract: run the
# CLI with the trace, span, and metrics exporters on, then lint the
# files (strict JSON, schemas, balanced spans, monotone sample times,
# merged-stream execution order, and — via --latency, matching the
# run's 1000-cycle LAN — cross-SSMP handler starts that respect the
# wire).  The chaos-smoke configuration adds retransmission events,
# net.retry spans and the net.* metric columns.  The tracked perf
# baseline is schema-checked along the way.
trace-lint: build
	$(DUNE) exec bin/mgs_run.exe -- --app jacobi --procs 8 --cluster 2 \
	  --size 32 --iters 2 --check --trace _build/lint-trace.json \
	  --spans _build/lint-spans.json --metrics _build/lint-metrics.json
	$(DUNE) exec bin/trace_lint.exe -- --latency 1000 \
	  --chrome _build/lint-trace.json \
	  --spans _build/lint-spans.json \
	  --metrics _build/lint-metrics.json \
	  --bench BENCH_sim.json
	$(DUNE) exec bin/mgs_run.exe -- --app water --procs 8 --cluster 2 \
	  --adapt --check --trace _build/lint-adapt-trace.json \
	  --metrics _build/lint-adapt-metrics.json
	$(DUNE) exec bin/trace_lint.exe -- --latency 1000 \
	  --chrome _build/lint-adapt-trace.json \
	  --metrics _build/lint-adapt-metrics.json
	$(DUNE) exec bin/mgs_run.exe -- --app jacobi --procs 8 --cluster 2 \
	  --size 32 --iters 2 --check --seed 42 \
	  --faults drop=0.05,dup=0.05,delay=0.1:2000,reorder=0.05 \
	  --trace _build/lint-chaos-trace.json --spans _build/lint-chaos-spans.json \
	  --metrics _build/lint-chaos-metrics.json
	$(DUNE) exec bin/trace_lint.exe -- --latency 1000 \
	  --chrome _build/lint-chaos-trace.json \
	  --spans _build/lint-chaos-spans.json \
	  --metrics _build/lint-chaos-metrics.json

# Perf baseline: full matrix -> BENCH_sim.json (slow; run by hand when
# chasing a regression), and a seconds-long smoke slice for CI that
# checks the harness still runs and emits the tracked fields.
perf: build
	$(DUNE) exec bench/perf.exe

perf-smoke: build
	$(DUNE) exec bench/perf.exe -- --quick -o _build/BENCH_smoke.json
	@grep -q events_per_s _build/BENCH_smoke.json
	@grep -q allocated_mb _build/BENCH_smoke.json

# Regression gate against the committed baseline: rerun the full matrix
# and fail on semantic drift (sim_events / sim_cycles changed) or a >10%
# allocation regression.  Wall-clock deltas are printed but never gate.
perf-diff: build
	$(DUNE) exec bench/perf.exe -- -o _build/BENCH_diff.json --diff BENCH_sim.json

# The repository benchmark checks itself (BENCHMARK.json against its
# metric table; every workload builds, runs, verifies and emits every
# metric).  It builds the unchanged perfbench/ against this tree, so an
# engine API change that breaks the benchmark fails here.  ~70 s.
bench-selftest:
	python3 perfbench/run.py --selftest

# Formatting is enforced only where the tool exists: the pinned dev
# environment has ocamlformat, minimal containers may not.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt || { echo "ocamlformat drift: run 'make fmt'"; exit 1; }; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt --auto-promote; \
	else \
	  echo "ocamlformat not installed"; exit 1; \
	fi

check: build test smoke chaos-smoke lock-smoke par-smoke obs-par-smoke adapt-smoke kv-smoke trace-lint perf-smoke perf-diff bench-selftest fmt-check
	@echo "check: OK"

clean:
	$(DUNE) clean
