# Development entry points.  `make check` is the CI gate: a full build,
# the complete test suite (which runs the online protocol invariant
# checker on every harness sweep and litmus machine, and holds the
# determinism, lock, adaptive and KV contracts), the CLI runs that
# `trace-lint` checks end to end, the perf baseline diff, the paper's
# tables and figures against their record, the repository benchmark's
# self-check, and — when ocamlformat is installed — a
# formatting check that fails on drift.  Each contract has one gate.

DUNE ?= dune

.PHONY: all build test check fmt fmt-check trace-lint perf perf-diff claims-diff \
  bench-selftest clean

all: build

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

# End to end through the CLI, and every observability export against
# its own contract: each run must exit 0 with the invariant checker on
# (a violation exits 3, a failed verification is fatal), and the lint
# checks its files (strict JSON, schemas, balanced spans, monotone
# sample times, merged-stream execution order, and — via --latency,
# matching the run's 1000-cycle LAN — cross-SSMP handler starts that
# respect the wire).  The third run, on a seeded lossy LAN, adds
# retransmission events, net.retry spans and the net.* metric columns,
# and must still verify and report its retransmission work.  The
# fourth runs two SSMPs at zero LAN latency: no lookahead, so one job,
# and the one configuration where an event key may sort before its
# creator's (a zero-delay cross-shard event); its merged exports must
# lint like any other.  The tracked perf baseline is schema-checked
# along the way.
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
	  --metrics _build/lint-chaos-metrics.json > _build/lint-chaos.out
	@cat _build/lint-chaos.out
	@grep -q "net: retries=" _build/lint-chaos.out
	@grep -q "verification: OK" _build/lint-chaos.out
	$(DUNE) exec bin/trace_lint.exe -- --latency 1000 \
	  --chrome _build/lint-chaos-trace.json \
	  --spans _build/lint-chaos-spans.json \
	  --metrics _build/lint-chaos-metrics.json
	$(DUNE) exec bin/mgs_run.exe -- --app jacobi --procs 8 --cluster 2 \
	  --size 32 --iters 2 --delay 0 --check --trace _build/lint-zero-trace.json \
	  --spans _build/lint-zero-spans.json
	$(DUNE) exec bin/trace_lint.exe -- --latency 0 \
	  --chrome _build/lint-zero-trace.json \
	  --spans _build/lint-zero-spans.json

# Perf baseline: full matrix -> BENCH_sim.json (slow; run by hand when
# chasing a regression).
perf: build
	$(DUNE) exec bench/perf.exe

# Regression gate against the committed baseline: rerun the full matrix
# and fail on semantic drift (sim_events / sim_cycles changed) or a >10%
# allocation regression.  Wall-clock deltas are printed but never gate.
# The fresh JSON must carry every tracked field.
perf-diff: build
	$(DUNE) exec bench/perf.exe -- -o _build/BENCH_diff.json --diff BENCH_sim.json
	$(DUNE) exec bin/trace_lint.exe -- --bench _build/BENCH_diff.json

# The paper's tables and figures as `bench/main.exe` prints them,
# recorded in CLAIMS.txt: regenerate them under _build/ and fail on any
# difference.  Runs are deterministic and -j only spreads sweep points
# over domains, so the comparison is exact.  A change that moves a
# paper number copies _build/CLAIMS.txt over the record and says why.
CLAIMS_TARGETS = table3 table4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 summary hlrc-figs

claims-diff: build
	$(DUNE) exec bench/main.exe -- -j 2 $(CLAIMS_TARGETS) > _build/CLAIMS.txt
	diff -u CLAIMS.txt _build/CLAIMS.txt

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

check: build test trace-lint perf-diff claims-diff bench-selftest fmt-check
	@echo "check: OK"

clean:
	$(DUNE) clean
