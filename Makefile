# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-full bench-index bench-trace bench-daemon overload restart prop examples clean doc lint lint-json lint-sarif trace metrics analyze trace-analytics

all: build

build:
	dune build @all

test:
	dune runtest

# bwclint: determinism/robustness/complexity invariants (see DESIGN.md).
# Per-file rules plus whole-program passes (interprocedural determinism
# taint, domain-safety audit); any finding fails.  Inline allow comments
# with a reason are the one audited escape hatch.
lint:
	dune exec bin/bwclint.exe -- lib bin bench test examples

lint-json:
	dune exec bin/bwclint.exe -- --json bwclint-report.json lib bin bench test examples

lint-sarif:
	dune exec bin/bwclint.exe -- --sarif bwclint.sarif lib bin bench test examples

test-verbose:
	dune runtest --force --no-buffer

# deterministic observability surfaces (see DESIGN.md, "Observability"):
# a JSONL event trace and a metrics-registry snapshot of the default
# fault scenario; same seed => byte-identical output
trace:
	dune exec bin/bwcluster.exe -- trace --out trace.jsonl

metrics:
	dune exec bin/bwcluster.exe -- metrics

# causal analytics over the default recovery scenario: happens-before
# critical path + byte attribution; E16 gates on per-kind sends summing
# exactly to the engine counter (exit 3 on violation)
analyze:
	dune exec bin/bwcluster.exe -- analyze

trace-analytics:
	dune exec bin/bwcluster.exe -- trace-analytics

bench:
	dune exec bench/main.exe

bench-full:
	BWC_BENCH_FULL=1 dune exec bench/main.exe

# E14 only: churn the incremental index, emit BENCH_index.json, fail on
# any incremental-vs-rebuild divergence or failed find witness
bench-index:
	dune exec bench/main.exe -- --index-only

# E16 only: trace-sink overhead arms (off / ring / unbounded), emit
# BENCH_trace_overhead.json, fail if tracing perturbs the send counter
bench-trace:
	dune exec bench/main.exe -- --trace-only

# E17 only: daemon offered-load sweep (admission/deadlines/degradation),
# emit BENCH_daemon.json, fail if goodput collapses past the plateau or a
# replay diverges
bench-daemon:
	dune exec bench/main.exe -- --daemon-only

# E17 via the CLI: prints the sweep table, exits 3 on gate failure
overload:
	dune exec bin/bwcluster.exe -- overload

# E15: snapshot round trip (byte-identity checked with cmp) plus the
# warm-vs-cold restart experiment with its acceptance gate (exit 3)
restart:
	dune exec bin/bwcluster.exe -- snapshot --dataset hp-small --hosts 40 -o system.bwcsnap
	dune exec bin/bwcluster.exe -- restore -i system.bwcsnap --resnapshot system-2.bwcsnap
	cmp system.bwcsnap system-2.bwcsnap
	dune exec bin/bwcluster.exe -- restart --dataset hp-small --hosts 64 --seed 3 --json restart.json

# seeded property harness (differential churn + Alg1-vs-oracle); replay
# a failure with BWC_PROP_SEED=<seed> BWC_PROP_CASES=<cases> make prop
prop:
	dune exec test/prop.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/desktop_grid.exe
	dune exec examples/cdn_distribution.exe
	dune exec examples/latency_cluster.exe
	dune exec examples/dynamic_network.exe
	dune exec examples/replica_placement.exe

doc:
	dune build @doc

clean:
	dune clean
