# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-full bench-index bench-trace bench-daemon overload restart prop examples clean doc lint lint-json lint-sarif trace metrics analyze trace-analytics identity identity-diff

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

# Byte-identity set: what a behaviour-preserving change must leave
# byte-identical, written to _identity/ as <name>.out, <name>.err and
# <name>.code (stdout, stderr, exit code) per command, beside the files
# the commands write.  Every bwcluster subcommand runs at CI smoke size
# (E14's churn sweep is left out: its timing fields vary run to run),
# then snapshot -> restore --resnapshot, every --help=plain, and
# test/prop.exe.  `make identity-diff` below compares a change with its
# base.
identity:
	dune build bin/bwcluster.exe bin/bwclusterd.exe test/prop.exe
	rm -rf _identity
	mkdir _identity
	@B=_build/default/bin/bwcluster.exe; O=_identity; \
	run() { name=$$1; shift; "$$@" > $$O/$$name.out 2> $$O/$$name.err; echo $$? > $$O/$$name.code; }; \
	run accuracy $$B accuracy --csv $$O/accuracy.csv; \
	run relerr $$B relerr --csv $$O/relerr.csv; \
	run tradeoff $$B tradeoff --csv $$O/tradeoff.csv; \
	run tradeoff-ablate $$B tradeoff --ablate-ncut; \
	run treeness $$B treeness --csv $$O/treeness.csv; \
	run scalability $$B scalability --csv $$O/scalability.csv; \
	run embedding $$B embedding; \
	run oracle $$B oracle --csv $$O/oracle.csv; \
	run overhead $$B overhead --csv $$O/overhead.csv; \
	run routing $$B routing --csv $$O/routing.csv; \
	run robustness $$B robustness --hosts 20 --seed 1 --csv $$O/robustness.csv; \
	run recovery $$B robustness --recovery --hosts 24 --seed 1 --csv $$O/recovery.csv; \
	run restart $$B restart --dataset hp-small --hosts 64 --seed 3 \
	  --csv $$O/restart.csv --json $$O/restart.json; \
	run overload $$B overload --hosts 32 --seed 1 --csv $$O/overload.csv \
	  --json $$O/overload.json; \
	run trace-analytics $$B trace-analytics --hosts 24 --seed 1 \
	  --csv $$O/trace-analytics.csv --kinds-csv $$O/trace-analytics-kinds.csv; \
	run analyze $$B analyze --hosts 24 --seed 1; \
	run analyze-json $$B analyze --hosts 24 --seed 1 --json -o $$O/analyze.json; \
	run metrics $$B metrics --hosts 24 --seed 1; \
	run metrics-json $$B metrics --hosts 24 --seed 1 --json -o $$O/metrics.json; \
	run trace $$B trace --hosts 24 --seed 1 -o $$O/trace.jsonl; \
	run dynamic $$B dynamic --epochs 4; \
	run inspect $$B inspect; \
	run query $$B query --dataset hp-small -k 8 -b 40 --seed 5; \
	run gen $$B gen -o $$O/dataset.csv; \
	run export-tree $$B export-tree -o $$O/overlay; \
	run snapshot $$B snapshot --dataset hp-small --hosts 40 --seed 1 \
	  -o $$O/snapshot.bwcsnap; \
	run restore $$B restore -i $$O/snapshot.bwcsnap --resnapshot $$O/resnapshot.bwcsnap; \
	run help $$B --help=plain; \
	for c in $$($$B --help=plain | sed -n '/^COMMANDS/,/^COMMON OPTIONS/s/^       \([a-z-]*\) .*/\1/p'); do \
	  run help-$$c $$B $$c --help=plain; \
	done; \
	run help-bwclusterd _build/default/bin/bwclusterd.exe --help=plain; \
	for c in client serve; do \
	  run help-bwclusterd-$$c _build/default/bin/bwclusterd.exe $$c --help=plain; \
	done; \
	run prop _build/default/test/prop.exe
	@echo "identity set written to _identity/ ($$(ls _identity | wc -l) files)"

# The byte-identity gate between two revisions: extracts BASE (default
# origin/main) into a temporary directory outside the checkout, runs
# this Makefile's identity target there and here, and writes `diff -r`
# of the two sets to _identity.diff; the target fails when they differ.
# Both sides run the same commands, so an empty diff means every output
# of the set is byte-identical.  Example: make identity-diff BASE=HEAD~1
BASE ?= origin/main

identity-diff:
	@git rev-parse --verify --quiet "$(BASE)^{commit}" > /dev/null || \
	  { echo "identity-diff: no commit $(BASE)" >&2; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git archive --format=tar "$(BASE)" | tar -x -C "$$tmp" && \
	$(MAKE) --no-print-directory -C "$$tmp" -f "$(CURDIR)/Makefile" identity && \
	$(MAKE) --no-print-directory identity && \
	{ diff -r "$$tmp/_identity" _identity > _identity.diff; status=$$?; \
	  cat _identity.diff; exit $$status; }

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
