# Development entry points.  `make check` is the tier-1 gate: build +
# full test suite + markdown link lint, plus a formatting check when
# ocamlformat is available (the check is skipped, not failed, on
# machines without it).

.PHONY: all build test check fmt doc lint-md bench bench-check figures-quick fleet-quick speedup quickstart clean

MD_FILES := README.md DESIGN.md EXPERIMENTS.md CHANGES.md ROADMAP.md

all: build

build:
	dune build

test:
	dune runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

# API docs via odoc (the .mli comments in lib/heap, lib/core, lib/obs
# and lib/engine).  Gated on odoc being installed; CI installs it,
# fails on warnings, and uploads the rendered HTML as an artifact.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
		dune build @doc; \
		echo "docs: _build/default/_doc/_html/index.html"; \
	else \
		echo "odoc not installed; skipping doc build"; \
	fi

# Dead-link and dead-anchor lint over the prose (fails on any).
lint-md:
	dune exec tools/mdlint.exe -- $(MD_FILES)

check: build test lint-md fmt

# Hot-path microbenchmarks (DESIGN.md §9, §13-14): rewrites
# BENCH_hotpath.json, preserving its before/after baseline fields when
# present.  Benchmarks build with --profile release: dune's dev profile
# compiles .mli interfaces with -opaque, which blocks cross-module
# inlining into the accessor-heavy hot paths (tests still run dev).
bench:
	dune exec --profile release bench/microbench.exe -- --before BENCH_hotpath.json --out BENCH_hotpath.json

# Re-measure the kernels and fail if any regressed more than 15%
# against the committed BENCH_hotpath.json (the CI microbench gate;
# regressed kernels are re-measured before the verdict to shed
# scheduling noise).  Same release profile as `make bench` — the
# committed baseline and the gate must measure the same build.
bench-check:
	dune exec --profile release bench/microbench.exe -- --check BENCH_hotpath.json --tolerance 0.15 --retry 2

# Reduced figure grid on 2 worker domains, streaming one JSONL record
# per trial plus a Chrome trace: the CI perf-trajectory artifacts.  The
# trace covers the fig4 and headline trials only, with virtual
# timestamps; it overflows its 2^18-event ring, so which events it keeps
# depends on scheduling.  The wear-leveling ablation, the fleet and
# hybrid figures and the wear-lifetime sweep stream to their own
# derived sinks (results-wearlevel.jsonl / -fleet / -hybrid /
# -wearlife).  --verify runs the paranoid heap verifier in every trial
# except the fleet figure's, whose verified serving would take ten
# minutes, not one.
figures-quick:
	dune exec bench/main.exe -- figures-quick -j 2 --verify --out results.jsonl --trace trace.json

# The fleet-serving tail-latency figure alone, one JSONL record per
# device shard to results-fleet.jsonl (`figures-quick` also emits this
# file as part of the full grid).
fleet-quick:
	dune exec bench/main.exe -- fleet -j 2 --out results-fleet.jsonl

# Wall-clock of the reduced grid at -j 1 vs -j max (measures, not
# asserts, the parallelism win).
speedup:
	dune exec bench/main.exe -- speedup

quickstart:
	dune exec examples/quickstart.exe

clean:
	dune clean
