#!/bin/sh
# Build the end-to-end benchmark in the release profile and run it:
#
#   sh bench/e2e/run.sh --workload paper-static --seed 1 --seconds 25 --trace 0
#
# The build goes to .bench_build at the repository root, with dune's
# shared cache off so that nothing is written outside the checkout.  Exits
# non-zero without running anything if the tree does not build (for
# example when the library sources are missing).
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
dune build --root . --profile release --build-dir .bench_build --cache=disabled --display=quiet \
  ./bench/e2e/holes_bench.exe 1>&2
exec ./.bench_build/default/bench/e2e/holes_bench.exe "$@"
