#!/bin/sh
# Build mlpart and the benchmark from this checkout, then run the benchmark.
#
#   sh benchv2/run.sh run --workload ml2-small --seed 1 --seconds 25 --trace 0
#   sh benchv2/run.sh compare OLD.json NEW.json
#
# The release profile is what is measured: the default dev profile
# compiles with -opaque, which turns off cross-module inlining.  It builds
# into its own directory so it does not fight `dune build` over _build/,
# and with the dune cache off nothing is written outside the checkout.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/mlpart.ml ]; then
  echo "benchv2: needs a full checkout of the repository (bin/mlpart.ml not found)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --profile release --build-dir .bench_build \
  ./bin/mlpart.exe ./benchv2/main.exe >&2
exec ./.bench_build/default/benchv2/main.exe "$@"
