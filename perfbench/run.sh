#!/usr/bin/env bash
# Build the benchmark and the ucp daemon from source (release profile,
# build tree under .bench_build/), then run one workload:
#
#   bash perfbench/run.sh --workload sweep-lru --seed 1 --seconds 30 --trace 0
#
# The last line of stdout is the JSON result; build output goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build/dune"
mkdir -p .bench_build
if ! dune build --root . --build-dir "$build" --cache=disabled --profile release \
     ./perfbench/main.exe ./bin/ucp.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi

if [ -d .git ]; then
  PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
else
  PERFBENCH_COMMIT=none
fi
export PERFBENCH_COMMIT

exec "$build/default/perfbench/main.exe" "$@" \
  --ucp "$build/default/bin/ucp.exe" --out .bench_build/run
