#!/usr/bin/env bash
# Builds dds_bench (Release) into build/dds_bench at the repository root,
# runs it with the given arguments, then prints the one-line JSON result
# (compare.py --line) as the last line of stdout:
#
#   bench/dds_bench/run.sh [--seed N] [--out DIR] [--trace] [--smoke]
#                          [--workloads a,b] [--seconds S] [--self-check]
#   bench/dds_bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Results go to DIR (default bench_results/dds_bench). Build output goes
# to stderr. A failed build exits nonzero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/dds_bench"

out="$root/bench_results/dds_bench"
args=()
while (($#)); do
  if [[ $1 == --out ]]; then
    out="$2"
    shift 2
  else
    args+=("$1")
    shift
  fi
done

if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target dds_bench -j "$(nproc)" >&2

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
rm -f "$out/results.json"
status=0
"$build/dds_bench" --commit "$commit" --out "$out" "${args[@]}" || status=$?
# --self-check writes no results.json, and neither does a run that failed
# before its end.
if [[ -f "$out/results.json" ]]; then
  python3 "$here/compare.py" --line "$out/results.json" || status=$?
fi
exit "$status"
