#!/usr/bin/env bash
# Runs the benches whose PAPER-CHECK claims are too slow for the
# tier-1 ctest run: every bench/bench_* binary that bench/CMakeLists.txt
# does not register as a ctest with label `paper`.
# Those are the five figure sweeps (fig03/05/06/14/16, from half a
# minute to a few minutes each) plus the benches that take well over
# ~7 s on a 4-core host.
#
# A bench exits nonzero when one of its gating claims prints
# [DIVERGES] (bench/bench_util.h), so this script fails if any of them
# no longer reproduces the paper. Each bench's output goes to
# <build>/slow_benches/<bench>.txt, and its PAPER-CHECK lines are
# echoed.
#
# Usage: tools/run_slow_benches.sh [build-dir]   (default: build)
set -uo pipefail

cd "$(dirname "$0")/.."

tree="${1:-build}"
out="${tree}/slow_benches"
cmake --build "${tree}" -j "$(nproc 2>/dev/null || echo 4)" >/dev/null ||
    exit 1
mkdir -p "${out}"

registered="$(ctest --test-dir "${tree}" -N -L '^paper$' |
              sed -n 's/^ *Test *#[0-9]*: //p')"

failed=()
ran=0
for exe in "${tree}"/bench/bench_*; do
    bench="$(basename "${exe}")"
    if [[ ! -f "${exe}" || ! -x "${exe}" ]] ||
       grep -qx "${bench}" <<<"${registered}"; then
        continue
    fi
    ran=$((ran + 1))
    echo "== ${bench}"
    if "${exe}" >"${out}/${bench}.txt" 2>&1; then
        status=ok
    else
        status=FAILED
        failed+=("${bench}")
    fi
    grep -E '\[(REPRODUCED|DIVERGES)' "${out}/${bench}.txt"
    echo "   ${status} (full output: ${out}/${bench}.txt)"
done

if ((${#failed[@]} > 0)); then
    echo "slow benches failed: ${failed[*]}"
    exit 1
fi
echo "slow benches: all ${ran} reproduce"
