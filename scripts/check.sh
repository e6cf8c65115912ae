#!/usr/bin/env bash
# One-command verification driver.
#
#   scripts/check.sh          tier-1: release build, full test suite
#                             (includes the rf_lint checker + its selftest),
#                             a focused `serve`-label rerun, a build of the
#                             end-to-end benchmark program (perfbench/) and
#                             its unit tests, plus the enforced clang-tidy
#                             pass (skipped without the toolchain)
#   scripts/check.sh --full   tier-1, then the ASan+UBSan and TSan suites
#                             (separate build trees via CMakePresets.json;
#                             TSan also runs the `stress` label and reruns
#                             the `serve`, `observability` and `packed`
#                             labels), then 5-second untraced perfbench
#                             runs of both workloads
#   scripts/check.sh --lint-only
#                             fast path: build only rf_lint, run it over the
#                             tree plus its selftest, then the enforced
#                             clang-tidy pass — no test suite
#
# Every build tree is a preset from CMakePresets.json, so this script and
# `cmake --preset <name>` always agree on flags.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

full=0
lint_only=0
if [[ "${1:-}" == "--full" ]]; then full=1; shift; fi
if [[ "${1:-}" == "--lint-only" ]]; then lint_only=1; shift; fi
jobs="$(nproc 2>/dev/null || echo 2)"

if [[ "${lint_only}" == 1 ]]; then
  echo "==> [release] configure"
  cmake --preset release >/dev/null
  echo "==> [release] build rf_lint"
  cmake --build --preset release --target rf_lint -j "${jobs}"
  echo "==> rf_lint (src tests bench examples)"
  build/tools/rf_lint "${repo_root}" src tests bench examples
  echo "==> rf_lint selftest"
  build/tools/rf_lint --selftest "${repo_root}/tools/lint_fixture"
  echo "==> clang-tidy --enforce (skipped when not installed)"
  tools/run_clang_tidy.sh --enforce "${repo_root}/build"
  echo "==> lint checks passed"
  exit 0
fi

run_preset() {
  local preset="$1"
  echo "==> [${preset}] configure"
  cmake --preset "${preset}" >/dev/null
  echo "==> [${preset}] build"
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "==> [${preset}] test"
  ctest --preset "${preset}" -j "${jobs}"
}

run_preset release

# The serve suite exercises the admission queue, socket endpoint, and the
# loopback e2e path; rerun it by label with failure output so a daemon-path
# regression is loud even when the full pass above already covered it.
echo "==> [release] serve-label focused rerun"
ctest --preset release -L serve --output-on-failure -j "${jobs}"

# perfbench/ is its own CMake project: it compiles the library together
# with the benchmark program, whose workloads call the library's API. Build
# it here (into build-perfbench/) so an API change that breaks the program
# fails this check rather than the next benchmark run.
echo "==> [perfbench] configure"
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
echo "==> [perfbench] build"
cmake --build build-perfbench -j "${jobs}" \
  --target perfbench_main perfbench_test resuformer_cli
echo "==> [perfbench] test"
build-perfbench/perfbench_test

echo "==> clang-tidy --enforce (skipped when not installed)"
tools/run_clang_tidy.sh --enforce "${repo_root}/build"

if [[ "${full}" == "1" ]]; then
  run_preset asan
  # The mmap'd RFP3 loader hands out pointers into mapped pages; run the
  # serialize suite again by name under ASan so an out-of-bounds read of a
  # truncated mapping can never silently drop out of the full pass.
  echo "==> [asan] mmap-load (SerializeTest) focused rerun"
  ctest --preset asan -R 'SerializeTest' --output-on-failure -j "${jobs}"
  run_preset tsan
  # Cross-request batching is the most concurrency-dense code in the repo
  # (admission queue + worker pool + per-connection handler threads), and
  # the observability plane (lock-free metrics, rolling histograms, tracer
  # rings) is read concurrently by the kStats admin path, and every
  # concurrent parse shares one encoder, whose int8 Linears quantize their
  # weights on first use; rerun all three suites under TSan explicitly so
  # they cannot silently fall out of the stress label.
  echo "==> [tsan] serve+observability+packed focused rerun"
  ctest --preset tsan -L 'serve|observability|packed' --output-on-failure \
    -j "${jobs}"
  # Short untraced runs of both benchmark workloads, so perfbench's output
  # checks (batched outputs equal serial Parse, served replies equal direct
  # parses) and its quality floors run on every full check; a non-zero exit
  # fails the script. No traced run: its paper-dims closure check is
  # flaky on a host whose speed drifts between the two timed passes.
  for workload in batch_archive serve_open; do
    echo "==> [perfbench] ${workload} --seconds 5 --trace 0"
    python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 5 \
      --trace 0
  done
fi

echo "==> all checks passed"
