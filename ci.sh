#!/usr/bin/env bash
# Continuous-integration entry point:
#
#   1. lint   — paraio_lint (one index pass + one per-file token pass, see
#               docs/LINTING.md) over every shipping source tree (src/,
#               bench/, examples/, tools/) and tests/ (seeded fixtures
#               and the nodiscard probe excluded), with docs/LINTING.md
#               checked against the compiled-in catalog; any unsuppressed
#               finding, warnings included, fails CI.
#   2. build  — the tier-1 verification (build + full test suite) in a plain
#               build, warnings promoted to errors.
#   3. verify — the concurrency-verification layer on its own: the
#               schedule-perturbation checker over the golden suite, the
#               deadlock- and race-detector tests, the same-instant
#               ordering suites (engine, event queue, sync primitives,
#               channel, task group, golden traces, fault injection),
#               since that order now spans the ladder queue and the FIFO
#               wake-up lane and decides where a same-instant fault lands,
#               and the sampler suite, since the engine's observer list
#               fixes the order in which observers hear each event.
#   4. obs    — paraio_stat on a small ESCAT run: the report must mention
#               the key signals and the emitted Chrome trace must be valid
#               JSON (paraio_stat revalidates it before writing and exits
#               nonzero otherwise).
#   5. perf   — a Release build of the self-harnessed kernel microbench
#               (bench_micro_sim --json, three invocations), regression-
#               gated by tools/check_bench.py against the committed
#               BENCH_micro_sim.json snapshot: any scenario whose BEST run
#               lands more than 20% below baseline fails.  The fault/
#               checkpoint bench (bench_faults) is gated the same way
#               against BENCH_faults.json, the instrumentation
#               microbench (bench_micro_pablo) against
#               BENCH_micro_pablo.json, and the data-structure
#               microbench (bench_micro_structs: striping, PPFS caches,
#               the obs span and sample stores) against
#               BENCH_micro_structs.json.
#               PARAIO_BENCH_SOFT=1 downgrades the gate to a warning for
#               hosts the snapshot was not recorded on (see docs/PERF.md).
#   6. ubsan  — a tier-1 subset rebuilt under UBSanitizer alone
#               (PARAIO_SANITIZE=undefined): catches arithmetic/shift/
#               bounds UB cheaply, and keeps a sanitizer prong alive on
#               hosts where ASan shadow memory is unavailable; the
#               checkpoint/crash-recovery suites ride along since log
#               checksum folding is integer-heavy, the SDDF codec
#               suites (Sddf, Consistency, GoldenTrace) since the
#               hex-float codec is shift- and bit-cast-heavy, and the obs
#               suites (ChromeTrace, FormatDouble, Registry, Sampler,
#               Tracer, ExperimentObs, ValidateJson) since the metrics
#               dump and Chrome exporter render into fixed-size
#               std::to_chars buffers.
#   7. asan   — the same suite under AddressSanitizer + UBSanitizer.
#
#   ./ci.sh            # all stages
#   ./ci.sh --fast     # lint + plain stage only
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 4)

run_stage() {
  local dir="$1"; shift
  echo "== configure ${dir} ($*) =="
  cmake -B "${dir}" -S . "$@"
  echo "== build ${dir} =="
  cmake --build "${dir}" -j "${jobs}"
  echo "== test ${dir} =="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

# --- lint stage (before any build: it needs only a compiler) ---------------
echo "== lint =="
lint_dir=build-lint
mkdir -p "${lint_dir}"
"${CXX:-c++}" -std=c++20 -O1 -o "${lint_dir}/paraio_lint" \
  tools/paraio_lint/lint.cpp tools/paraio_lint/main.cpp -I tools
"${lint_dir}/paraio_lint" --check-docs=docs/LINTING.md
# The only tree-wide run (src/obs included); the same arguments as the
# lint_tree ctest.
"${lint_dir}/paraio_lint" --werror --exclude=fixtures,nodiscard_probe \
  src bench examples tools tests

run_stage build -DPARAIO_WERROR=ON

# --- verify stage ----------------------------------------------------------
# The concurrency-verification layer, run as its own gate so a scheduling
# or deadlock regression is named directly instead of drowning in the full
# suite output: schedule-perturbation invariance over the golden
# configurations, the runtime deadlock and race detectors, the tie-break
# kernel, and same-instant event order.  That order spans two structures
# (the ladder queue and the FIFO wake-up lane of src/sim/event_queue.hpp),
# so the engine, queue, sync-primitive, channel, task-group and
# golden-trace suites ride here too, and so does the fault-injection suite:
# a planned fault is an ordinary kernel event, so it follows the queue's
# same-instant order.  Observer order (newest first) and the detector slots
# live in sim::Engine, so the race-detector, race-integration and sampler
# suites ride along as well.
echo "== verify: schedule perturbation + deadlock/race detection + event order =="
ctest --test-dir build --output-on-failure -j "${jobs}" \
  -R 'Perturb|DeadlockDetector|RaceDetector|RaceIntegration|Sampler|TieBreak|Engine|EventQueue|Sync|Semaphore|Barrier|Latch|Channel|TaskGroup|GoldenTrace|FaultInjection'

# --- fault stage -----------------------------------------------------------
# Fault injection & recovery (docs/FAULTS.md): exact-time delivery and plan
# checks, mid-run disk failure with the degraded-RAID penalty and bounded
# rebuild, ION crash with retry/backoff + failover, and the randomized
# fault-schedule properties.
echo "== fault: injection & recovery suite =="
ctest --test-dir build --output-on-failure -j "${jobs}" -R 'Fault|Recovery'

# --- crash-recovery stage --------------------------------------------------
# Checkpoint/restart (docs/CHECKPOINT.md): log-replay semantics, absorber
# ledger + backpressure, the two-barrier epoch protocol, the end-to-end
# ION-crash recovery scenario, and the randomized checkpoint properties.
# The fault/recovery bench report ships as a build artifact so a reviewer
# sees the measured degradation and checkpoint overhead for the exact tree
# under review.
echo "== crash-recovery: checkpoint/restart suite + recovery-stats artifact =="
ctest --test-dir build --output-on-failure -j "${jobs}" -R 'Ckpt|CrashRecovery'
cmake --build build -j "${jobs}" --target bench_faults
build/bench/bench_faults --json build/bench_faults_ci.json \
  | tee build/recovery_stats.txt
test -s build/recovery_stats.txt
grep -q 'ckpt-absorber' build/recovery_stats.txt
grep -q 'failover' build/recovery_stats.txt

# --- observability stage ---------------------------------------------------
echo "== obs: paraio_stat on small ESCAT =="
obs_out=build/obs-ci
mkdir -p "${obs_out}"
build/tools/paraio_stat/paraio_stat --app escat --nodes 8 --ions 4 \
  --fs ppfs --top 5 --sample-period 10 \
  --metrics "${obs_out}/escat_metrics.txt" \
  --chrome-trace "${obs_out}/escat_trace.json" | tee "${obs_out}/report.txt"
grep -q "busiest resources" "${obs_out}/report.txt"
grep -q "hit rate" "${obs_out}/report.txt"
grep -q "^counter " "${obs_out}/escat_metrics.txt"
grep -q '"traceEvents"' "${obs_out}/escat_trace.json"

if [[ "${1:-}" != "--fast" ]]; then
  # --- perf stage ----------------------------------------------------------
  # Release build (no sanitizers, no asserts) so the numbers are comparable
  # to the committed snapshot; only the one bench target is built.
  echo "== perf: kernel microbench vs BENCH_micro_sim.json =="
  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release -DBUILD_TESTING=OFF
  cmake --build build-perf -j "${jobs}" --target bench_micro_sim
  # Three separate invocations; the gate scores each scenario on the best
  # of them (minimum-time benchmarking across processes — a co-tenant can
  # slow one run, only a real regression slows all three).
  for rep in 1 2 3; do
    build-perf/bench/bench_micro_sim --json \
      "build-perf/bench_micro_sim.${rep}.json"
  done
  python3 tools/check_bench.py BENCH_micro_sim.json \
    build-perf/bench_micro_sim.1.json build-perf/bench_micro_sim.2.json \
    build-perf/bench_micro_sim.3.json

  # The fault/checkpoint bench is gated the same way against its own
  # committed snapshot; it covers the recovery paths (retry/backoff,
  # failover, absorber drain) the kernel microbench never exercises.
  echo "== perf: fault/checkpoint bench vs BENCH_faults.json =="
  cmake --build build-perf -j "${jobs}" --target bench_faults
  for rep in 1 2 3; do
    build-perf/bench/bench_faults --json \
      "build-perf/bench_faults.${rep}.json" > /dev/null
  done
  python3 tools/check_bench.py BENCH_faults.json \
    build-perf/bench_faults.1.json build-perf/bench_faults.2.json \
    build-perf/bench_faults.3.json

  # The instrumentation microbench: trace capture (a production-size
  # 530,768-event trace included), the real-time reductions and the SDDF
  # write/read round trip, gated the same way.
  echo "== perf: instrumentation microbench vs BENCH_micro_pablo.json =="
  cmake --build build-perf -j "${jobs}" --target bench_micro_pablo
  for rep in 1 2 3; do
    build-perf/bench/bench_micro_pablo --json \
      "build-perf/bench_micro_pablo.${rep}.json" > /dev/null
  done
  python3 tools/check_bench.py BENCH_micro_pablo.json \
    build-perf/bench_micro_pablo.1.json build-perf/bench_micro_pablo.2.json \
    build-perf/bench_micro_pablo.3.json

  # The data-structure microbench: stripe decomposition, the PPFS extent
  # set and block cache, and the obs span log and sampler change log.
  echo "== perf: data-structure microbench vs BENCH_micro_structs.json =="
  cmake --build build-perf -j "${jobs}" --target bench_micro_structs
  for rep in 1 2 3; do
    build-perf/bench/bench_micro_structs --json \
      "build-perf/bench_micro_structs.${rep}.json" > /dev/null
  done
  python3 tools/check_bench.py BENCH_micro_structs.json \
    build-perf/bench_micro_structs.1.json \
    build-perf/bench_micro_structs.2.json \
    build-perf/bench_micro_structs.3.json

  # --- ubsan stage ---------------------------------------------------------
  # UBSan alone: no shadow memory, ~no slowdown, so the tier-1 kernel subset
  # (event queue, engine, sync, hardware, striping, lint, SDDF codec, obs
  # export) runs as its own prong; UB that ASan's instrumentation happens to
  # mask still traps.
  echo "== ubsan: tier-1 subset under PARAIO_SANITIZE=undefined =="
  cmake -B build-ubsan -S . -DPARAIO_SANITIZE=undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPARAIO_WERROR=ON
  cmake --build build-ubsan -j "${jobs}"
  ctest --test-dir build-ubsan --output-on-failure -j "${jobs}" \
    -R 'EventQueue|Engine|Task|Sync|Semaphore|Mutex|Barrier|Latch|Disk|Raid|Network|Stripe|Lint|Ckpt|CrashRecovery|Sddf|Consistency|GoldenTrace|ChromeTrace|FormatDouble|Registry|Sampler|Tracer|ExperimentObs|ValidateJson'

  run_stage build-asan -DPARAIO_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARAIO_WERROR=ON
fi

echo "CI OK"
