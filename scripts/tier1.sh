#!/usr/bin/env bash
# Tier-1 verification. The repo has one build configuration; tier-1
# builds it three ways:
#   * default: the full build + test suite (which drives the `fuxi`
#     CLI on a generated incident bundle), the Figure 9 smoke against
#     its checked-in baseline, and the federated, serialize-on-send and
#     multi-tenant campaign sweeps;
#   * ASan/UBSan: the whole fuxi_tests suite (memory errors in failover
#     and fault-recovery paths are exactly what the chaos campaigns and
#     the crash/restart tests shake out; the wire fuzz runs here too);
#   * TSan: the parallel sweep engine (data races between concurrent
#     SimClusters are exactly what --jobs N adds).
# Observability layers turn off at runtime, not at build time; the
# ObsNeutrality tests in the default suite prove that detaching them
# changes no decision.
#
# The campaign legs run with --jobs 4: the sweep fans seeds across the
# work-stealing pool and each leg's stdout stays byte-identical to a
# serial run (the determinism battery in tests/sweep_test.cc asserts
# this; these legs exercise it end to end). The per-leg sweep wall-clock
# is printed to stderr so CI logs record the speedup.
#
# Usage: scripts/tier1.sh [--skip-asan] [--skip-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

skip_asan=0
skip_tsan=0
for arg in "$@"; do
  case "$arg" in
    --skip-asan) skip_asan=1 ;;
    --skip-tsan) skip_tsan=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "== tier-1: Figure 9 scheduling-time smoke vs checked-in baseline =="
./build/bench/bench_fig9_scheduling_time --smoke --json build/BENCH_fig9_smoke.json
python3 scripts/check_fig9_regression.py build/BENCH_fig9_smoke.json

echo "== tier-1: federated chaos sweep (shard crash-loops + spillover) =="
# Four shard masters on their own election leases, a replicated shard
# directory, and the submission router in the loop: shard crash-loops,
# directory-replica outages and the mid-window spillover wave must hold
# every per-shard AND global invariant on each seed.
./build/bench/bench_chaos_campaign --shards 4 --seeds 10 --jobs 4
./build/bench/bench_chaos_campaign --shards 4 --serialize-on-send --seeds 10 --jobs 4

echo "== tier-1: serialize-on-send campaign leg (wire codecs live) =="
# Every control-plane message round-trips through its fuxi::wire codec
# at Send; hashes must match the default in-memory-delivery mode (the
# SerializeOnSendIsInvisibleToTheSimulation test checks the equality,
# this leg sweeps more seeds in the ON configuration).
./build/bench/bench_chaos_campaign --serialize-on-send --seeds 10 --jobs 4

echo "== tier-1: hierarchical fair-share gates + multi-tenant chaos =="
# bench_fairshare pins starvation-freedom (1,000 Zipf-skewed tenants on
# a 2x-oversubscribed cluster) and the DRF dominant-share equilibrium.
# The tenant campaigns then run the fault battery with every master
# carrying a tenant tree — per-node conservation is checked inside
# every heavy invariant sweep — once with a two-level tree and once
# with a flat (depth-1) population.
./build/bench/bench_fairshare
./build/bench/bench_chaos_campaign --tenants 6 --seeds 10 --jobs 4
./build/bench/bench_chaos_campaign --tenants 6 --tenant-depth 1 --seeds 10 --jobs 4

echo "== tier-1: campaign verdicts vs checked-in golden =="
# The sweeps above diff stdout only within one build. This pins the
# verdicts across commits: every seed's PASS/FAIL line, hashes, replay
# digests and heavy-check counts, plus the seed-8 restore-bug violation
# text and time (see scripts/chaos_campaign_golden.sh).
scripts/chaos_campaign_golden.sh build/bench/bench_chaos_campaign |
  diff -u bench/baselines/chaos_campaign_stdout.txt -

if [[ "$skip_asan" == 1 ]]; then
  echo "== tier-1: ASan/UBSan pass skipped =="
else
  echo "== tier-1: full fuxi_tests suite under ASan/UBSan =="
  # Everything, not a filter: application-master crash/restart tests
  # free a ResourceClient while the simulator runs on, the invariant
  # monitor's violation text is built by lambdas that capture the
  # sweep's locals by reference, and event handles and resolved lock
  # entries point into tables that outlive or move under them.
  cmake -B build-asan -S . -DFUXI_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j"$(nproc)" --target fuxi_tests
  (cd build-asan && ./tests/fuxi_tests)
fi

if [[ "$skip_tsan" == 1 ]]; then
  echo "== tier-1: TSan pass skipped =="
else
  echo "== tier-1: parallel sweep engine under TSan =="
  # The work-stealing pool, the concurrent SimClusters and the parallel
  # differential suite — every place campaign threads touch shared
  # memory — under the race detector.
  cmake -B build-tsan -S . -DFUXI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$(nproc)" --target fuxi_tests bench_chaos_campaign
  (cd build-tsan &&
   ./tests/fuxi_tests \
     --gtest_filter='SweepRunnerTest.*:SweepDeterminism.*:SweepViolation.*:ConcurrentClusters.*:*DifferentialSweep*')
  ./build-tsan/bench/bench_chaos_campaign --seeds 10 --jobs 4
  ./build-tsan/bench/bench_chaos_campaign --shards 4 --seeds 10 --jobs 4
fi

echo "tier-1 OK"
