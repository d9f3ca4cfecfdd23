#!/usr/bin/env bash
# Tier-1 verification: the full build + test suite, builds with causal
# tracing, the decision audit and the virtual-time telemetry compiled
# out (every FUXI_OBS_TRACING / FUXI_OBS_AUDIT / FUXI_OBS_TELEMETRY
# configuration must stay green, and the telemetry leg diffs sweep
# stdout ON vs OFF byte for byte), a fuxi_dash smoke against a
# generated dump, then the chaos campaign sweep again under ASan/UBSan (memory
# errors in failover and fault-recovery paths are exactly what the
# campaigns shake out) and the parallel sweep engine under TSan (data
# races between concurrent SimClusters are exactly what --jobs N adds).
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

echo "== tier-1: tracing compiled out (FUXI_OBS_TRACING=OFF) =="
cmake -B build-notrace -S . -DFUXI_OBS_TRACING=OFF >/dev/null
cmake --build build-notrace -j"$(nproc)" --target fuxi_tests
(cd build-notrace &&
 ./tests/fuxi_tests \
   --gtest_filter='*Obs*:*Trace*:*Audit*:NetworkTest.*:*ChaosCampaign.*:ScriptedChaosTest.*:*Differential*:*Golden*:*HintSort*')

echo "== tier-1: decision audit compiled out (FUXI_OBS_AUDIT=OFF) =="
# The differential suite still runs its audit-attached scheduler here
# (against the no-op log), so byte-identical results are proven for the
# OFF configuration too; the integration test self-skips.
cmake -B build-noaudit -S . -DFUXI_OBS_AUDIT=OFF >/dev/null
cmake --build build-noaudit -j"$(nproc)" --target fuxi_tests
(cd build-noaudit &&
 ./tests/fuxi_tests \
   --gtest_filter='*Obs*:*Trace*:*Audit*:*Timeline*:*ChaosCampaign.*:ScriptedChaosTest.*:*Differential*:*Golden*')

echo "== tier-1: telemetry compiled out (FUXI_OBS_TELEMETRY=OFF) =="
# The virtual-time sampler and SLO watchdog fold down to the no-op
# classes: no series, no health events, and — the bar that matters —
# every golden replay hash, grant-log digest and differential-oracle
# seed byte-identical to the ON build. The 25-seed stdout diff below
# proves the sampler never perturbed the event sequence end to end.
cmake -B build-notelemetry -S . -DFUXI_OBS_TELEMETRY=OFF >/dev/null
cmake --build build-notelemetry -j"$(nproc)" --target fuxi_tests bench_chaos_campaign
(cd build-notelemetry &&
 ./tests/fuxi_tests \
   --gtest_filter='*Telemetry*:*SloWatchdog*:*Obs*:*ChaosCampaign.*:ScriptedChaosTest.*:*Differential*:*Golden*:SweepDeterminism.*')
./build/bench/bench_chaos_campaign --seeds 25 --jobs 4 > build/SWEEP_telemetry_on.txt
./build-notelemetry/bench/bench_chaos_campaign --seeds 25 --jobs 4 > build-notelemetry/SWEEP_telemetry_off.txt
diff build/SWEEP_telemetry_on.txt build-notelemetry/SWEEP_telemetry_off.txt
echo "telemetry ON/OFF sweep stdout byte-identical"

echo "== tier-1: fuxi_dash smoke against a generated dump =="
# A single-seed replay writes fuxi_telemetry_seed3.json; the dashboard,
# the per-series table, the event timeline and both exports must all
# render non-empty output from it.
cmake --build build -j"$(nproc)" --target fuxi_dash >/dev/null
# grep without -q so it drains the pipe fully: -q exits at first match
# and the dashboard's remaining writes die of SIGPIPE under pipefail.
(cd build &&
 ../build/bench/bench_chaos_campaign --seed 3 >/dev/null 2>&1 &&
 test -s fuxi_telemetry_seed3.json &&
 ./tools/fuxi_dash fuxi_telemetry_seed3.json | grep "fuxi telemetry:" >/dev/null &&
 ./tools/fuxi_dash fuxi_telemetry_seed3.json --list | grep "master.grant_units" >/dev/null &&
 ./tools/fuxi_dash fuxi_telemetry_seed3.json --series master.grant_units | grep "tick" >/dev/null &&
 ./tools/fuxi_dash fuxi_telemetry_seed3.json --csv | grep "^series,kind" >/dev/null &&
 ./tools/fuxi_dash fuxi_telemetry_seed3.json --json | grep "fuxi_telemetry_decoded" >/dev/null &&
 echo "fuxi_dash smoke OK")

echo "== tier-1: planner compiled out (FUXI_PLANNER=OFF) =="
# The whole time-aware placement layer compiles down to the no-op
# planner: planning hints are dropped at the scheduler boundary, legacy
# traffic never constructs a planner, and every golden replay hash,
# grant-log digest and differential-oracle seed must stay byte-
# identical to the ON build. The planner chaos sweeps still run — the
# gang apps degrade to ordinary apps and the two planner invariants are
# trivially true.
cmake -B build-noplanner -S . -DFUXI_PLANNER=OFF >/dev/null
cmake --build build-noplanner -j"$(nproc)" --target fuxi_tests
(cd build-noplanner &&
 ./tests/fuxi_tests \
   --gtest_filter='*Golden*:*Differential*:PlannerTimelineTest.*:PlannerChaosCampaign.*:*ChaosCampaign.*:ScriptedChaosTest.*')

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
# The tenant campaign then runs the fault battery with every master
# carrying a tenant tree — per-node conservation is checked inside
# every heavy invariant sweep — and the flat-compatibility contract is
# diffed directly: a depth-1 population driven through the tenant-tree
# option vs the legacy quota_groups option must produce byte-identical
# sweep stdout.
./build/bench/bench_fairshare
./build/bench/bench_chaos_campaign --tenants 6 --seeds 10 --jobs 4
./build/bench/bench_chaos_campaign --tenants 6 --tenant-depth 1 --seeds 10 --jobs 4 > build/SWEEP_tenants_tree.txt
./build/bench/bench_chaos_campaign --tenants 6 --tenant-depth 1 --tenants-legacy --seeds 10 --jobs 4 > build/SWEEP_tenants_flat.txt
diff build/SWEEP_tenants_tree.txt build/SWEEP_tenants_flat.txt
echo "flat-vs-tree tenant sweep stdout byte-identical"

if [[ "$skip_asan" == 1 ]]; then
  echo "== tier-1: ASan/UBSan pass skipped =="
else
  echo "== tier-1: chaos campaign + wire fuzz under ASan/UBSan =="
  # InvariantMonitorTest is here because the monitor's violation text is
  # built by lambdas that capture the sweep's locals by reference.
  cmake -B build-asan -S . -DFUXI_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j"$(nproc)" --target fuxi_tests
  (cd build-asan &&
   ./tests/fuxi_tests \
     --gtest_filter='*ChaosCampaign.*:Shard*:ScriptedChaosTest.*:InvariantMonitorTest.*:Wire*:NetworkTest.*:Planner*')
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
