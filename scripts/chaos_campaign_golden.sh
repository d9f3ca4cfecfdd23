#!/usr/bin/env bash
# Prints the campaign verdicts that bench/baselines/chaos_campaign_stdout.txt
# pins across commits: the stdout of three sweeps (default, federated with
# serialize-on-send, multi-tenant) and of the seeded restore-bug replay of
# seed 8, which records one orphan violation and exits 1. For that replay
# the stderr dump follows its stdout, so the violation's text and time are
# pinned too; the `invariant_monitor.cc:LINE` log prefix is stripped
# because a line number is not a verdict.
#
# A change that keeps every audit verdict leaves the output byte-identical:
#   scripts/chaos_campaign_golden.sh build/bench/bench_chaos_campaign |
#     diff -u bench/baselines/chaos_campaign_stdout.txt -
# A change that means to alter a verdict regenerates the file in the same
# commit.
#
# Usage: scripts/chaos_campaign_golden.sh <bench_chaos_campaign binary>
set -euo pipefail
bin="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run() {
  echo "== bench_chaos_campaign $*"
  "$bin" "$@" --jobs 4
}
run --seeds 50
run --shards 4 --serialize-on-send --seeds 10
run --tenants 6 --seeds 10

# The replay writes its incident bundle into the working directory.
echo "== bench_chaos_campaign --seed-restore-bug --seed 8 (stdout, stderr)"
status=0
(cd "$tmp" && "$bin" --seed-restore-bug --seed 8 >stdout.txt 2>stderr.txt) ||
  status=$?
cat "$tmp/stdout.txt"
sed 's/invariant_monitor\.cc:[0-9]*//' "$tmp/stderr.txt"
echo "exit status $status"
