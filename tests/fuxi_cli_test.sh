#!/usr/bin/env bash
# Drives the `fuxi` incident-bundle CLI end to end: generates the seeded
# restore-bug bundle and a metrics-only sweep bundle, runs every
# subcommand and mode, and checks exit codes, including both error
# cases (an absent section exits 1, a section that does not parse
# exits 2) and malformed numeric arguments (usage, exit 2).
#
# Usage: fuxi_cli_test.sh <fuxi> <bench_chaos_campaign> <work-dir>
set -uo pipefail
fuxi="$1"
bench="$2"
mkdir -p "$3" && cd "$3" || exit 1
rm -f fuxi_incident_seed8.json sweep.json

failures=0
# expect STATUS CMD...: runs CMD (stdout discarded) and checks its exit
# status.
expect() {
  local want="$1"
  shift
  "$@" >/dev/null 2>&1
  local got=$?
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: '$*' exited $got, want $want"
    failures=$((failures + 1))
  fi
}
# expect_out PATTERN CMD...: CMD must exit 0 and print PATTERN.
expect_out() {
  local pattern="$1"
  shift
  "$@" >out.txt 2>&1
  local got=$?
  if [[ "$got" != 0 ]] || ! grep -q -- "$pattern" out.txt; then
    echo "FAIL: '$*' exited $got, want 0 and output matching '$pattern'"
    failures=$((failures + 1))
  fi
}

expect 1 "$bench" --seed 8 --seed-restore-bug
expect 0 "$bench" --seeds 2 --sweep-metrics sweep.json
bundle=fuxi_incident_seed8.json
for stale in fuxi_trace_seed8.json fuxi_audit_seed8.json \
             fuxi_metrics_seed8.csv fuxi_telemetry_seed8.json; do
  if [[ -e "$stale" ]]; then
    echo "FAIL: $stale written next to the bundle"
    failures=$((failures + 1))
  fi
done

expect_out "ambient span" "$fuxi" spans "$bundle"
expect_out "master.RequestRpc" "$fuxi" wire "$bundle"
expect_out "sweep.tasks" "$fuxi" wire sweep.json
expect_out "decision records" "$fuxi" explain "$bundle"
expect_out "== demand app2/s0 ==" "$fuxi" explain "$bundle" --demand 2
expect_out "== demand app2/s0 ==" "$fuxi" explain "$bundle" --demand 2 0
# The walkthrough's facts: #9 and #13 both place on m1, records name
# their ambient span, and m1's occupancy peaks at 2 units.
expect_out "^#9 .*span=[0-9]*:fuxi::master::RequestRpc" \
    "$fuxi" explain "$bundle" --machine 1
expect_out "^#13 t=16.000 place app2/s0" "$fuxi" explain "$bundle" --machine 1
expect 0 "$fuxi" explain "$bundle" --unplaced
expect_out "per-app utilization" "$fuxi" explain "$bundle" --timeline
expect_out "reservation timeline for m1" "$fuxi" explain "$bundle" \
    --timeline 1
expect_out "^ *1 |.*peak=2" "$fuxi" explain "$bundle" --gantt
expect 0 "$fuxi" explain "$bundle" --tenant
expect 0 "$fuxi" explain "$bundle" --tenant org0
expect_out "fuxi telemetry:" "$fuxi" dash "$bundle"
expect_out "master.grant_units" "$fuxi" dash "$bundle" --list
expect_out "tick" "$fuxi" dash "$bundle" --series master.grant_units
expect_out "stray-process-leak" "$fuxi" dash "$bundle" --events
expect_out "^series,kind" "$fuxi" dash "$bundle" --csv
expect_out "fuxi_telemetry_decoded" "$fuxi" dash "$bundle" --json
expect 1 "$fuxi" dash "$bundle" --series no.such.series

# An absent required section exits 1.
expect 1 "$fuxi" dash sweep.json
expect 1 "$fuxi" explain sweep.json
expect 1 "$fuxi" spans sweep.json
echo '{"auditRecords": []}' > audit_only.json
expect 1 "$fuxi" wire audit_only.json
# A present section that does not parse exits 2, also an optional one.
echo '{"telemetry": 5, "auditRecords": [], "traceEvents": {}}' > bad.json
expect 2 "$fuxi" dash bad.json
expect 2 "$fuxi" explain bad.json
expect 2 "$fuxi" spans bad.json
expect 2 "$fuxi" explain not_there.json
# Malformed arguments print the usage text and exit 2.
expect 2 "$fuxi" explain "$bundle" --machine abc
expect 2 "$fuxi" explain "$bundle" --demand 2x
expect 2 "$fuxi" explain "$bundle" --demand 2 0x
expect 2 "$fuxi" explain "$bundle" --timeline 1.5
expect 2 "$fuxi" explain "$bundle" --bogus
expect 2 "$fuxi" dash "$bundle" --series
expect 2 "$fuxi" spans "$bundle" extra.json
expect 2 "$fuxi" frobnicate "$bundle"
expect 2 "$fuxi"

if [[ "$failures" != 0 ]]; then
  echo "$failures fuxi CLI checks failed"
  exit 1
fi
echo "fuxi CLI checks OK"
