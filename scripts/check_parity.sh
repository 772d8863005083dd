#!/usr/bin/env bash
# Parity check: runs a reproduction bench with --csv-dir into a temp
# directory and byte-compares every file the checked-in baseline has. Most
# baselines under tests/baselines/ were captured before the layered workload
# engine landed, so a pass proves the closed-loop paths still produce
# bit-identical tables. The fleet scenario's open-loop SLO tables
# (fleet_scenario_slo*.{csv,json}) were added later, captured at the commit
# before open-loop arrivals became kernel events. Files the bench emits that
# the baseline lacks are ignored.
#
# Usage: check_parity.sh <baseline-dir> <bench-binary> [bench args...]
set -euo pipefail

BASE="${1:?usage: check_parity.sh <baseline-dir> <bench-binary> [args...]}"
shift

TMP="$(mktemp -d /tmp/pas-parity.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

"$@" --csv-dir "$TMP" >/dev/null

status=0
for f in "$BASE"/*; do
  name="$(basename "$f")"
  if ! cmp -s "$f" "$TMP/$name"; then
    echo "PARITY MISMATCH: $name" >&2
    diff -u "$f" "$TMP/$name" >&2 | head -20 || true
    status=1
  fi
done
exit $status
