#!/usr/bin/env bash
# Discovery accuracy gate: runs bench_table5_manual and bench_fig17_github
# at full size and compares every miss they report, one per dataset and
# search mode, with the known misses in tools/accuracy_misses.txt. Fails on
# any miss that is not listed; prints a notice for each listed miss that
# now passes, so its fix can take it off the list. Requires the tier-1
# build (./build/bench_table5_manual, ./build/bench_fig17_github). Run from
# anywhere; CI runs it after the test step (about 9 s on 4 cores).
set -euo pipefail
cd "$(dirname "$0")/.."

table5="$(./build/bench_table5_manual)"
fig17="$(./build/bench_fig17_github)"

# Each bench must have printed its whole table, or a parse that finds no
# miss would pass vacuously.
rows="$(awk '/\|/ && $(NF-2) ~ /^(ok|FAIL)$/' <<<"$table5" | wc -l)"
if [ "$rows" -ne 25 ] || ! grep -q '^  all ' <<<"$fig17"; then
  echo "accuracy gate: a bench did not print its full table" >&2
  echo "$table5" "$fig17" >&2
  exit 1
fi

observed="$(
  {
    awk '/\|/ && $(NF-2) ~ /^(ok|FAIL)$/ {
      if ($(NF-2) == "FAIL") print "table5 exhaustive " $1
      if ($(NF-1) == "FAIL") print "table5 greedy " $1
    }' <<<"$table5"
    awk '/^  \[(exhaustive|greedy) miss\]/ {
      mode = $1; sub(/^\[/, "", mode); print "fig17 " mode " " $3
    }' <<<"$fig17"
  } | sort -u)"
known="$(grep -v '^#' tools/accuracy_misses.txt | grep . | sort -u)"

fail=0
while IFS= read -r miss; do
  echo "new miss: $miss"
  fail=1
done < <(comm -23 <(echo "$observed") <(echo "$known") | grep .)
while IFS= read -r fixed; do
  echo "::notice::listed miss now passes: $fixed (remove it from tools/accuracy_misses.txt)"
done < <(comm -13 <(echo "$observed") <(echo "$known") | grep .)

if [ "$fail" -ne 0 ]; then
  grep -E 'successful extractions|^  all ' <<<"$table5
$fig17" >&2
  exit 1
fi
echo "accuracy OK: $(grep 'successful extractions' <<<"$table5");" \
  "Figure 17 $(grep '^  all ' <<<"$fig17" | awk '{print $2 " exhaustive, " $3 " greedy"}')"
