#!/usr/bin/env bash
# Memory soak for datamaran_cli, gated on the child's peak RSS. One
# deterministic generator (counter-based, no RNG) feeds both modes: ~45% of
# the bytes are format A ("n,n,n"), a 10% alternating A/B transition band,
# then format B ("n|n|n|n") to the end.
#
# Stream mode (default): pipe a large drifting stream (default 200 MB)
# through `datamaran_cli --follow=-`. The run must survive a
# drift-triggered template evolution mid-stream, and peak RSS must stay
# O(window), independent of stream length, far below the bytes streamed:
# under a fixed budget (default 32 MiB; measured ~6 MB). Fails on a
# nonzero CLI exit, a missing evolution, or peak RSS above the budget.
#
# Batch mode (--batch): write the generator's output to a file (default
# 64 MiB) and to one a quarter that size (16 MiB), and run
# `datamaran_cli FILE --out --summary-json --threads=2` once on each.
# Batch reads the file through a 256 KiB window — the discovery sample
# straight from its sampled ranges, extraction one window-sized segment at
# a time — so no memory grows with the file: the peak must stay under a
# fixed budget (default 16 MiB; measured ~7.5 MB at both sizes), and the
# large file's peak may exceed the small one's by at most 2 MiB, so any
# term that grows with the file fails even below the budget. Fails on a
# nonzero CLI exit, a summary error, no extracted records, a peak over the
# budget, or a large-file peak over the small-file peak + 2 MiB.
#
#   tools/stream_soak.sh [total_bytes] [rss_budget_kb]
#   tools/stream_soak.sh --batch [file_bytes] [budget_kb]
#
# Requires the tier-1 build (./build/datamaran_cli) and python3 (used
# only to read the child's peak RSS via getrusage — GNU time is not
# installed everywhere).
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=stream
if [ "${1:-}" = "--batch" ]; then
  MODE=batch
  shift
fi
if [ "$MODE" = batch ]; then
  TOTAL_BYTES="${1:-67108864}"  # 64 MiB; the small run is a quarter of it
  BUDGET_KB="${2:-16384}"       # 16 MiB, whatever the file size
  GROWTH_KB=2048                # large-file peak over the small-file peak
else
  TOTAL_BYTES="${1:-200000000}"
  BUDGET_KB="${2:-32768}"   # 32 MiB — measured peak is ~6 MB, flat in stream length
fi

if [ ! -x build/datamaran_cli ]; then
  echo "stream_soak: build/datamaran_cli not found (run the tier-1 build first)" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# Writes the generator's output for a total of $1 bytes to stdout.
generate() {
  awk -v total="$1" 'BEGIN {
    b = 0; i = 0;
    a_end = total * 0.45; mix_end = total * 0.55;
    while (b < total) {
      if (b < a_end)        fmt = 0;
      else if (b < mix_end) fmt = i % 2;
      else                  fmt = 1;
      if (fmt == 0) line = i "," (i * 7 % 1000) "," (i % 97);
      else          line = i "|" (i % 89) "|" (i * 3 % 1000) "|" (i % 7);
      print line;
      b += length(line) + 1; i++;
    }
  }'
}

# Runs the CLI with the given arguments and this function's stdin, writing
# its stdout to $workdir/stdout.txt; the python3 wrapper reports the child's
# peak RSS (wait4's ru_maxrss, in kB on Linux) as peak_rss_kb=N in
# $workdir/rss.txt. ru_maxrss also counts the RSS of the address space the
# child was exec'd from, so the wrapper forks from a bare interpreter (-I
# -S, only `os` imported, ~5 MB) rather than through `subprocess`, which
# would put a floor of ~10-14 MB under every measurement. Sets $peak_kb;
# exits on a CLI failure.
run_cli() {
  local status
  set +e
  python3 -I -S -c '
import os, sys
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(f"peak_rss_kb={usage.ru_maxrss}", file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
' ./build/datamaran_cli "$@" > "$workdir/stdout.txt" 2> "$workdir/rss.txt"
  status=$?
  set -e
  if [ "$status" -ne 0 ]; then
    echo "stream_soak: CLI exited $status" >&2
    cat "$workdir/rss.txt" >&2
    exit 1
  fi
  cat "$workdir/stdout.txt"
  peak_kb="$(sed -n 's/^peak_rss_kb=//p' "$workdir/rss.txt")"
  if [ -z "$peak_kb" ]; then
    echo "stream_soak: could not read peak RSS" >&2
    cat "$workdir/rss.txt" >&2
    exit 1
  fi
}

# Batch extraction of a generated file of $1 bytes; sets $peak_kb and
# exits on a failed run, a summary error or no extracted records.
run_batch() {
  generate "$1" > "$workdir/input.log"
  local file_bytes
  file_bytes="$(wc -c < "$workdir/input.log")"
  echo "stream_soak: batch extraction of ${file_bytes} bytes ..."
  rm -rf "$workdir/out"
  run_cli "$workdir/input.log" --out="$workdir/out" \
    --summary-json="$workdir/summary.json" --threads=2 < /dev/null
  rm -f "$workdir/input.log"
  if ! grep -q '"error": ""' "$workdir/summary.json"; then
    echo "stream_soak: FAIL — summary reports an error" >&2
    cat "$workdir/summary.json" >&2
    exit 1
  fi
  local records
  records="$(sed -n 's/^ *"records": \([0-9]*\).*/\1/p' "$workdir/summary.json")"
  if [ "${records:-0}" -lt 1 ]; then
    echo "stream_soak: FAIL — no records extracted" >&2
    cat "$workdir/summary.json" >&2
    exit 1
  fi
  echo "stream_soak: peak RSS ${peak_kb} kB (${records} records;" \
       "budget ${BUDGET_KB} kB)"
  if [ "$peak_kb" -gt "$BUDGET_KB" ]; then
    echo "stream_soak: FAIL — peak RSS over budget" >&2
    exit 1
  fi
}

if [ "$MODE" = batch ]; then
  run_batch $(( TOTAL_BYTES / 4 ))
  small_kb="$peak_kb"
  run_batch "$TOTAL_BYTES"
  echo "stream_soak: large-file peak ${peak_kb} kB, small-file peak" \
       "${small_kb} kB (allowed growth ${GROWTH_KB} kB)"
  if [ "$peak_kb" -gt $(( small_kb + GROWTH_KB )) ]; then
    echo "stream_soak: FAIL — peak RSS grows with the file" >&2
    exit 1
  fi
  echo "stream_soak: OK"
  exit 0
fi

echo "stream_soak: streaming ${TOTAL_BYTES} bytes through --follow=- ..."
run_cli --follow=- --summary-json="$workdir/summary.json" \
  < <(generate "$TOTAL_BYTES")
echo "stream_soak: peak RSS ${peak_kb} kB (budget ${BUDGET_KB} kB)"
if [ "$peak_kb" -gt "$BUDGET_KB" ]; then
  echo "stream_soak: FAIL — peak RSS over budget" >&2
  exit 1
fi

if ! grep -q '"evolutions": ' "$workdir/summary.json"; then
  echo "stream_soak: FAIL — no stream section in summary" >&2
  exit 1
fi
evolutions="$(sed -n 's/.*"evolutions": \([0-9]*\).*/\1/p' "$workdir/summary.json")"
if [ "${evolutions:-0}" -lt 1 ]; then
  echo "stream_soak: FAIL — drifting stream produced no evolution" >&2
  cat "$workdir/summary.json" >&2
  exit 1
fi
echo "stream_soak: OK (${evolutions} evolution(s))"
