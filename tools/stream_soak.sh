#!/usr/bin/env bash
# Memory soak for datamaran_cli, gated on the child's peak RSS. One
# deterministic generator (counter-based, no RNG) feeds both modes: ~45% of
# the bytes are format A ("n,n,n"), a 10% alternating A/B transition band,
# then format B ("n|n|n|n") to the end.
#
# Stream mode (default): pipe a large drifting stream (default 200 MB)
# through `datamaran_cli --follow=-`. The run must survive a
# drift-triggered template evolution mid-stream, and peak RSS must stay
# O(window), independent of stream length, far below the bytes streamed.
# Fails on a nonzero CLI exit, a missing evolution, or peak RSS above the
# budget.
#
# Batch mode (--batch): write the generator's output to a file (default
# 64 MiB) and run `datamaran_cli FILE --out --summary-json --threads=2`
# once. Batch extraction is one streaming pass over the mapped input, and
# every pass (the line-index build, the discovery sample copy, each
# extraction wave) releases the input's pages behind it, so the only
# memory that grows with the file is its line index (8 bytes per line,
# 33 MiB of the default file's ~4.3M lines). Discovery, one extraction
# wave, the few folios of input a pass holds and the writers' buffers fit
# a fixed budget on top (default 24 MiB; measured ~8 MiB). The file's own
# size is not part of the limit: a pass that pins the mapped input fails.
# Fails on a nonzero CLI exit, a summary error, no extracted records, or
# peak RSS above index + budget.
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
  TOTAL_BYTES="${1:-67108864}"  # 64 MiB
  BUDGET_KB="${2:-24576}"       # 24 MiB over the input's line index
else
  TOTAL_BYTES="${1:-200000000}"
  BUDGET_KB="${2:-65536}"   # 64 MiB — measured peak is ~11 MB, flat in stream length
fi

if [ ! -x build/datamaran_cli ]; then
  echo "stream_soak: build/datamaran_cli not found (run the tier-1 build first)" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

generate() {
  awk -v total="$TOTAL_BYTES" 'BEGIN {
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
# peak RSS (getrusage RUSAGE_CHILDREN ru_maxrss, in kB on Linux) as
# peak_rss_kb=N in $workdir/rss.txt. Sets $peak_kb; exits on a CLI failure.
run_cli() {
  local status
  set +e
  python3 -c '
import resource, subprocess, sys
status = subprocess.call(sys.argv[1:])
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"peak_rss_kb={peak_kb}", file=sys.stderr)
sys.exit(status)
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

if [ "$MODE" = batch ]; then
  generate > "$workdir/input.log"
  file_bytes="$(wc -c < "$workdir/input.log")"
  file_lines="$(wc -l < "$workdir/input.log")"
  echo "stream_soak: batch extraction of ${file_bytes} bytes," \
       "${file_lines} lines ..."
  run_cli "$workdir/input.log" --out="$workdir/out" \
    --summary-json="$workdir/summary.json" --threads=2 < /dev/null
  index_kb=$(( file_lines * 8 / 1024 ))
  limit_kb=$(( index_kb + BUDGET_KB ))
  echo "stream_soak: peak RSS ${peak_kb} kB (limit ${limit_kb} kB = line" \
       "index ${index_kb} + budget ${BUDGET_KB})"
  if [ "$peak_kb" -gt "$limit_kb" ]; then
    echo "stream_soak: FAIL — peak RSS over line index + budget" >&2
    exit 1
  fi
  if ! grep -q '"error": ""' "$workdir/summary.json"; then
    echo "stream_soak: FAIL — summary reports an error" >&2
    cat "$workdir/summary.json" >&2
    exit 1
  fi
  records="$(sed -n 's/^ *"records": \([0-9]*\).*/\1/p' "$workdir/summary.json")"
  if [ "${records:-0}" -lt 1 ]; then
    echo "stream_soak: FAIL — no records extracted" >&2
    cat "$workdir/summary.json" >&2
    exit 1
  fi
  echo "stream_soak: OK (${records} records)"
  exit 0
fi

echo "stream_soak: streaming ${TOTAL_BYTES} bytes through --follow=- ..."
run_cli --follow=- --summary-json="$workdir/summary.json" < <(generate)
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
