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
# under a fixed budget (default 32 MiB; measured ~2.7 MB). Fails on a
# nonzero CLI exit, a missing evolution, or peak RSS above the budget.
#
# Batch mode (--batch): write the generator's output (default 64 MiB, and
# a quarter of that, 16 MiB) in four input kinds — a plain file, the same
# bytes gzip'd, CRLF-terminated, and split into a three-member `--inputs`
# rotation stitch whose oldest member is gzip'd — and run
# `datamaran_cli INPUT --out --summary-json --threads=2` once on each.
# Batch reads every input kind through a 256 KiB window — the discovery
# sample from its sampled ranges (plain file) or forward passes (any other
# kind), extraction one window-sized segment at a time, gzip members
# inflated and CRLFs stripped as the window passes — so no memory grows
# with the input: every peak must stay under a fixed budget (default
# 16 MiB; measured ~4.1-4.8 MB for every kind and size), and for each kind
# the large input's peak may exceed the small one's by at most 2 MiB, so
# any term that grows with the input fails even below the budget. Then
# the 16 MiB plain input runs again at --threads=1 and --threads=4: each
# worker runs its own charset trials, so the 4-thread peak may exceed the
# 1-thread one by at most 1.75 MiB (measured +1.1-1.3 MB over a 1-thread
# peak of ~2.6 MB; +2.4-2.6 MB while every worker held a canonical and
# four 8-byte entries per sample line). Fails on a nonzero CLI exit, a
# summary error, no extracted records, a peak over the budget, a
# large-input peak over the small-input peak + 2 MiB, or a 4-thread peak
# over the 1-thread peak + 1.75 MiB.
#
# Crawl mode (--crawl): write a lake of four formats (comma- and
# pipe-separated records, a syslog-like line and a two-line record), each
# in eight host directories as plain files of 12, 24 and 48 KiB, a 40 KiB
# gzip'd file and a 60 KiB three-member rotation group (oldest member
# gzip'd) — files no larger than bench_e2e's `lake_crawl` lake holds
# (24-200 KiB), so discovery's samples stay small — and crawl it with
# `datamaran_crawl --out --manifest` at --threads=1 and --threads=4. No
# catalog is given, so phase 2 discovers every format. The crawl runs
# every phase on one thread pool and each reader allocates its buffers
# once, so a worker adds its scan state and its heap arena, not a second
# pool's threads or buffers freed and reallocated per segment: the
# 4-thread peak may exceed the 1-thread one by at most 3 MiB (measured
# +1.4-1.5 MB over a 1-thread peak of ~3.0 MB, and +3.4-3.9 MB with a
# second pool and per-segment buffers). Each worker's generation
# workspace holds its trials' per-skeleton canonicals and stats, and a bin
# map whose bucket array still grows with the sample's lines, which this
# lake's small files keep small (docs/ARCHITECTURE.md).
# Fails on a nonzero crawl exit, a manifest error, a missing format, or a
# 4-thread peak over the 1-thread peak plus 3 MiB.
#
# Follow-workers mode (--follow-workers): follow a 16 MB stream of
# sixteen-field comma-separated records through `datamaran_cli --follow=-`
# at --threads=1 and --threads=4. The follower scans each 4096-line
# segment in waves of two 256-line chunks per thread, and each chunk
# buffers its records' match events until the wave is stitched; the
# 1-thread run scans sequentially and buffers no wave. On records this
# wide the events are most of a worker's scan state, so the 4-thread peak
# may exceed the 1-thread one by at most 1.25 MiB (measured +0.8-1.0 MB
# over a 1-thread peak of ~2.4 MB on a quiet host, though with a compile
# running beside it one run in eight read +1.34 MB, over the gate;
# +1.2-1.7 MB with 40-byte events, +1.5-2.4 MB with a 1024-line minimum
# chunk). Fails on a nonzero CLI exit, a summary error, a record count
# other than the stream's line count, or a 4-thread peak over the
# 1-thread peak plus 1.25 MiB.
#
#   tools/stream_soak.sh [total_bytes] [rss_budget_kb]
#   tools/stream_soak.sh --batch [file_bytes] [budget_kb]
#   tools/stream_soak.sh --crawl
#   tools/stream_soak.sh --follow-workers
#
# Requires the tier-1 build (./build/datamaran_cli, for --crawl
# ./build/datamaran_crawl, and ./build/peak_rss, the launcher that reads
# the child's peak RSS from wait4, built from tests/peak_rss.cc), and for
# --batch and --crawl gzip, sed and GNU split.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=stream
if [ "${1:-}" = "--batch" ] || [ "${1:-}" = "--crawl" ] ||
   [ "${1:-}" = "--follow-workers" ]; then
  MODE="${1#--}"
  shift
fi
TOOL=build/datamaran_cli
if [ "$MODE" = batch ]; then
  TOTAL_BYTES="${1:-67108864}"  # 64 MiB; the small run is a quarter of it
  BUDGET_KB="${2:-16384}"       # 16 MiB, whatever the file size
  GROWTH_KB=2048                # large-file peak over the small-file peak
  WORKER_KB=1792                # 4-thread peak over the 1-thread peak
elif [ "$MODE" = crawl ]; then
  TOOL=build/datamaran_crawl
  GROWTH_KB=3072                # 4-thread peak over the 1-thread peak
elif [ "$MODE" = follow-workers ]; then
  TOTAL_BYTES=16000000
  GROWTH_KB=1280                # 4-thread peak over the 1-thread peak
else
  TOTAL_BYTES="${1:-200000000}"
  BUDGET_KB="${2:-32768}"   # 32 MiB — measured peak is ~2.7 MB, flat in stream length
fi

LAUNCHER=build/peak_rss
for bin in "$TOOL" "$LAUNCHER"; do
  if [ ! -x "$bin" ]; then
    echo "stream_soak: $bin not found (run the tier-1 build first)" >&2
    exit 1
  fi
done

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

# Runs $TOOL with the given arguments and this function's stdin, writing
# its stdout to $workdir/stdout.txt; $LAUNCHER reports the child's peak RSS
# (wait4's ru_maxrss, in kB on Linux) as peak_rss_kb=N in $workdir/rss.txt.
# ru_maxrss also counts the RSS of the address space the child was exec'd
# from, so the launcher is a small program built like the tools (about
# 0.6 MB of its own, where a bare python3 put a 5 MB floor under every
# reading). Sets $peak_kb; exits on a failed run.
run_tool() {
  local status
  set +e
  "$LAUNCHER" "./$TOOL" "$@" > "$workdir/stdout.txt" 2> "$workdir/rss.txt"
  status=$?
  set -e
  if [ "$status" -ne 0 ]; then
    echo "stream_soak: $TOOL exited $status" >&2
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

# Exits on an error in $workdir/summary.json; sets $records to its record
# count.
read_summary() {
  if ! grep -q '"error": ""' "$workdir/summary.json"; then
    echo "stream_soak: FAIL — summary reports an error" >&2
    cat "$workdir/summary.json" >&2
    exit 1
  fi
  records="$(sed -n 's/^ *"records": \([0-9]*\).*/\1/p' "$workdir/summary.json")"
}

# Batch extraction of $1 generated bytes as input kind $2 (plain, gzip,
# crlf or stitch) at --threads=$3 (default 2); sets $peak_kb and exits on
# a failed run, a summary error or no extracted records.
run_batch() {
  generate "$1" > "$workdir/input.log"
  local file_bytes input
  file_bytes="$(wc -c < "$workdir/input.log")"
  rm -rf "$workdir/in" "$workdir/out"
  mkdir "$workdir/in"
  case "$2" in
    plain)
      mv "$workdir/input.log" "$workdir/in/app.log"
      input="$workdir/in/app.log" ;;
    gzip)
      gzip -c "$workdir/input.log" > "$workdir/in/app.log.gz"
      input="$workdir/in/app.log.gz" ;;
    crlf)
      sed 's/$/\r/' "$workdir/input.log" > "$workdir/in/app.log"
      input="$workdir/in/app.log" ;;
    stitch)
      # Three rotation generations, oldest first: app.log.2.gz (gzip'd, as
      # logrotate leaves it), app.log.1, app.log.
      split -n l/3 -d -a 1 "$workdir/input.log" "$workdir/in/part."
      gzip -c "$workdir/in/part.0" > "$workdir/in/app.log.2.gz"
      mv "$workdir/in/part.1" "$workdir/in/app.log.1"
      mv "$workdir/in/part.2" "$workdir/in/app.log"
      rm "$workdir/in/part.0"
      input="--inputs=$workdir/in/app.log*" ;;
  esac
  rm -f "$workdir/input.log"
  echo "stream_soak: batch extraction of ${file_bytes} bytes ($2," \
       "--threads=${3:-2}) ..."
  run_tool "$input" --out="$workdir/out" \
    --summary-json="$workdir/summary.json" --threads="${3:-2}" < /dev/null
  rm -rf "$workdir/in"
  read_summary
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

# Writes $2 bytes of format $1 (0-3) to stdout: comma-separated, pipe-
# separated, syslog-like, and two-line records, with a comment line in
# every 50.
generate_format() {
  awk -v fmt="$1" -v total="$2" 'BEGIN {
    b = 0;
    for (i = 0; b < total; i++) {
      if (i % 50 == 49)   line = "# checkpoint " i;
      else if (fmt == 0)  line = i "," (i * 7 % 1000) "," (i % 97);
      else if (fmt == 1)  line = i "|" (i % 89) "|" (i * 3 % 1000) "|" (i % 7);
      else if (fmt == 2)  line = "Jan " (i % 28 + 1) " " (i % 24) ":" (i % 60) \
                                 ":" (i * 7 % 60) " host" (i % 5) " sshd[" \
                                 (1000 + i % 900) "]: session opened for u" (i % 13);
      else                line = "BEGIN " i "\n  v=" (i * 3 % 1000) ";";
      print line;
      b += length(line) + 1;
    }
  }'
}

# Writes the crawl lake under $workdir/lake.
write_lake() {
  local host fmt dir
  for host in 0 1 2 3 4 5 6 7; do
    dir="$workdir/lake/host$host"
    mkdir -p "$dir"
    for fmt in 0 1 2 3; do
      generate_format "$fmt" 12288 > "$dir/f$fmt-small.log"
      generate_format "$fmt" 24576 > "$dir/f$fmt-mid.log"
      generate_format "$fmt" 49152 > "$dir/f$fmt-big.log"
      generate_format "$fmt" 40960 | gzip -c > "$dir/f$fmt-packed.log.gz"
      generate_format "$fmt" 61440 > "$workdir/rotate.log"
      split -n l/3 -d -a 1 "$workdir/rotate.log" "$workdir/part."
      gzip -c "$workdir/part.0" > "$dir/f$fmt-app.log.2.gz"
      mv "$workdir/part.1" "$dir/f$fmt-app.log.1"
      mv "$workdir/part.2" "$dir/f$fmt-app.log"
      rm -f "$workdir/part.0" "$workdir/rotate.log"
    done
  done
}

# Crawls the lake at --threads=$1; sets $peak_kb and exits on a failed
# crawl, a manifest error or a format not discovered.
run_crawl() {
  rm -rf "$workdir/out"
  echo "stream_soak: crawling the lake at --threads=$1 ..."
  run_tool "$workdir/lake" --out="$workdir/out" \
    --manifest="$workdir/manifest.json" --threads="$1" < /dev/null
  if ! grep -q '"error_count": 0,' "$workdir/manifest.json"; then
    echo "stream_soak: FAIL — the manifest reports errors" >&2
    cat "$workdir/manifest.json" >&2
    exit 1
  fi
  if ! grep -q '"format_count": 4,' "$workdir/manifest.json"; then
    echo "stream_soak: FAIL — the crawl did not find the lake's 4 formats" >&2
    grep '"format_count"' "$workdir/manifest.json" >&2
    exit 1
  fi
  echo "stream_soak: peak RSS ${peak_kb} kB"
}

# Writes $1 bytes of sixteen-field comma-separated records to stdout.
generate_wide() {
  awk -v total="$1" 'BEGIN {
    b = 0;
    for (i = 0; b < total; i++) {
      line = i;
      for (f = 1; f < 16; f++)
        line = line "," ((i * (2 * f + 1)) % (10 * f + 7));
      print line;
      b += length(line) + 1;
    }
  }'
}

# Follows the wide stream at --threads=$1; sets $peak_kb and exits on a
# failed run, a summary error or a line not extracted.
run_follow_workers() {
  echo "stream_soak: following ${TOTAL_BYTES} bytes of wide records at" \
       "--threads=$1 ..."
  run_tool --follow=- --summary-json="$workdir/summary.json" \
    --threads="$1" < "$workdir/wide.log"
  read_summary
  if [ "${records:-0}" -ne "$wide_lines" ]; then
    echo "stream_soak: FAIL — ${records:-0} records of ${wide_lines} lines" >&2
    exit 1
  fi
  echo "stream_soak: peak RSS ${peak_kb} kB"
}

if [ "$MODE" = follow-workers ]; then
  generate_wide "$TOTAL_BYTES" > "$workdir/wide.log"
  wide_lines="$(wc -l < "$workdir/wide.log")"
  run_follow_workers 1
  one_kb="$peak_kb"
  run_follow_workers 4
  echo "stream_soak: follow: 4-thread peak ${peak_kb} kB, 1-thread peak" \
       "${one_kb} kB (allowed growth ${GROWTH_KB} kB)"
  if [ "$peak_kb" -gt $(( one_kb + GROWTH_KB )) ]; then
    echo "stream_soak: FAIL — peak RSS grows past the allowance per worker" >&2
    exit 1
  fi
  echo "stream_soak: OK"
  exit 0
fi

if [ "$MODE" = crawl ]; then
  write_lake
  run_crawl 1
  one_kb="$peak_kb"
  run_crawl 4
  echo "stream_soak: crawl: 4-thread peak ${peak_kb} kB, 1-thread peak" \
       "${one_kb} kB (allowed growth ${GROWTH_KB} kB)"
  if [ "$peak_kb" -gt $(( one_kb + GROWTH_KB )) ]; then
    echo "stream_soak: FAIL — peak RSS grows past the allowance per worker" >&2
    exit 1
  fi
  echo "stream_soak: OK"
  exit 0
fi

if [ "$MODE" = batch ]; then
  for kind in plain gzip crlf stitch; do
    run_batch $(( TOTAL_BYTES / 4 )) "$kind"
    small_kb="$peak_kb"
    run_batch "$TOTAL_BYTES" "$kind"
    echo "stream_soak: $kind: large-input peak ${peak_kb} kB, small-input" \
         "peak ${small_kb} kB (allowed growth ${GROWTH_KB} kB)"
    if [ "$peak_kb" -gt $(( small_kb + GROWTH_KB )) ]; then
      echo "stream_soak: FAIL — peak RSS grows with the input" >&2
      exit 1
    fi
  done
  run_batch $(( TOTAL_BYTES / 4 )) plain 1
  one_kb="$peak_kb"
  run_batch $(( TOTAL_BYTES / 4 )) plain 4
  echo "stream_soak: plain: 4-thread peak ${peak_kb} kB, 1-thread peak" \
       "${one_kb} kB (allowed growth ${WORKER_KB} kB)"
  if [ "$peak_kb" -gt $(( one_kb + WORKER_KB )) ]; then
    echo "stream_soak: FAIL — peak RSS grows past the allowance per worker" >&2
    exit 1
  fi
  echo "stream_soak: OK"
  exit 0
fi

echo "stream_soak: streaming ${TOTAL_BYTES} bytes through --follow=- ..."
run_tool --follow=- --summary-json="$workdir/summary.json" \
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
