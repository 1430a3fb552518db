#!/bin/sh
# Static-pie gate: fails when a tool binary has a program interpreter
# (PT_INTERP), any NEEDED shared object, or an ELF type other than DYN.
# CMakeLists.txt links both tools with -static-pie wherever its configure
# probe passes, and registers this test only then: such a tool maps no
# loader and no shared object at start, and stays position-independent, so
# the kernel still randomizes where it loads. It also fails when a tool
# defines zlib's deflate: only GzipCompress reaches it, and no tool calls
# that, so a tool that keeps it is not being linked with per-function
# sections and --gc-sections. Exits 77, the test's SKIP_RETURN_CODE, when
# readelf is missing.
#
#   sh tests/static_runtime_test.sh build/datamaran_cli build/datamaran_crawl
if ! command -v readelf >/dev/null 2>&1; then
  echo "readelf not found; skipping"
  exit 77
fi
if [ "$#" -eq 0 ]; then
  echo "usage: $0 BINARY..." >&2
  exit 2
fi

fail=0
for bin in "$@"; do
  if ! header=$(readelf -h "$bin") || ! segments=$(readelf -l "$bin") ||
     ! dynamic=$(readelf -d "$bin") || ! symbols=$(readelf -sW "$bin"); then
    echo "$bin: readelf failed"
    fail=1
    continue
  fi
  bad=0
  type=$(printf '%s\n' "$header" | sed -n 's/^ *Type: *//p')
  case "$type" in
    DYN*) ;;
    *) echo "$bin: ELF type is '$type', not DYN (position-independent)"
       bad=1 ;;
  esac
  if printf '%s\n' "$segments" | grep -q '^ *INTERP '; then
    echo "$bin has a program interpreter:"
    printf '%s\n' "$segments" | grep 'program interpreter'
    bad=1
  fi
  needed=$(printf '%s\n' "$dynamic" | grep '(NEEDED)')
  if [ -n "$needed" ]; then
    echo "$bin loads shared objects:"
    printf '%s\n' "$needed"
    bad=1
  fi
  # Columns: Num Value Size Type Bind Vis Ndx Name; UND marks a reference.
  if printf '%s\n' "$symbols" |
     awk '$8 == "deflate" && $7 != "UND" { found = 1 } END { exit !found }'
  then
    echo "$bin defines deflate: unused functions were not dropped"
    bad=1
  fi
  if [ "$bad" -eq 0 ]; then
    echo "$bin: static-pie (type DYN, no INTERP, no NEEDED, no deflate)"
  else
    fail=1
  fi
done
exit "$fail"
