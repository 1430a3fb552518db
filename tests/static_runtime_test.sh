#!/bin/sh
# Static C++ runtime gate: fails when a tool binary lists the shared C++
# runtime (libstdc++.so or libgcc_s.so) as NEEDED. CMakeLists.txt links
# both tools with -static-libstdc++ -static-libgcc wherever the toolchain
# has libstdc++.a, and registers this test only then. Exits 77, the test's
# SKIP_RETURN_CODE, when readelf is missing.
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
  if ! dynamic=$(readelf -d "$bin"); then
    echo "$bin: readelf failed"
    fail=1
    continue
  fi
  runtime=$(printf '%s\n' "$dynamic" |
            grep '(NEEDED)' | grep -E 'lib(stdc\+\+|gcc_s)\.so')
  if [ -n "$runtime" ]; then
    echo "$bin loads the C++ runtime dynamically:"
    printf '%s\n' "$runtime"
    fail=1
  else
    echo "$bin: no libstdc++.so or libgcc_s.so NEEDED"
  fi
done
exit "$fail"
