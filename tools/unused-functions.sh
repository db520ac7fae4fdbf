#!/usr/bin/env bash
# Lists the functions libbor.a defines that no shipped program links.
#
# Builds the library, every tool, every example and the perfbench binary at
# -O0 with one section per function (so nothing is inlined away), links
# each program with --gc-sections, and compares the strong text symbols
# (nm type T) defined in libbor.a with the symbols the programs keep. The
# tests are not built: a function that only a test calls is dead library
# code unless tools/unused-functions.allow names it.
#
# Usage: tools/unused-functions.sh [BUILD_DIR]   (default: build-unused)
#
# Prints the unused functions that the allowlist does not cover, and the
# allowlist entries that cover no unused function, and exits 1 if there is
# either kind, 0 if there is neither. An allowlist entry covers a function
# whose demangled name is the entry, or starts with the entry followed by
# "::" or "(".

set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT=${1:-$ROOT/build-unused}
ALLOW=$ROOT/tools/unused-functions.allow
JOBS=$(nproc 2>/dev/null || echo 2)

configure() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG=-O0 -DCMAKE_CXX_FLAGS=-ffunction-sections \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
}

# The programs are whatever tools/ and examples/ register.
PROGRAMS=$(sed -n 's/^bor_add_\(tool\|example\)(\([^)]*\))$/\2/p' \
  "$ROOT/tools/CMakeLists.txt" "$ROOT/examples/CMakeLists.txt")

configure "$ROOT" "$OUT/main"
# shellcheck disable=SC2086 # one target per word
cmake --build "$OUT/main" -j "$JOBS" --target bor $PROGRAMS >/dev/null
configure "$ROOT/perfbench" "$OUT/perfbench"
cmake --build "$OUT/perfbench" -j "$JOBS" --target perfbench >/dev/null

EXES="$OUT/perfbench/perfbench"
for P in $PROGRAMS; do
  EXE=$(find "$OUT/main/tools" "$OUT/main/examples" -type f -name "$P" \
          -perm -u+x | head -n 1)
  [ -n "$EXE" ] || { echo "unused-functions: no binary for $P" >&2; exit 2; }
  EXES="$EXES $EXE"
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

nm -C --defined-only "$OUT/main/src/libbor.a" 2>/dev/null |
  sed -n 's/^[0-9a-f]* T //p' | sort -u >"$TMP/defined"
# shellcheck disable=SC2086 # one path per word
for EXE in $EXES; do nm -C --defined-only "$EXE"; done |
  sed -n 's/^[0-9a-f]* [TtWw] //p' | sort -u >"$TMP/kept"
comm -23 "$TMP/defined" "$TMP/kept" >"$TMP/unused"

# Allowlist lines are "<demangled name> # <reason>"; "#" starts a comment.
sed -e 's/[[:space:]]*#.*$//' -e '/^[[:space:]]*$/d' "$ALLOW" >"$TMP/allow"
# Unused functions no entry covers go to "left"; entries that cover no
# unused function go to "stale".
: >"$TMP/stale"
awk -v Stale="$TMP/stale" '
     FILENAME == ARGV[1] { Allow[++N] = $0; next }
     {
       Hit = 0
       for (I = 1; I <= N; ++I) {
         E = Allow[I]
         if ($0 == E || index($0, E "::") == 1 || index($0, E "(") == 1) {
           Used[I] = 1
           Hit = 1
         }
       }
       if (!Hit)
         print
     }
     END {
       for (I = 1; I <= N; ++I)
         if (!(I in Used))
           print Allow[I] >Stale
     }' "$TMP/allow" "$TMP/unused" >"$TMP/left"

TOTAL=$(wc -l <"$TMP/unused")
LEFT=$(wc -l <"$TMP/left")
STALE=$(wc -l <"$TMP/stale")
echo "unused-functions: $TOTAL library functions are linked into no" \
  "program; $((TOTAL - LEFT)) are allowlisted; $STALE allowlist entries" \
  "match none"
STATUS=0
if [ "$LEFT" -ne 0 ]; then
  echo "not allowlisted:"
  sed 's/^/  /' "$TMP/left"
  STATUS=1
fi
if [ "$STALE" -ne 0 ]; then
  echo "allowlist entries that match no unused function:"
  sed 's/^/  /' "$TMP/stale"
  STATUS=1
fi
exit "$STATUS"
