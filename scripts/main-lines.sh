#!/bin/sh
# Count the lines of main source that hold code: each src/main/scala file's
# lines that are neither blank nor comment-only (starting, after indentation,
# with `//`, `/*` or `*`), then the total. Run from anywhere in the repo:
#   scripts/main-lines.sh
cd "$(dirname "$0")/.." || exit 1
find src/main/scala -name '*.scala' | LC_ALL=C sort | xargs awk '
  FNR == 1 && NR > 1 { printf "%6d %s\n", n, prev; total += n; n = 0 }
  { prev = FILENAME }
  !/^[ \t]*$/ && !/^[ \t]*(\/\/|\/\*|\*)/ { n++ }
  END { if (NR > 0) { printf "%6d %s\n", n, prev; total += n }; printf "%6d total\n", total }
'
