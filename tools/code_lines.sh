#!/usr/bin/env bash
# Counts code lines in src/: the tracked *.cpp and *.hpp files, without blank
# lines and without lines whose first non-blank characters are `//`. Prints
# the total, then one line per top-level directory of src/.
#
#   tools/code_lines.sh         # tracked files as they are in the working tree
#   tools/code_lines.sh <rev>   # the same files as committed at <rev>
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

rev="${1:-}"
if [[ -n "$rev" ]]; then
  files=$(git ls-tree -r --name-only "$rev" -- src | grep -E '\.(cpp|hpp)$')
  read_file() { git show "$rev:$1"; }
else
  files=$(git ls-files -- 'src/*.cpp' 'src/*.hpp')
  read_file() { cat "$1"; }
fi

for f in $files; do
  n=$(read_file "$f" | grep -cvE '^[[:space:]]*(//|$)' || true)
  dir=${f#src/}
  echo "${dir%%/*} $n"
done | awk '{ per[$1] += $2; total += $2 }
  END {
    printf "src %d\n", total
    for (d in per) printf "  %-10s %d\n", d, per[d] | "sort"
  }'
