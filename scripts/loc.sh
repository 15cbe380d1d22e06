#!/usr/bin/env bash
# Code lines of src/ and tools/ at HEAD and at BASE (default HEAD~1).
# Usage: scripts/loc.sh [BASE]
#
# A code line is any line of a .cc or .h file that is neither blank nor
# comment-only (// lines and lines inside /* ... */ blocks).  Counts come
# from the committed trees, so uncommitted edits are not included.  This
# is the one definition of the line-count targets in ROADMAP.md.

set -euo pipefail

cd "$(dirname "$0")/.."
BASE="${1:-HEAD~1}"
DIRS=(src tools)

# code_lines REV DIR: code lines of DIR's .cc/.h files at REV.
code_lines() {
  git ls-tree -r --name-only "$1" -- "$2" | grep -E '\.(cc|h)$' |
    while read -r f; do git show "$1:$f"; echo; done |
    awk '
      {
        line = $0
        code = 0
        while (line != "") {
          if (in_block) {
            end = index(line, "*/")
            if (end == 0) break
            line = substr(line, end + 2)
            in_block = 0
            continue
          }
          sub(/^[ \t]+/, "", line)
          if (line == "" || substr(line, 1, 2) == "//") break
          if (substr(line, 1, 2) == "/*") {
            in_block = 1
            line = substr(line, 3)
            continue
          }
          code = 1
          break
        }
        n += code
      }
      END { print n + 0 }'
}

declare -A lines
for rev in HEAD "$BASE"; do
  git rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
    { echo "loc.sh: unknown revision $rev" >&2; exit 2; }
  total=0
  for d in "${DIRS[@]}"; do
    lines[$rev,$d]=$(code_lines "$rev" "$d")
    total=$((total + lines[$rev,$d]))
  done
  lines[$rev,total]=$total
done

printf '%-12s' ""
for d in "${DIRS[@]}" total; do printf '%8s' "$d"; done
printf '\n'
for rev in HEAD "$BASE"; do
  printf '%-12s' "$(git rev-parse --short "$rev")"
  for d in "${DIRS[@]}" total; do printf '%8d' "${lines[$rev,$d]}"; done
  printf '\n'
done
printf '%-12s' "delta"
for d in "${DIRS[@]}" total; do
  printf '%+8d' $((lines[HEAD,$d] - lines[$BASE,$d]))
done
printf '\n'
