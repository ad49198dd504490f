#!/usr/bin/env bash
# Non-test lines per source file and in total for the planner and the
# machine crates: every line of a `.rs` file except the `#[cfg(test)]`
# items (an attribute and the item under it, braces matched) and files
# named `tests.rs`. Run from anywhere: `scripts/loc.sh [dir ...]`.
set -euo pipefail
cd "$(dirname "$0")/.."
dirs=("$@")
[ ${#dirs[@]} -gt 0 ] || dirs=(crates/spmd/src crates/machine/src)
total=0
for dir in "${dirs[@]}"; do
  sub=0
  while IFS= read -r file; do
    n=$(awk '
      skip == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
      skip == 1 {
        line = $0
        opens = gsub(/\{/, "{", line); closes = gsub(/\}/, "}", line)
        depth += opens - closes
        if (opens > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
        next
      }
      { count++ }
      END { print count + 0 }' "$file")
    printf '%7d  %s\n' "$n" "$file"
    sub=$((sub + n))
  done < <(find "$dir" -name '*.rs' ! -name tests.rs | sort)
  printf '%7d  %s (total)\n' "$sub" "$dir"
  total=$((total + sub))
done
printf '%7d  total\n' "$total"
