#!/usr/bin/env bash
# Non-test source lines of the workspace: every `.rs` file under
# `crates/*/src` and `src`, counted up to its `#[cfg(test)] mod ...`
# block (a `#[cfg(test)]` on a single helper does not end the count).
# Prints the lines per crate, then two totals: all lines, and lines that
# are neither blank nor `//` comments. Informational only; it gates
# nothing.
#
# Usage: ci/loc.sh [repo root]   (defaults to the script's parent dir)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

count() {
    # prints "<lines> <code lines>" for the files named on stdin
    xargs -r awk '
        FNR == 1 { cut = 0; held = 0 }
        cut { next }
        held {
            held = 0
            if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_]+/) { cut = 1; next }
            count(prev)
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; prev = $0; next }
        { count($0) }
        function count(line) {
            lines++
            if (line !~ /^[[:space:]]*$/ && line !~ /^[[:space:]]*\/\//) code++
        }
        END { printf "%d %d\n", lines, code }
    '
}

printf '%-28s %8s %8s\n' "path" "lines" "code"
total_lines=0
total_code=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    read -r lines code < <(find "$dir" -name '*.rs' | sort | count)
    printf '%-28s %8d %8d\n' "$dir" "$lines" "$code"
    total_lines=$((total_lines + lines))
    total_code=$((total_code + code))
done
printf '%-28s %8d %8d\n' "total" "$total_lines" "$total_code"
