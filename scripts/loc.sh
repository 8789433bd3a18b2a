#!/bin/sh
# Non-test lines per crate: every crates/*/src/**/*.rs, counted up to (not
# including) its first `mod tests` line. Prints a table; gates nothing.
cd "$(dirname "$0")/.." || exit 1
total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    lines=$(find "$crate/src" -name '*.rs' -exec awk '/^ *(pub )?mod tests/ { nextfile } { n++ } END { print n + 0 }' {} \; | awk '{ s += $1 } END { print s + 0 }')
    printf '%-14s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-14s %6d\n' total "$total"
