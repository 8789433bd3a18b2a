#!/bin/sh
# Non-test lines per crate: every crates/*/src/**/*.rs, counted up to (not
# including) its first `mod tests` line. Prints a table.
#
#   scripts/loc.sh           print the table
#   scripts/loc.sh --check   also compare it with scripts/loc.baseline: exit 1
#                            if a crate or the total is above *or below* its
#                            baseline (a PR that grows or shrinks a crate
#                            edits the baseline in the same diff, so lines a
#                            simplification freed cannot grow back unseen)
cd "$(dirname "$0")/.." || exit 1
table=$(
    total=0
    for crate in crates/*/; do
        name=$(basename "$crate")
        lines=$(find "$crate/src" -name '*.rs' -exec awk '/^ *(pub )?mod tests/ { nextfile } { n++ } END { print n + 0 }' {} \; | awk '{ s += $1 } END { print s + 0 }')
        printf '%-14s %6d\n' "$name" "$lines"
        total=$((total + lines))
    done
    printf '%-14s %6d\n' total "$total"
)
[ "$1" = --check ] || { echo "$table"; exit 0; }
echo "$table" | awk '
    NR == FNR { base[$1] = $2; next }
    !($1 in base) { printf "%-14s %6d  not in scripts/loc.baseline\n", $1, $2; bad = 1; next }
    $2 > base[$1] { printf "%-14s %6d  above its baseline of %d\n", $1, $2, base[$1]; bad = 1; next }
    $2 < base[$1] { printf "%-14s %6d  below its baseline of %d: copy the new figure in\n", $1, $2, base[$1]; bad = 1; next }
    { printf "%-14s %6d\n", $1, $2 }
    END { exit bad }
' scripts/loc.baseline -
