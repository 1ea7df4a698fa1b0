#!/usr/bin/env bash
# Figure parity: does the working tree regenerate every figure, and every
# figure's metric snapshot, byte for byte as <rev> did?
#
#   scripts/figparity.sh [rev]        # rev defaults to HEAD~1
#
# Builds cmd/dpnfs-bench from <rev> (a `git archive` export, so nothing is
# left behind in .git) and from the working tree, runs both with
# `-fig all -scale 0.01 -clients 1,2 -report`, and compares the two JSON
# reports.  Simulated runs are deterministic, so any difference is a
# behaviour change on the fabric: a refactor must print "byte-identical",
# a PR that means to move a figure says so and names it.  Exits 1 on a
# difference; the last line printed names the first differing figure.
set -euo pipefail

rev=${1:-HEAD~1}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
(cd "$tmp/rev" && go build -o "$tmp/bench-rev" ./cmd/dpnfs-bench)
(cd "$root" && go build -o "$tmp/bench-tree" ./cmd/dpnfs-bench)

opts=(-fig all -scale 0.01 -clients 1,2)
"$tmp/bench-rev" "${opts[@]}" -report "$tmp/rev.json" >/dev/null
"$tmp/bench-tree" "${opts[@]}" -report "$tmp/tree.json" >/dev/null

figures=$(grep -c '^      "ID": ' "$tmp/tree.json")
if cmp -s "$tmp/rev.json" "$tmp/tree.json"; then
	echo "figparity: all $figures figures and their metric snapshots byte-identical to $rev"
	exit 0
fi

# The report is indented JSON, one field per line, each figure opening with
# its "ID": the first differing line belongs to the last ID at or above it.
line=$(cmp "$tmp/rev.json" "$tmp/tree.json" 2>&1 | sed -n 's/.*line \([0-9][0-9]*\).*/\1/p' || true)
fig=$(awk -v last="${line:-0}" 'NR > last { exit } /^      "ID": / { id = $2 } END { gsub(/[",]/, "", id); print id }' "$tmp/tree.json")
diff "$tmp/rev.json" "$tmp/tree.json" | head -n 20 || true
echo "figparity: DIFFERS from $rev: first difference in figure ${fig:-<report header>} (report line ${line:-?})"
exit 1
