#!/bin/sh
# benchdiff.sh — run flexbench once at seed 1 and diff its output against
# the two files it is checked in as, byte for byte.
#
# flexbench's -o output is a pure function of the seed (all times are
# simulated; wall-clock lines go to stdout only), so any diff means a
# behaviour change or a lost determinism guarantee. The output is split
# at two markers:
#   "## E1 " up to "## Telemetry summary" — the experiment tables, which
#     are EXPERIMENTS.md from its "## E1 " line to the end of the file;
#   the rest (run header and telemetry summary) — BENCH_BASELINE.md.
# What each table must show is asserted by its shape test in
# internal/experiments; this script only keeps the checked-in copies
# current. Refresh both deliberately, alongside the change, with:
#
#   go run ./cmd/flexbench -seed 1 -o full.md
#   awk '/^## E1 /{off=1} /^## Telemetry summary/{off=0} !off' full.md > BENCH_BASELINE.md
#   { awk '/^## E1 /{exit} 1' EXPERIMENTS.md
#     awk '/^## E1 /{on=1} /^## Telemetry summary/{on=0} on' full.md; } > exp.md
#   mv exp.md EXPERIMENTS.md
set -eu

cd "$(dirname "$0")/.."

dir=$(mktemp -d "${TMPDIR:-/tmp}/benchdiff.XXXXXX")
trap 'rm -rf "$dir"' EXIT

echo "benchdiff: running flexbench (seed 1)..."
go run ./cmd/flexbench -seed 1 -o "$dir/full.md" > /dev/null
awk '/^## E1 /{on=1} /^## Telemetry summary/{on=0} on' "$dir/full.md" > "$dir/tables.md"
awk '/^## E1 /{off=1} /^## Telemetry summary/{off=0} !off' "$dir/full.md" > "$dir/rest.md"
awk '/^## E1 /{on=1} on' EXPERIMENTS.md > "$dir/experiments.md"

fail=0
diff -u "$dir/experiments.md" "$dir/tables.md" || fail=1
diff -u BENCH_BASELINE.md "$dir/rest.md" || fail=1
if [ "$fail" -ne 0 ]; then
    echo "benchdiff: FAIL — flexbench output drifted from EXPERIMENTS.md or BENCH_BASELINE.md;" >&2
    echo "if the change is intentional, refresh both (see the header of this script)." >&2
    exit 1
fi
echo "benchdiff: OK — EXPERIMENTS.md tables and BENCH_BASELINE.md match flexbench byte for byte."
