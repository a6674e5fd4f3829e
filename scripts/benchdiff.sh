#!/bin/sh
# benchdiff.sh — regenerate the deterministic flexbench output and diff
# it against the checked-in baseline.
#
# flexbench's -o output is a pure function of the seed (all times are
# simulated; wall-clock lines go to stdout only), so any diff means a
# behaviour change: a cost-model edit, an experiment change, a telemetry
# change, or a lost determinism guarantee. CI fails on drift; refresh the
# baseline deliberately with:
#
#   go run ./cmd/flexbench -seed 1 -o BENCH_BASELINE.md
#
# and commit the result alongside the change that caused it.
set -eu

cd "$(dirname "$0")/.."

BASELINE=BENCH_BASELINE.md
CURRENT=$(mktemp /tmp/flexbench.XXXXXX.md)
trap 'rm -f "$CURRENT"' EXIT

if [ ! -f "$BASELINE" ]; then
    echo "benchdiff: missing $BASELINE (generate with: go run ./cmd/flexbench -seed 1 -o $BASELINE)" >&2
    exit 1
fi

echo "benchdiff: running flexbench (seed 1)..."
go run ./cmd/flexbench -seed 1 -o "$CURRENT" > /dev/null

if ! diff -u "$BASELINE" "$CURRENT"; then
    echo "" >&2
    echo "benchdiff: FAIL — flexbench output drifted from $BASELINE." >&2
    echo "If the change is intentional, refresh the baseline:" >&2
    echo "  go run ./cmd/flexbench -seed 1 -o $BASELINE" >&2
    exit 1
fi
echo "benchdiff: OK — output matches $BASELINE byte-for-byte."

# Every switch carries the megaflow flow cache (DESIGN.md §12), so the
# pass above ran with it on. E17 is where it meets its oracle, the
# same fabric with the cache removed: the "dev telemetry" column must
# read "identical" on every cache-on row — the cache never changes what
# a device does — and the "pkts delivered" and "hit %" columns must stay
# within ±10% of the checked-in baseline. Byte-identity above makes
# equality the expected case; this gate states the tolerance explicitly
# so a deliberate baseline refresh that silently craters the hit rate
# still fails CI.
echo "benchdiff: checking E17 oracle identity + delivered/hit-rate drift (±10%)..."
if ! awk -F'|' '
    function trim(s) { gsub(/^[ \t]+|[ \t]+$/, "", s); return s }
    FNR == 1 { nf++; inE17 = 0 }
    /^## E17/ { inE17 = 1; next }
    /^Finding/ { inE17 = 0 }
    inE17 && NF >= 8 && trim($2) == "on" {
        flows = trim($3)
        pk[nf ":" flows] = trim($4) + 0
        hit[nf ":" flows] = trim($5) + 0
        seen[flows] = 1
        if (nf == 2 && trim($8) != "identical") {
            printf "benchdiff: E17 flows=%s dev telemetry = %s, want identical\n", flows, trim($8)
            fail = 1
        }
    }
    END {
        for (f in seen) {
            bp = pk[1 ":" f]; cp = pk[2 ":" f]
            bh = hit[1 ":" f]; ch = hit[2 ":" f]
            if (bp == 0 || bh == 0) {
                printf "benchdiff: E17 flows=%s missing from baseline\n", f
                fail = 1
                continue
            }
            if (cp < 0.9 * bp || cp > 1.1 * bp) {
                printf "benchdiff: E17 flows=%s pkts delivered drifted >10%%: %d vs baseline %d\n", f, cp, bp
                fail = 1
            }
            if (ch < 0.9 * bh || ch > 1.1 * bh) {
                printf "benchdiff: E17 flows=%s hit rate drifted >10%%: %.2f vs baseline %.2f\n", f, ch, bh
                fail = 1
            }
        }
        if (!fail && length(seen) == 0) {
            print "benchdiff: no E17 cache-on rows found"
            fail = 1
        }
        exit fail
    }' "$BASELINE" "$CURRENT"; then
    echo "" >&2
    echo "benchdiff: FAIL — flow-cache effectiveness drifted from $BASELINE." >&2
    exit 1
fi
echo "benchdiff: OK — E17 cache effectiveness within ±10% of baseline, dev telemetry identical to the uncached oracle."

# Perf-drift gate on the control-plane fast path (DESIGN.md §13): E18's
# ops/s and p99 columns must stay within ±10% of the checked-in
# baseline, and the placement column must read "identical" on every row
# — the incremental planner is only allowed to be faster, never to
# place differently. As with E17, byte-identity above makes equality the
# expected case; this gate keeps a deliberate baseline refresh from
# silently regressing control-plane throughput.
echo "benchdiff: checking E18 ops/s + p99 drift (±10%)..."
if ! awk -F'|' '
    function trim(s) { gsub(/^[ \t]+|[ \t]+$/, "", s); return s }
    function lat_ns(s,   v) {
        v = s + 0
        if (s ~ /µs/) return v * 1e3
        if (s ~ /ms/) return v * 1e6
        if (s ~ /ns/) return v
        if (s ~ /s/)  return v * 1e9
        return v
    }
    FNR == 1 { nf++; inE18 = 0 }
    /^## E18 / { inE18 = 1; next }
    /^Finding/ { inE18 = 0 }
    inE18 && NF >= 13 && (trim($5) == "incremental" || trim($5) == "full") {
        key = trim($2) ":" trim($5)
        ops[nf ":" key] = trim($9) + 0
        p99[nf ":" key] = lat_ns(trim($11))
        seen[key] = 1
        if (nf == 2 && trim($13) != "identical") {
            printf "benchdiff: E18 %s placement = %s, want identical\n", key, trim($13)
            fail = 1
        }
    }
    END {
        for (key in seen) {
            bo = ops[1 ":" key]; co = ops[2 ":" key]
            bp = p99[1 ":" key]; cp = p99[2 ":" key]
            if (bo == 0 || bp == 0) {
                printf "benchdiff: E18 row %s missing from baseline\n", key
                fail = 1
                continue
            }
            if (co < 0.9 * bo || co > 1.1 * bo) {
                printf "benchdiff: E18 %s ops/s drifted >10%%: %.1f vs baseline %.1f\n", key, co, bo
                fail = 1
            }
            if (cp < 0.9 * bp || cp > 1.1 * bp) {
                printf "benchdiff: E18 %s p99 drifted >10%%: %.0fns vs baseline %.0fns\n", key, cp, bp
                fail = 1
            }
        }
        if (!fail && length(seen) == 0) {
            print "benchdiff: no E18 mode rows found"
            fail = 1
        }
        exit fail
    }' "$BASELINE" "$CURRENT"; then
    echo "" >&2
    echo "benchdiff: FAIL — control-plane fast path drifted from $BASELINE." >&2
    exit 1
fi
echo "benchdiff: OK — E18 control-plane throughput within ±10% of baseline."

# Perf-drift gate on declarative convergence (DESIGN.md §14): E19's
# plans column must match the baseline exactly (plan compilation is
# deterministic — any change in the batch count is a planner change,
# not noise), spec-mode plans must stay at or below 10% of the
# imperative replay's, and spec-mode convergence latency must stay
# within ±10% of the checked-in baseline.
echo "benchdiff: checking E19 plans (exact) + convergence drift (±10%)..."
if ! awk -F'|' '
    function trim(s) { gsub(/^[ \t]+|[ \t]+$/, "", s); return s }
    function lat_ns(s,   v) {
        v = s + 0
        if (s ~ /µs/) return v * 1e3
        if (s ~ /ms/) return v * 1e6
        if (s ~ /ns/) return v
        if (s ~ /s/)  return v * 1e9
        return v
    }
    FNR == 1 { nf++; inE19 = 0 }
    /^## E19 / { inE19 = 1; next }
    /^Finding/ { inE19 = 0 }
    inE19 && NF >= 11 && (trim($4) == "spec" || trim($4) == "imperative") {
        key = trim($2) ":" trim($4)
        plans[nf ":" key] = trim($6) + 0
        conv[nf ":" key] = lat_ns(trim($8))
        seen[key] = 1
        if (nf == 2 && trim($4) == "spec") {
            fab = trim($2)
            specplans[fab] = trim($6) + 0
            if (trim($9) + 0 != 0 || trim($10) + 0 != 0) {
                printf "benchdiff: E19 %s spec apply not hitless (drops=%s drift=%s)\n", fab, trim($9), trim($10)
                fail = 1
            }
        }
        if (nf == 2 && trim($4) == "imperative") imperplans[trim($2)] = trim($6) + 0
        if (nf == 2 && trim($11) != "match") {
            printf "benchdiff: E19 %s audit replay = %s, want match\n", key, trim($11)
            fail = 1
        }
    }
    END {
        for (key in seen) {
            bp = plans[1 ":" key]; cp = plans[2 ":" key]
            bc = conv[1 ":" key]; cc = conv[2 ":" key]
            if (bp == 0 || bc == 0) {
                printf "benchdiff: E19 row %s missing from baseline\n", key
                fail = 1
                continue
            }
            if (cp != bp) {
                printf "benchdiff: E19 %s plans changed: %d vs baseline %d\n", key, cp, bp
                fail = 1
            }
            if (key ~ /:spec$/ && (cc < 0.9 * bc || cc > 1.1 * bc)) {
                printf "benchdiff: E19 %s convergence drifted >10%%: %.0fns vs baseline %.0fns\n", key, cc, bc
                fail = 1
            }
        }
        for (fab in specplans) {
            if (imperplans[fab] == 0) continue
            if (specplans[fab] > 0.10 * imperplans[fab]) {
                printf "benchdiff: E19 %s spec plans %d exceed 10%% of imperative %d\n", fab, specplans[fab], imperplans[fab]
                fail = 1
            }
        }
        if (!fail && length(seen) == 0) {
            print "benchdiff: no E19 mode rows found"
            fail = 1
        }
        exit fail
    }' "$BASELINE" "$CURRENT"; then
    echo "" >&2
    echo "benchdiff: FAIL — declarative convergence drifted from $BASELINE." >&2
    exit 1
fi
echo "benchdiff: OK — E19 plan counts exact, spec convergence within ±10%, hitless, audit replay matches."

# Correctness + perf-drift gate on controller failover (DESIGN.md §15):
# every E20 row must show zero mixed-configuration packets, zero intent
# drift, and a matching audit replay — these are hard zeros, not
# tolerances. The kill scenarios must resolve the in-flight plan the
# deterministic way ("rolled back" pre-commit, "resumed" post-commit),
# and the failover time and delivered kpps must stay within ±10% of the
# checked-in baseline so a refresh cannot silently slow takeover or
# shed traffic.
echo "benchdiff: checking E20 failover invariants + failover-time/kpps drift (±10%)..."
if ! awk -F'|' '
    function trim(s) { gsub(/^[ \t]+|[ \t]+$/, "", s); return s }
    function lat_ns(s,   v) {
        v = s + 0
        if (s ~ /µs/) return v * 1e3
        if (s ~ /ms/) return v * 1e6
        if (s ~ /ns/) return v
        if (s ~ /s/)  return v * 1e9
        return v
    }
    FNR == 1 { nf++; inE20 = 0 }
    /^## E20 / { inE20 = 1; next }
    /^Finding/ { inE20 = 0 }
    inE20 && NF >= 10 && trim($2) ~ /kill/ && trim($2) != "scenario" {
        key = trim($2)
        fo[nf ":" key] = lat_ns(trim($4))
        kpps[nf ":" key] = trim($10) + 0
        seen[key] = 1
        if (nf == 2) {
            if (trim($7) + 0 != 0 || trim($8) + 0 != 0) {
                printf "benchdiff: E20 %s not hitless (mixed=%s drift=%s)\n", key, trim($7), trim($8)
                fail = 1
            }
            if (trim($9) != "match") {
                printf "benchdiff: E20 %s audit replay = %s, want match\n", key, trim($9)
                fail = 1
            }
            if (key ~ /mid-prepare/ && trim($3) != "rolled back") {
                printf "benchdiff: E20 %s outcome = %s, want rolled back\n", key, trim($3)
                fail = 1
            }
            if (key ~ /post-commit/ && trim($3) != "resumed") {
                printf "benchdiff: E20 %s outcome = %s, want resumed\n", key, trim($3)
                fail = 1
            }
        }
    }
    END {
        for (key in seen) {
            bk = kpps[1 ":" key]; ck = kpps[2 ":" key]
            if (bk == 0) {
                printf "benchdiff: E20 row %s missing from baseline\n", key
                fail = 1
                continue
            }
            if (ck < 0.9 * bk || ck > 1.1 * bk) {
                printf "benchdiff: E20 %s kpps drifted >10%%: %.2f vs baseline %.2f\n", key, ck, bk
                fail = 1
            }
            bf = fo[1 ":" key]; cf = fo[2 ":" key]
            if (key ~ /kill mid|kill post/ && bf > 0 && (cf < 0.9 * bf || cf > 1.1 * bf)) {
                printf "benchdiff: E20 %s failover time drifted >10%%: %.0fns vs baseline %.0fns\n", key, cf, bf
                fail = 1
            }
        }
        if (!fail && length(seen) < 3) {
            print "benchdiff: expected 3 E20 scenario rows, found " length(seen)
            fail = 1
        }
        exit fail
    }' "$BASELINE" "$CURRENT"; then
    echo "" >&2
    echo "benchdiff: FAIL — controller failover behaviour drifted from $BASELINE." >&2
    exit 1
fi
echo "benchdiff: OK — E20 failover hitless, plan resolution deterministic, failover time and kpps within ±10%."
