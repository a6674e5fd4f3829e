#!/bin/sh
# checkdocs.sh — gate the godoc surface.
#
# Every package must carry a package doc comment (a // block adjacent to
# the package clause in some non-test file), and every internal package's
# doc comment must point the reader at DESIGN.md — the design document is
# the spine of this repo, and a package that doesn't say which section
# explains it forces readers to reverse-engineer the mapping. It also
# fails when README's fault "Kinds:" list and the Kind constants in
# internal/faults/faults.go differ in either direction, and when a doc
# cites a make target the Makefile lacks, a test no _test.go defines or
# a Go name nothing declares. CI fails on any of these.
set -eu

cd "$(dirname "$0")/.."

root=$(pwd)
fail=0

for dir in $(go list -f '{{.Dir}}' ./...); do
    rel=${dir#"$root"/}
    [ "$rel" = "$root" ] && rel=.

    # Concatenate every file's doc comment — the // block immediately
    # above the package clause (no blank line between them — that is
    # what godoc shows). Multiple files may carry doc paragraphs; the
    # DESIGN.md citation only has to appear in one of them.
    doc=""
    for f in "$dir"/*.go; do
        case "$f" in
        *_test.go) continue ;;
        esac
        d=$(awk '
            /^package / { if (inc) for (i = 1; i <= n; i++) print buf[i]; exit }
            /^\/\//     { if (!inc) { inc = 1; n = 0 } buf[++n] = $0; next }
                        { inc = 0; n = 0 }
        ' "$f")
        if [ -n "$d" ]; then
            doc="$doc$d
"
        fi
    done

    if [ -z "$doc" ]; then
        echo "checkdocs: FAIL — package $rel has no doc comment adjacent to its package clause" >&2
        fail=1
        continue
    fi

    case "$rel" in
    internal/*)
        if ! printf '%s\n' "$doc" | grep -q 'DESIGN\.md'; then
            echo "checkdocs: FAIL — $rel's doc comment does not reference DESIGN.md" >&2
            fail=1
        fi
        ;;
    esac
done

# README's "Kinds:" paragraph lists every fault kind in backquotes; it
# must name exactly the `Kind... Kind = "..."` constants.
code_kinds=$(sed -n 's/^[[:space:]]*Kind[A-Za-z]* Kind = "\([^"]*\)".*/\1/p' internal/faults/faults.go | sort)
readme_kinds=$(awk '/^Kinds:/{on=1} on{print} on && /^$/{exit}' README.md |
    grep -o '`[^`]*`' | tr -d '`' | grep -v '^internal/' | sort)
if [ "$code_kinds" != "$readme_kinds" ]; then
    echo "checkdocs: FAIL — README's fault Kinds: list differs from internal/faults/faults.go" >&2
    echo "  faults.go: $(echo $code_kinds)" >&2
    echo "  README:    $(echo $readme_kinds)" >&2
    fail=1
fi

# Every `flexnetd -<flag>` / `flexbench -<flag>` / `flexctl … -<flag>`
# invocation in the current docs must name a flag the command defines in
# its main.go: a flag-defining call on the flag package or a FlagSet,
# either form — x.String("name", …) or x.StringVar(&v, "name", …), and
# x.Var(v, "name", …) for a flag.Value (-h/-help come with the flag
# package). A command with no flag found means the pattern missed its
# form, which fails too. CHANGES.md, ROADMAP.md and BENCH_PR* are
# history and are not scanned.
docs="README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md"
for cmd in flexnetd flexbench flexctl; do
    defined=$(sed -nE 's/.*[A-Za-z0-9_]\.((Bool|Int|Int64|Uint|Uint64|String|Float64|Duration)(Var)?|Var|TextVar|Func|BoolFunc)\(([^",]*, *)?"([^"]*)".*/\5/p' "cmd/$cmd/main.go")
    if [ -z "$defined" ]; then
        echo "checkdocs: FAIL — found no flag definitions in cmd/$cmd/main.go" >&2
        fail=1
    fi
    # shellcheck disable=SC2086 # $docs is a word list
    used=$(grep -noE "(^|[^-A-Za-z])$cmd( +[^] \`|#;)]+)+" $docs |
        awk '{ n = split($0, w, " "); split(w[1], loc, ":")
               for (i = 2; i <= n; i++) if (w[i] ~ /^--?[A-Za-z]/) {
                   f = w[i]; sub(/^--?/, "", f); sub(/=.*/, "", f)
                   print loc[1] ":" loc[2], f } }')
    while read -r where name; do
        [ -n "$name" ] || continue
        case " h help $(echo $defined) " in
        *" $name "*) ;;
        *)
            echo "checkdocs: FAIL — $where: \`$cmd -$name\` names a flag cmd/$cmd does not define" >&2
            fail=1
            ;;
        esac
    done <<EOF
$used
EOF
done

# Every `make <target>` the current docs cite must be a target the
# Makefile defines, so a doc cannot keep sending readers to a gate that
# was deleted or renamed.
targets=" $(sed -nE 's/^([A-Za-z0-9_. -]+):([^=]|$).*/\1/p' Makefile | tr '\n' ' ') "
# shellcheck disable=SC2086 # $docs is a word list
cited_targets=$(grep -noE '`make [A-Za-z0-9_.-]+' $docs | sed -E 's/^([^:]*:[0-9]*):`make /\1 /')
while read -r where name; do
    [ -n "$name" ] || continue
    case "$targets" in
    *" $name "*) ;;
    *)
        echo "checkdocs: FAIL — $where: \`make $name\` names a target the Makefile does not define" >&2
        fail=1
        ;;
    esac
done <<EOF
$cited_targets
EOF

# Every test the current docs cite by name — a backquoted Test*, Fuzz*
# or Benchmark* name, optionally package-qualified (`fabric.TestX`) or
# with a subtest path (`TestX/sub`) — must be a func some _test.go
# defines, so a doc cannot keep pointing at a check that was deleted or
# renamed. Placeholders such as `BenchmarkE<n>...` are not names.
defined_tests=" $(find . -name '*_test.go' -not -path './.*' -exec \
    sed -nE 's/^func ((Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(.*/\1/p' {} + | sort -u | tr '\n' ' ')"
# shellcheck disable=SC2086 # $docs is a word list
cited_tests=$(grep -noE '`([a-z][a-z0-9_]*\.)?(Test|Fuzz|Benchmark)[A-Za-z0-9_]*(/[^`]*)?`' $docs |
    sed -E 's/^([^:]*:[0-9]*):`([a-z][a-z0-9_]*\.)?([A-Za-z0-9_]*).*/\1 \3/')
while read -r where name; do
    [ -n "$name" ] || continue
    case "$defined_tests" in
    *" $name "*) ;;
    *)
        echo "checkdocs: FAIL — $where: \`$name\` names a test no _test.go defines" >&2
        fail=1
        ;;
    esac
done <<EOF
$cited_tests
EOF

# ROADMAP.md renumbers its items at every re-anchor, so a citation by
# number ("ROADMAP item 3", "ROADMAP 2(a)") goes stale: the fact it
# points at belongs in ROADMAP.md alone. Go files and the current docs
# may not carry one, even wrapped across two lines; CHANGES.md,
# ROADMAP.md and BENCH_PR* are history and are not scanned.
# shellcheck disable=SC2046,SC2086 # word lists of file names
cites=$(awk '
    function cites(s) { return s ~ /ROADMAP[ \t]+(item[ \t]+)?[0-9]/ }
    FNR == 1 { prev = "" }
    { cur = $0; sub(/^[ \t]*(\/\/)?[ \t]*/, "", cur)
      if (cites($0) || (!cites(prev) && cites(prev " " cur))) print FILENAME ":" FNR ": " $0
      prev = $0 }' $docs $(find . -name '*.go' -not -path './.*' | sort))
if [ -n "$cites" ]; then
    echo "checkdocs: FAIL — ROADMAP item cited by number (numbers move at every re-anchor):" >&2
    printf '%s\n' "$cites" | sed 's/^/  /' >&2
    fail=1
fi

# Every Go name the current docs cite in backquotes as `Type.Member` or
# `pkg.Ident` — a call suffix `(...)` is allowed — must be declared in
# this module: a method or field of some type Type, or a top-level
# declaration or method of a package named pkg. A pkg that names a
# module package but not the cited ident (`runtime.GOMAXPROCS`) resolves
# through `go doc`; a lowercase qualifier that names no module package
# is a variable (`net.ApplySpec(...)`), not a package. Snake_case idents
# are metric names, and `x.go`-style names are files.
decls=$(find . -name '*.go' -not -path './.*' -not -path './benchmark/*' | sort | xargs awk '
    function emit(k, a, b) { print k, a, b }
    function names(s, k, a,    n, i, w) {
        sub(/^[ \t]+/, "", s); sub(/[ \t]*(\/\/.*)?$/, "", s); gsub(/,[ \t]+/, ",", s)
        if (s ~ /^\*?[A-Za-z_][A-Za-z0-9_.]*$/) { sub(/.*[.*]/, "", s); emit(k, a, s); return }
        sub(/[ \t=(].*$/, "", s); n = split(s, w, ",")
        for (i = 1; i <= n; i++) if (w[i] != "") emit(k, a, w[i])
    }
    FNR == 1 { blk = ""; st = "" }
    /^package / { pkg = $2; if (pkg == "main") pkg = "" }
    /^\}/ { st = "" }
    /^\)/ { blk = "" }
    st != "" && /^\t[*A-Za-z_]/ { names($0, "M", st) }
    blk != "" && /^\t[A-Za-z_]/ { names($0, "P", pkg)
        if (blk == "type" && $2 ~ /^(struct|interface)$/ && $3 == "{") st = $1 }
    /^func [A-Za-z_]/ { s = $2; sub(/[([].*/, "", s); emit("P", pkg, s) }
    /^func \(/ { s = $0; sub(/^func \([^)]*\) */, "", s); sub(/[([].*/, "", s)
        r = $0; sub(/^func \(/, "", r); sub(/\).*/, "", r); n = split(r, w, /[ *]+/)
        t = w[n]; sub(/\[.*/, "", t); emit("M", t, s); emit("P", pkg, s) }
    /^(type|var|const) [A-Za-z_]/ { emit("P", pkg, $2)
        if ($1 == "type" && $3 ~ /^(struct|interface)$/ && $4 == "{") st = $2 }
    /^(type|var|const) \($/ { blk = $1 }
')
pkgs=" $(printf '%s\n' "$decls" | awk '$1 == "P" && $2 != "" { print $2 }' | sort -u | tr '\n' ' ')"
# shellcheck disable=SC2086 # $docs is a word list
cited_names=$(grep -noE '`[A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*(\([^`]*\))?`' $docs |
    sed -E 's/^([^:]*:[0-9]*):`([A-Za-z0-9_]*)\.([A-Za-z0-9_]*).*/\1 \2 \3/')
while read -r where q name; do
    case "$name" in "" | *_* | go | md | json | yaml | yml | sh | txt) continue ;; esac
    case "$q" in
    [A-Z]*) kind=M ;;
    *)
        case "$pkgs" in *" $q "*) kind=P ;; *) continue ;; esac
        ;;
    esac
    if ! printf '%s\n' "$decls" | grep -qx "$kind $q $name" &&
        ! { [ "$kind" = P ] && go doc "$q.$name" >/dev/null 2>&1; }; then
        echo "checkdocs: FAIL — $where: \`$q.$name\` names no declaration in this module" >&2
        fail=1
    fi
done <<EOF
$cited_names
EOF

if [ "$fail" -ne 0 ]; then
    echo "checkdocs: document every package ('// Package <name> ...'; internal packages cite their DESIGN.md section), keep README's fault Kinds: list in step with internal/faults, invoke flexnetd/flexbench/flexctl only with flags they define, cite only make targets, tests and Go names that exist, and cite ROADMAP.md without item numbers." >&2
    exit 1
fi
echo "checkdocs: OK — every package documented; internal packages cite DESIGN.md; README lists every fault kind; every documented flexnetd/flexbench/flexctl flag exists; every cited make target, test and Go name exists; no ROADMAP item is cited by number."
