#!/bin/sh
# checkdocs.sh — gate the godoc surface.
#
# Every package must carry a package doc comment (a // block adjacent to
# the package clause in some non-test file), and every internal package's
# doc comment must point the reader at DESIGN.md — the design document is
# the spine of this repo, and a package that doesn't say which section
# explains it forces readers to reverse-engineer the mapping. It also
# fails when README's fault "Kinds:" list and the Kind constants in
# internal/faults/faults.go differ in either direction. CI fails on any
# of these.
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
# its main.go — flag.*("name", …), or for flexctl's subcommands
# fs.*("name", …), which covers its -stats/-trace shortcuts too (-h/-help
# come with the flag package). CHANGES.md, ROADMAP.md and BENCH_PR* are
# history and are not scanned.
docs="README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md"
for cmd in flexnetd flexbench flexctl; do
    defined=$(sed -nE 's/.*(flag|fs)\.[A-Za-z0-9]+\("([^"]*)".*/\2/p' "cmd/$cmd/main.go")
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

if [ "$fail" -ne 0 ]; then
    echo "checkdocs: document every package ('// Package <name> ...'; internal packages cite their DESIGN.md section), keep README's fault Kinds: list in step with internal/faults, invoke flexnetd/flexbench/flexctl only with flags they define, and cite ROADMAP.md without item numbers." >&2
    exit 1
fi
echo "checkdocs: OK — every package documented; internal packages cite DESIGN.md; README lists every fault kind; every documented flexnetd/flexbench/flexctl flag exists; no ROADMAP item is cited by number."
