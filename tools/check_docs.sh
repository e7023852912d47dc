#!/usr/bin/env bash
# Documentation hygiene checks, wired up as the `check_docs` ctest
# (label `unit`). Grep-based invariants keep the docs from silently
# drifting away from the tree:
#
#   1. every docs/*.md file is referenced from README.md — the README
#      doc index is the entry point, an unlinked doc is a dead doc;
#   2. every relative markdown link in README.md and docs/*.md
#      resolves to an existing file (http(s) links and pure #anchors
#      are skipped);
#   3. every RECSTACK_* name mentioned in README/docs (env vars such
#      as RECSTACK_NUM_THREADS, macros such as RECSTACK_SPAN, CMake
#      options such as RECSTACK_SANITIZE) still exists somewhere in
#      the source tree, so the docs cannot describe knobs that were
#      renamed or removed;
#   4. every CLI subcommand the binary's usage() advertises is
#      mentioned in README.md and has a `cli_<cmd>` smoke test in
#      tools/CMakeLists.txt, so a new `recstack <cmd>` cannot ship
#      undocumented or untested;
#   5. every ctest label the docs tell the reader to run (`ctest -L
#      foo`, `-L 'a|b'`) is actually assigned to some test in
#      tests/, tools/ or bench/CMakeLists.txt, so a doc cannot
#      recommend a label that selects nothing;
#   6. every metric or span name registered in src/ (a quoted
#      "subsystem.name" passed to a registry counter/gauge/histogram,
#      RECSTACK_SPAN or obs::ScopedSpan) appears in a table of
#      docs/observability.md, which promises the full current set;
#   7. every source file README.md or a docs/*.md file names
#      (`foo.h`, `dir/foo.cc`, `foo.{h,cc}`, `foo.h/.cc`) exists in
#      the tree, so a deleted or renamed file cannot linger in them;
#   8. every quoted "RECSTACK_*" name in src/ and tools/ (the
#      environment variables the code reads) has a row in the env
#      table of docs/reproduction.md, so a new knob cannot ship
#      undocumented; and every row of that table names a variable
#      some quoted "RECSTACK_*" string in src/, tools/ or tests/
#      reads, so a deleted knob cannot keep its row (check 3 alone
#      accepts any mention, e.g. a test's comment).
#
# Usage: tools/check_docs.sh   (run from anywhere; cds to repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
err() {
    echo "check_docs: FAIL: $*" >&2
    fail=1
}

# -- 1. README links every doc -------------------------------------
for doc in docs/*.md; do
    if ! grep -q "$doc" README.md; then
        err "README.md does not reference $doc"
    fi
done

# -- 2. relative markdown links resolve ----------------------------
for md in README.md docs/*.md; do
    dir=$(dirname "$md")
    # Pull out ](target) link targets; tolerate files with no links.
    targets=$(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//' || true)
    while IFS= read -r target; do
        [ -z "$target" ] && continue
        case "$target" in
            http://* | https://* | mailto:* | '#'*) continue ;;
            *' '*) continue ;;  # "](x, y)" inside a code sample, not a link
        esac
        path="${target%%#*}"
        [ -z "$path" ] && continue
        if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
            err "$md: broken relative link ($target)"
        fi
    done <<<"$targets"
done

# -- 3. RECSTACK_* names in docs exist in the tree -----------------
names=$(grep -rhoE 'RECSTACK_[A-Z0-9_]+' README.md docs/*.md | sort -u)
while IFS= read -r name; do
    [ -z "$name" ] && continue
    if ! grep -rqE "\b${name}\b" --include='*.h' --include='*.cc' \
        --include='*.cpp' --include='*.txt' --include='*.cmake' \
        --include='*.sh' src tools tests bench examples \
        CMakeLists.txt 2>/dev/null; then
        err "docs mention ${name}, which no longer appears in the source tree"
    fi
done <<<"$names"

# -- 4. every usage() subcommand is documented in README and tested -
# The usage text lists one "  recstack <cmd> ..." line per
# subcommand; pull the command words out of the CLI source.
cmds=$(grep -oE '"  recstack [a-z]+' tools/recstack_cli.cpp |
    awk '{print $3}' | sort -u)
while IFS= read -r cmd; do
    [ -z "$cmd" ] && continue
    if ! grep -qE "recstack ${cmd}\b" README.md; then
        err "CLI subcommand 'recstack ${cmd}' is not documented in README.md"
    fi
    if ! grep -qE "add_test\(NAME cli_${cmd}([[:space:]]|\$)" \
        tools/CMakeLists.txt; then
        err "CLI subcommand 'recstack ${cmd}' has no cli_${cmd} smoke test in tools/CMakeLists.txt"
    fi
done <<<"$cmds"

# -- 5. ctest labels named in docs select real tests ---------------
# Known labels: LABELS arguments of recstack_test() /
# set_tests_properties() in the three test-defining CMakeLists, plus
# `unit` (the recstack_test default) and `integration`.
known_labels=$(
    {
        grep -hoE 'LABELS [a-z" ;|]+' tests/CMakeLists.txt \
            tools/CMakeLists.txt bench/CMakeLists.txt |
            sed -E 's/^LABELS //'
        echo "unit integration"
    } | tr '";| ' '\n' | sort -u
)
doc_labels=$(grep -rhoE -- "-L '?[a-z|]+'?" README.md docs/*.md |
    sed -E "s/^-L '?//; s/'$//" | tr '|' '\n' | sort -u)
while IFS= read -r label; do
    [ -z "$label" ] && continue
    if ! grep -qxF "$label" <<<"$known_labels"; then
        err "docs tell the reader to run ctest label '${label}', which no test carries"
    fi
done <<<"$doc_labels"

# -- 6. registered metric and span names are in the obs tables ------
# Each source file is flattened to one line first, so a name on the
# line after its call (`.counter(\n "pim.lane_samples")`) still matches.
obs_rows=$(grep -E '^\|' docs/observability.md)
registered=$(
    find src -name '*.cc' -o -name '*.h' | sort | while IFS= read -r f; do
        tr '\n' ' ' <"$f"
        echo
    done | grep -oE '(counter|gauge|histogram|RECSTACK_SPAN|ScopedSpan [a-z_]+)\([[:space:]]*"[a-z_]+\.[a-z_.]+"' |
        grep -oE '"[^"]+"' | tr -d '"' | sort -u || true
)
if [ -z "$registered" ]; then
    err "found no registered metric or span names in src/; check 6's pattern is stale"
fi
while IFS= read -r name; do
    [ -z "$name" ] && continue
    if ! grep -qF "\`${name}\`" <<<"$obs_rows"; then
        err "'${name}' is registered in src/ but missing from the tables in docs/observability.md"
    fi
done <<<"$registered"

# -- 7. source files named in docs exist ---------------------------
# A name matches any file whose path ends in it, so both `foo.h` and
# `serve/foo.h` resolve against src/serve/foo.h.
tree_files=$(find src tools tests bench examples perfbench -type f | sort)
doc_files=$(grep -ohE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.(\{[a-z,]+\}|h/\.cc|h|cc|cpp)\b' \
    README.md docs/*.md | sort -u || true)
while IFS= read -r name; do
    [ -z "$name" ] && continue
    name=${name#../}
    name=${name#./}
    case "$name" in
        *'.{'*)
            base=${name%%.\{*}
            exts=${name#*.\{}
            exts=${exts%\}}
            files=$(tr ',' '\n' <<<"$exts" | sed "s|^|${base}.|")
            ;;
        *.h/.cc) files="${name%.h/.cc}.h ${name%.h/.cc}.cc" ;;
        *) files=$name ;;
    esac
    for f in $files; do
        if ! grep -qE "(^|/)${f//./\\.}\$" <<<"$tree_files"; then
            err "docs name source file ${f}, which does not exist in the tree"
        fi
    done
done <<<"$doc_files"

# -- 8. env vars the code reads have a reproduction.md row ---------
env_rows=$(grep -E '^\| `RECSTACK_' docs/reproduction.md)
read_names=$(grep -rhoE '"RECSTACK_[A-Z0-9_]+"' src tools | tr -d '"' |
    sort -u || true)
if [ -z "$read_names" ]; then
    err "found no quoted RECSTACK_* names in src/ or tools/; check 8's pattern is stale"
fi
while IFS= read -r name; do
    [ -z "$name" ] && continue
    if ! grep -qE "^\| \`${name}(=[^\`]*)?\`" <<<"$env_rows"; then
        err "src/ or tools/ reads ${name}, which has no row in the env table of docs/reproduction.md"
    fi
done <<<"$read_names"
quoted_names=$(grep -rhoE '"RECSTACK_[A-Z0-9_]+"' src tools tests |
    tr -d '"' | sort -u || true)
row_names=$(grep -oE '^\| `RECSTACK_[A-Z0-9_]+' <<<"$env_rows" |
    sed -E 's/^\| `//' || true)
while IFS= read -r name; do
    [ -z "$name" ] && continue
    if ! grep -qxF "$name" <<<"$quoted_names"; then
        err "docs/reproduction.md has an env row for ${name}, which no quoted \"${name}\" in src/, tools/ or tests/ reads"
    fi
done <<<"$row_names"

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_docs: OK"
