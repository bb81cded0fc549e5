#!/usr/bin/env bash
# Replay the mutation registry, tests/mutants.txt: apply each mutant to a
# scratch copy of the working tree, run the test that must catch it, and
# list the survivors.  The replay is run by hand; scripts/verify.sh runs
# only the check.
#
#   scripts/mutants.sh [SCRATCH_DIR]     (default: a fresh mktemp -d)
#   scripts/mutants.sh --check           check the registry, build nothing
#
# A registry line is tab-separated fields, split on every tab, so a field
# may be empty: a file, a text that must occur in it exactly once, its
# replacement (`\n` and `\t` stand for a newline and a tab in both; an
# empty one deletes the text), further text / replacement pairs for a
# mutant of several edits, and last the `cargo test` arguments of the test
# that must fail.  Blank lines and lines starting with `#` are skipped.
# The copy builds into SCRATCH_DIR/target and keeps its workload cache in
# SCRATCH_DIR/workload-cache.  Exits 1 when a mutant survives, when a text
# does not occur exactly once, or when a mutant does not compile.
# `--check` exits 1 when a line is not text / replacement pairs between a
# file and test arguments, or when a text does not occur exactly once in
# its file as the edits before it leave it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
check=0
if [[ ${1:-} == --check ]]; then
    check=1
    scratch=$(mktemp -d)
    trap 'rm -rf "$scratch"' EXIT
    tree=$root
else
    scratch=${1:-$(mktemp -d)}
    tree="$scratch/tree"
    rm -rf "$tree"
    mkdir -p "$tree"
    (cd "$root" && git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf -) |
        (cd "$tree" && tar -xf -)
    export CARGO_TARGET_DIR="$scratch/target"
    export ROBUSTMAP_WORKLOAD_CACHE="$scratch/workload-cache"
fi

# `text` and `replacement` arrive as arguments; perl reads them literally.
count() { perl -0777 -ne 'BEGIN { ($t = shift) =~ s/\\n/\n/g; $t =~ s/\\t/\t/g }
    $n = () = /\Q$t\E/g; print $n' "$2" "$1"; }
apply() { perl -0777 -pi -e 'BEGIN { ($t, $r) = splice @ARGV, 0, 2;
    for ($t, $r) { s/\\n/\n/g; s/\\t/\t/g } } s/\Q$t\E/$r/' "$2" "$3" "$1"; }

survivors=0 broken=0 n=0
while IFS= read -r line; do
    [[ -z "$line" || "$line" == \#* ]] && continue
    n=$((n + 1))
    # Split on each tab: `read -a` would merge a run of tabs, and with it
    # drop an empty replacement.
    field=() rest=$line
    while [[ "$rest" == *$'\t'* ]]; do
        field+=("${rest%%$'\t'*}")
        rest=${rest#*$'\t'}
    done
    field+=("$rest")
    file=${field[0]} args=${field[-1]} edits=()
    ((${#field[@]} > 2)) && edits=("${field[@]:1:${#field[@]}-2}")
    label="$file: ${field[1]:-}"
    label=${label:0:80}
    problem= edited=
    if ((${#edits[@]} == 0 || ${#edits[@]} % 2 != 0 || ${#args} == 0)); then
        problem="not text / replacement pairs between a file and test arguments"
    elif [[ ! -f "$tree/$file" ]]; then
        problem="no such file"
    else
        # The replay edits the tree's file and restores it; the check edits
        # a copy, for the tree is then the repository itself.
        edited="$tree/$file"
        ((check)) && edited="$scratch/edited"
        cp "$tree/$file" "$scratch/pristine"
        cp "$tree/$file" "$scratch/edited"
        for ((i = 0; i < ${#edits[@]} && ! ${#problem}; i += 2)); do
            found=$(count "$edited" "${edits[i]}")
            if [[ "$found" == 1 ]]; then
                apply "$edited" "${edits[i]}" "${edits[i + 1]}"
            else
                problem="\"${edits[i]:0:40}\" occurs $found times"
            fi
        done
    fi
    # shellcheck disable=SC2086 # the registry's test arguments split on spaces
    if [[ -n "$problem" ]]; then
        echo "BROKEN   $label — $problem"
        broken=$((broken + 1))
    elif ((check)); then
        :
    elif ! (cd "$tree" && cargo test -q --no-run $args >/dev/null 2>&1); then
        echo "BROKEN   $label — the mutant does not compile"
        broken=$((broken + 1))
    elif (cd "$tree" && cargo test -q $args >/dev/null 2>&1); then
        echo "SURVIVED $label — cargo test $args passed"
        survivors=$((survivors + 1))
    else
        echo "killed   $label — by cargo test $args"
    fi
    if ((!check)) && [[ -n "$edited" ]]; then
        cp "$scratch/pristine" "$tree/$file"
    fi
done < "$root/tests/mutants.txt"
if ((check)); then
    echo "mutants: $n checked, broken: $broken"
else
    echo "mutants: $n, survived: $survivors, broken: $broken"
fi
[[ $survivors == 0 && $broken == 0 ]]
