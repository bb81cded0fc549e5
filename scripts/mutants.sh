#!/usr/bin/env bash
# Replay the mutation registry, tests/mutants.txt: apply each mutant to a
# scratch copy of the working tree, run the test that must catch it, and
# list the survivors.  Run by hand; it is not part of scripts/verify.sh.
#
#   scripts/mutants.sh [SCRATCH_DIR]     (default: a fresh mktemp -d)
#
# A registry line is tab-separated fields: a file, a text that must occur
# in it exactly once, its replacement (`\n` and `\t` stand for a newline
# and a tab in both), further text / replacement pairs for a mutant of
# several edits, and last the `cargo test` arguments of the test that must
# fail.  Blank lines and lines starting with `#` are skipped.
# The copy builds into SCRATCH_DIR/target and keeps its workload cache in
# SCRATCH_DIR/workload-cache.  Exits 1 when a mutant survives, when a text
# does not occur exactly once, or when a mutant does not compile.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
scratch=${1:-$(mktemp -d)}
tree="$scratch/tree"
rm -rf "$tree"
mkdir -p "$tree"
(cd "$root" && git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf -) |
    (cd "$tree" && tar -xf -)
export CARGO_TARGET_DIR="$scratch/target"
export ROBUSTMAP_WORKLOAD_CACHE="$scratch/workload-cache"

# `text` and `replacement` arrive as arguments; perl reads them literally.
count() { perl -0777 -ne 'BEGIN { ($t = shift) =~ s/\\n/\n/g; $t =~ s/\\t/\t/g }
    $n = () = /\Q$t\E/g; print $n' "$2" "$1"; }
apply() { perl -0777 -pi -e 'BEGIN { ($t, $r) = splice @ARGV, 0, 2;
    for ($t, $r) { s/\\n/\n/g; s/\\t/\t/g } } s/\Q$t\E/$r/' "$2" "$3" "$1"; }

survivors=0 broken=0 n=0
while IFS=$'\t' read -r -a field; do
    [[ ${#field[@]} == 0 || "${field[0]}" == \#* ]] && continue
    n=$((n + 1))
    file=${field[0]} args=${field[-1]} edits=("${field[@]:1:${#field[@]}-2}")
    label="$file: ${field[1]:0:60}"
    cp "$tree/$file" "$scratch/pristine"
    problem=
    ((${#edits[@]} > 0 && ${#edits[@]} % 2 == 0)) || problem="not text / replacement pairs"
    for ((i = 0; i < ${#edits[@]} && ! ${#problem}; i += 2)); do
        found=$(count "$tree/$file" "${edits[i]}")
        if [[ "$found" == 1 ]]; then
            apply "$tree/$file" "${edits[i]}" "${edits[i + 1]}"
        else
            problem="\"${edits[i]:0:40}\" occurs $found times"
        fi
    done
    # shellcheck disable=SC2086 # the registry's test arguments split on spaces
    if [[ -n "$problem" ]]; then
        echo "BROKEN   $label — $problem"
        broken=$((broken + 1))
    elif ! (cd "$tree" && cargo test -q --no-run $args >/dev/null 2>&1); then
        echo "BROKEN   $label — the mutant does not compile"
        broken=$((broken + 1))
    elif (cd "$tree" && cargo test -q $args >/dev/null 2>&1); then
        echo "SURVIVED $label — cargo test $args passed"
        survivors=$((survivors + 1))
    else
        echo "killed   $label — by cargo test $args"
    fi
    cp "$scratch/pristine" "$tree/$file"
done < "$root/tests/mutants.txt"
echo "mutants: $n, survived: $survivors, broken: $broken"
[[ $survivors == 0 && $broken == 0 ]]
