#!/usr/bin/env bash
# Non-blank, non-test source lines per crate (`crates/*/src`) and in total.
#
#   scripts/loc.sh
#
# A file counts up to its inline test module (a `#[cfg(test)]` line followed
# by `mod <name> {`); a lone `#[cfg(test)]` item above that point counts like
# any other line. Files compiled only under `cfg(test)` — declared as
# `#[cfg(test)] mod <name>;` — do not count at all. Information only: no
# threshold is applied.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every file declared behind `#[cfg(test)] mod <name>;`, one path a line.
test_only_files() {
    local file dir name
    for file in $(find crates/*/src -name '*.rs' | sort); do
        case "$(basename "$file")" in
            lib.rs | main.rs | mod.rs) dir=$(dirname "$file") ;;
            *) dir="${file%.rs}" ;;
        esac
        for name in $(awk '
            cfg && match($0, /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) {
                line = $0
                sub(/^[ \t]*(pub(\([a-z]+\))? )?mod /, "", line)
                sub(/;.*/, "", line)
                print line
            }
            { cfg = ($0 ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) }
        ' "$file"); do
            if [ -f "$dir/$name.rs" ]; then
                echo "$dir/$name.rs"
            elif [ -f "$dir/$name/mod.rs" ]; then
                echo "$dir/$name/mod.rs"
            fi
        done
    done
}

# Non-blank lines of one file before its inline test module.
count_file() {
    awk '
        cfg && /^mod [A-Za-z0-9_]+ *\{/ { cfg = 0; exit }
        cfg { n++; cfg = 0 }
        /^#\[cfg\(test\)\][ \t]*$/ { cfg = 1; next }
        /[^ \t]/ { n++ }
        END { print n + cfg }
    ' "$1"
}

skip=$(test_only_files)
total=0
for crate in crates/*/; do
    crate=${crate%/}
    [ -d "$crate/src" ] || continue
    lines=0
    for file in $(find "$crate/src" -name '*.rs' | sort); do
        if grep -qxF "$file" <<<"$skip"; then
            continue
        fi
        lines=$((lines + $(count_file "$file")))
    done
    printf '%-22s %7d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-22s %7d\n' total "$total"
