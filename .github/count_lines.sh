#!/usr/bin/env bash
# Non-test line count of the simulator and its binaries: for every .rs
# file under crates/*/src and src/ (integration tests, examples and
# crates/netsim/src/sim/tests.rs, a test module in a file of its own,
# excluded), count the lines before the first top-level `#[cfg(test)]`
# or `mod tests` line. Prints one number.
#
# Usage: bash .github/count_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' ! -path crates/netsim/src/sim/tests.rs -print0 |
  sort -z |
  xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ || /^mod tests/ { counting = 0 }
    counting { n++ }
    END { print n }
  '
