#!/usr/bin/env bash
# The repository benchmark: build, run, check, print. See README.md.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--smoke] [--out FILE] [--break-oracle]
#   benchmark/run.sh --compare A.json B.json
#
# Without --workload every workload runs, each in its own process, and the
# results are gathered in benchmark/out/result.json. The last line of a
# single workload's standard output is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# The driver names the build directory; a developer gets one that the
# .gitignore files cover.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# Cargo's progress goes to standard error, so standard output stays the
# benchmark's own. A build that fails ends the script before any result.
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/proteus-benchmark" "$@"
