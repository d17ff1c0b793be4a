#!/usr/bin/env bash
# Runs `cargo test ARGS...` and fails unless some test binary reports at
# least one passed test, so a name filter that selects no test fails the
# step instead of passing with "0 passed".
#
#   .github/scripts/test-by-name.sh -p ttk-cli serve_shard_and_remote_query_round_trip
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
if ! grep -Eq '^test result: .* [1-9][0-9]* passed;' "$log"; then
    echo "error: \`cargo test $*\` ran no test" >&2
    exit 1
fi
