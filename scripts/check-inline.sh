#!/usr/bin/env bash
# Inlining guard for the event engine's hot path: fails unless the
# compiler reports each function below as inlinable. A change that
# pushes one over the inlining budget costs every scheduled event a
# call; without a check it shows up only later, as a slower benchmark.
#
#   scripts/check-inline.sh        (or: make inline)
set -euo pipefail

want=(
    '(*Engine).insert'
    '(*Engine).Disarm'
    '(*Engine).AfterCall'
)

report=$("${GO:-go}" build -gcflags=-m ./internal/sim 2>&1)
rc=0
for fn in "${want[@]}"; do
    if grep -qF "can inline $fn" <<<"$report"; then
        echo "check-inline: ok $fn"
    else
        echo "check-inline: FAIL $fn is not inlinable" >&2
        rc=1
    fi
done
exit $rc
