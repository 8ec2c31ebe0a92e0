#!/usr/bin/env bash
# Chaos smoke test for the experiment service: run the smoke sweep
# sequentially, then as a 3-worker distributed service whose workers
# are killed (SIGKILL, no unwinding) at a deterministic simulated
# cycle on their first lease attempt, and require the two aggregate
# JSON documents to be byte-identical. This is the service's whole
# contract in one script: leases time out or die, jobs are re-leased
# and resumed from their last checkpoint, and none of that chaos may
# leave a fingerprint in the results.
#
# Usage: scripts/chaos_smoke.sh [sstsim-binary] [scratch-dir]
#   sstsim-binary: default build/tools/sstsim
#   scratch-dir:   default a fresh mktemp -d (kept on failure for
#                  post-mortem: broker output and worker logs live
#                  there)
set -euo pipefail
cd "$(dirname "$0")/.."

SSTSIM="${1:-build/tools/sstsim}"
SCRATCH="${2:-$(mktemp -d /tmp/sst-chaos.XXXXXX)}"
MANIFEST=examples/sweep_smoke.cfg
mkdir -p "$SCRATCH"

echo "== chaos smoke: scratch in $SCRATCH"

# Reference: plain in-process sweep, no service, no chaos.
"$SSTSIM" sweep "$MANIFEST" -j 4 --quiet \
    --json "$SCRATCH/sequential.json"

# Distributed run. Every worker is SIGKILLed at simulated cycle 50000
# of its first attempt at a job (later attempts run clean, so the
# sweep always converges); checkpoints every 20000 cycles mean the
# retry resumes mid-job rather than from cycle 0.
"$SSTSIM" sweep "$MANIFEST" --distributed 3 \
    --resume "$SCRATCH/artifacts" \
    --snap-every 20000 --chaos-kill-cycle 50000 \
    --chaos-kill-attempt 1 --json "$SCRATCH/distributed.json" \
    | tee "$SCRATCH/broker.out"

# The broker must actually have seen the chaos, not sailed through.
grep -q "worker deaths" "$SCRATCH/broker.out"
deaths=$(sed -n 's/.* \([0-9]\+\) worker deaths.*/\1/p' \
    "$SCRATCH/broker.out")
if [ "${deaths:-0}" -eq 0 ]; then
    echo "FAIL: no worker deaths recorded - chaos never fired" >&2
    exit 1
fi

if ! cmp "$SCRATCH/sequential.json" "$SCRATCH/distributed.json"; then
    echo "FAIL: distributed-with-chaos sweep JSON differs from" \
         "sequential (scratch kept in $SCRATCH)" >&2
    exit 1
fi

echo "OK: $deaths worker deaths, aggregate JSON byte-identical"
rm -rf "$SCRATCH"
