#!/usr/bin/env bash
# End-to-end checks of the sweep supervisor (`sstsim sweep
# --distributed N`) beyond the kill-and-resume path chaos_smoke.sh
# covers:
#
#   poison  a manifest point carrying fault.chaos_exit_cycle kills every
#           attempt of its jobs: the sweep must exit 6 (quarantine),
#           name the failure in a ran=false record for each of them, and
#           leave every other record byte-identical to a sequential
#           sweep's; with --quiet it must still exit 6 and print no
#           info: line.
#   stall   each job's first attempt stalls (heartbeats muted) for
#           longer than the lease timeout: the scoreboard must count
#           timeouts, and the aggregate JSON must still be byte-identical
#           to a sequential sweep's.
#   verify  `--distributed 2 --verify` must equal `-j 2 --verify` byte
#           for byte.
#   all     all three, in that order.
#
# Usage: scripts/supervisor_faults.sh [sstsim-binary] [case] [scratch-dir]
#   sstsim-binary: default build/tools/sstsim
#   case:          poison | stall | verify | all (default all)
#   scratch-dir:   default a fresh mktemp -d (kept on failure for
#                  post-mortem: supervisor output and worker logs live
#                  there)
set -euo pipefail
cd "$(dirname "$0")/.."

SSTSIM="${1:-build/tools/sstsim}"
CASE="${2:-all}"
SCRATCH="${3:-$(mktemp -d /tmp/sst-supervisor.XXXXXX)}"
MANIFEST=examples/sweep_smoke.cfg
mkdir -p "$SCRATCH"

die() {
    echo "FAIL ($CASE): $* (scratch kept in $SCRATCH)" >&2
    exit 1
}

# Reads the named tally off the scoreboard line in file $2.
tally() {
    sed -n "s/.* \([0-9]\+\) $1.*/\1/p" "$2"
}

poison() {
    local dir="$SCRATCH/poison"
    mkdir -p "$dir"
    # Two sweep points, one poisoned: three presets each.
    cat > "$dir/poison.cfg" <<'EOF'
sweep.name         = poison
sweep.seed         = 42
sweep.length_scale = 0.1
preset   = inorder, sst2, ooo-small
workload = hash_join
fault.chaos_exit_cycle = 0, 5000
EOF
    "$SSTSIM" sweep "$dir/poison.cfg" -j 2 --quiet \
        --resume "$dir/seq" --json "$dir/sequential.json"

    local code=0
    "$SSTSIM" sweep "$dir/poison.cfg" --distributed 2 \
        --resume "$dir/dist" --max-attempts 2 --backoff-base-ms 20 \
        --json "$dir/distributed.json" > "$dir/supervisor.out" || code=$?
    [ "$code" -eq 6 ] || die "exit code $code, want 6 (quarantine)"
    [ "$(tally quarantined "$dir/supervisor.out")" = 3 ] ||
        die "scoreboard does not show 3 quarantined jobs"
    local unrun
    unrun=$(grep -o '"ran":false,"error":"quarantined after 2 attempts' \
        "$dir/distributed.json" | wc -l)
    [ "$unrun" -eq 3 ] || die "$unrun ran=false quarantine records, want 3"

    # The poisoned jobs never finish a record; every other one must
    # match the sequential sweep's byte for byte.
    local kept=0
    for rec in "$dir"/dist/job-*.json; do
        cmp "$rec" "$dir/seq/$(basename "$rec")" ||
            die "$(basename "$rec") differs from the sequential record"
        kept=$((kept + 1))
    done
    [ "$kept" -eq 3 ] || die "$kept finished records, want 3"

    # --quiet silences the per-child status lines; only the quarantine
    # warnings (stderr) remain to explain the exit code.
    code=0
    "$SSTSIM" sweep "$dir/poison.cfg" --distributed 2 --quiet \
        --resume "$dir/quiet" --max-attempts 2 --backoff-base-ms 20 \
        > "$dir/quiet.out" 2> "$dir/quiet.err" || code=$?
    [ "$code" -eq 6 ] || die "--quiet exit code $code, want 6"
    if grep -q "info:" "$dir/quiet.out" "$dir/quiet.err"; then
        die "--quiet run printed info: lines"
    fi
    echo "OK (poison): exit 6, 3 quarantined, 3 records byte-identical," \
        "--quiet prints no info: lines"
}

stall() {
    local dir="$SCRATCH/stall"
    mkdir -p "$dir"
    "$SSTSIM" sweep "$MANIFEST" -j 2 --quiet --json "$dir/sequential.json"
    "$SSTSIM" sweep "$MANIFEST" --distributed 3 --resume "$dir/artifacts" \
        --snap-every 20000 --lease-timeout-ms 1000 \
        --chaos-stall-cycle 30000 --chaos-stall-ms 4000 \
        --json "$dir/distributed.json" > "$dir/supervisor.out"
    local timeouts
    timeouts=$(tally timeouts "$dir/supervisor.out")
    [ "${timeouts:-0}" -gt 0 ] || die "no lease timeouts recorded"
    cmp "$dir/sequential.json" "$dir/distributed.json" ||
        die "stalled distributed sweep JSON differs from sequential"
    echo "OK (stall): $timeouts lease timeouts, aggregate JSON byte-identical"
}

verify() {
    local dir="$SCRATCH/verify"
    mkdir -p "$dir"
    "$SSTSIM" sweep "$MANIFEST" -j 2 --verify --quiet \
        --json "$dir/threads.json"
    "$SSTSIM" sweep "$MANIFEST" --distributed 2 --verify --quiet \
        --resume "$dir/artifacts" --json "$dir/distributed.json"
    grep -q '"arch_ok":true' "$dir/distributed.json" ||
        die "no golden verdict in the distributed records"
    cmp "$dir/threads.json" "$dir/distributed.json" ||
        die "--distributed --verify JSON differs from -j --verify"
    echo "OK (verify): --distributed 2 --verify == -j 2 --verify"
}

case "$CASE" in
poison | stall | verify) "$CASE" ;;
all) poison && stall && verify ;;
*) echo "unknown case '$CASE' (poison | stall | verify | all)" >&2
   exit 64 ;;
esac
rm -rf "$SCRATCH"
