#!/usr/bin/env bash
# Prints one `sha256  name` line per snapshot file written by a fixed set
# of runs, so two builds' snapshot bytes can be compared with diff:
#
#   runs      the last snap_every= snapshot of every single-core preset
#             on pointer_chase, hash_join and oltp_mix (length_scale=0.1);
#   profile   the `sstsim profile --cache` members (and manifest) of
#             sst2, scout and ooo-large on hash_join;
#   sweep     the job-N.snap checkpoints of examples/sweep_smoke.cfg run
#             with --resume and --snap-every 5000 (each job killed at
#             cycle 12000 so its checkpoint survives).
#
# Any change that must not move snapshot bytes should print the same
# lines as its parent:
#   scripts/snapshot_digests.sh build/tools/sstsim > new.txt
#   scripts/snapshot_digests.sh /path/to/parent/sstsim > old.txt
#   diff old.txt new.txt
#
# A change that moves snapshot bytes on purpose (a formatVersion bump)
# changes every line; name a scratch directory for each build to keep
# the files, and `cmp -l` them to see which bytes moved.
#
# Usage: scripts/snapshot_digests.sh [sstsim-binary] [scratch-dir]
#   sstsim-binary: default build/tools/sstsim
#   scratch-dir:   kept; default a fresh mktemp -d (removed on success)
set -euo pipefail
cd "$(dirname "$0")/.."

SSTSIM="${1:-build/tools/sstsim}"
SCRATCH="${2:-}"
KEEP=1
if [ -z "$SCRATCH" ]; then
    SCRATCH=$(mktemp -d /tmp/sst-digests.XXXXXX)
    KEEP=0
fi
mkdir -p "$SCRATCH"

digest() { # $1 = directory; prints paths relative to it, sorted
    (cd "$1" && find . -type f -name "$2" | LC_ALL=C sort |
        sed 's|^\./||' | xargs -r sha256sum)
}

# Snapshot intervals: every run writes at least one snapshot (the
# shortest, ooo-huge hash_join, takes 13K cycles; pointer_chase takes
# about 0.7M on every preset) and none writes more than a few dozen.
mkdir -p "$SCRATCH/runs"
for preset in inorder scout ea sst2 sst4 sst8 ooo-small ooo-large \
    ooo-huge; do
    for run in pointer_chase:600000 hash_join:10000 oltp_mix:10000; do
        workload=${run%%:*}
        "$SSTSIM" workload="$workload" preset="$preset" length_scale=0.1 \
            snap_every="${run##*:}" \
            snap_out="$SCRATCH/runs/$preset-$workload.snap" > /dev/null
    done
done
digest "$SCRATCH/runs" '*.snap' | sed 's|  |  runs/|'

for preset in sst2 scout ooo-large; do
    "$SSTSIM" profile "$preset" hash_join length_scale=0.1 \
        --cache "$SCRATCH/profile" > /dev/null
done
digest "$SCRATCH/profile" '*' | sed 's|  |  profile/|'

# A finished job deletes its checkpoint, so every job is killed at
# cycle 12000 on its one allowed attempt: the sweep quarantines them all
# (exit 6) and each keeps the checkpoint it wrote at cycle 10000.
code=0
"$SSTSIM" sweep examples/sweep_smoke.cfg --quiet --distributed 2 \
    --resume "$SCRATCH/sweep" --snap-every 5000 --chaos-kill-cycle 12000 \
    --max-attempts 1 > /dev/null 2>&1 || code=$?
if [ "$code" -ne 6 ]; then
    echo "snapshot_digests: sweep exited $code, want 6" >&2
    exit 1
fi
digest "$SCRATCH/sweep" 'job-*.snap' | sed 's|  |  sweep/|'

[ "$KEEP" = 1 ] || rm -rf "$SCRATCH"
