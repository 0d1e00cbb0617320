#!/bin/sh
# Crash-recovery smoke gate for streaming studies: run a small
# checkpointed study, kill it (SIGKILL, via the scheduler's chaos hook)
# after its first checkpointed chunk, resume it with --resume, and
# require the merged CSV to be identical — modulo the wall-clock time_ms
# column — to an uninterrupted run, and that `evaluate --from-csv`
# renders the merged CSV's summary.  Also checks that resuming a
# directory with no checkpoint fails loudly instead of silently starting
# fresh.
#
# Everything gated here is deterministic (row identity, manifest shape,
# exit codes), so the script behaves the same under CI=1 and locally.
# Set STREAM_ARTIFACTS_DIR to keep the manifest, shards and merged CSVs
# (e.g. for a CI artifact upload).
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

total="${STREAM_TOTAL:-4}"
jobs="${STREAM_JOBS:-2}"
seed="${STREAM_SEED:-7}"

dune build bin/specrepair.exe
exe=_build/default/bin/specrepair.exe

# 1. Arm the crash hook: the scheduler parent SIGKILLs its own process
#    right after the first chunk is checkpointed — the overnight study
#    dying mid-run.  The command must die abnormally, leaving a manifest
#    and at least one shard but no merged CSV.
if SPECREPAIR_SCHED_CRASH_AFTER_CHUNKS=1 "$exe" study \
    --dir "$workdir/crashed" --total "$total" --jobs "$jobs" \
    --technique ATR --seed "$seed" --quiet >/dev/null 2>&1; then
    echo "stream_smoke: the crash hook never fired (run completed)" >&2
    exit 1
fi
if [ ! -f "$workdir/crashed/manifest.json" ]; then
    echo "stream_smoke: crashed run left no manifest" >&2
    exit 1
fi
if ! ls "$workdir/crashed"/shard_*.res >/dev/null 2>&1; then
    echo "stream_smoke: crashed run checkpointed no shard" >&2
    exit 1
fi
if [ -f "$workdir/crashed/results.csv" ]; then
    echo "stream_smoke: crashed run merged a CSV it must not have" >&2
    exit 1
fi

# 2. Resume: only the pending rows are computed, the run completes, and
#    the shards merge into a CSV.
"$exe" study --dir "$workdir/crashed" --total "$total" --jobs "$jobs" \
    --technique ATR --seed "$seed" --quiet --resume >/dev/null

# 3. The uninterrupted reference run.
"$exe" study --dir "$workdir/clean" --total "$total" --jobs "$jobs" \
    --technique ATR --seed "$seed" --quiet >/dev/null

# 4. Byte-identical modulo the wall-clock column.
cut -d, -f1-8 "$workdir/crashed/results.csv" > "$workdir/crashed.cols"
cut -d, -f1-8 "$workdir/clean/results.csv" > "$workdir/clean.cols"
if ! cmp -s "$workdir/crashed.cols" "$workdir/clean.cols"; then
    echo "stream_smoke: crash+resume CSV diverged from the clean run:" >&2
    diff "$workdir/crashed.cols" "$workdir/clean.cols" >&2 || true
    exit 1
fi

# 5. The tables render from the merged CSV: a streamed study is `study`
#    followed by `evaluate --from-csv`, and every streamed variant must
#    reach the summary.
if ! summary=$("$exe" evaluate --from-csv "$workdir/clean/results.csv" \
    --show summary); then
    echo "stream_smoke: evaluate --from-csv failed on the merged CSV" >&2
    exit 1
fi
if ! printf '%s\n' "$summary" | grep -qx "SUMMARY ($total specifications)"; then
    echo "stream_smoke: expected SUMMARY ($total specifications), got:" >&2
    printf '%s\n' "$summary" | head -1 >&2
    exit 1
fi

# 6. Resuming a checkpoint that does not exist is an error, never a
#    silent fresh start.
if "$exe" study --dir "$workdir/nothing" --total "$total" \
    --technique ATR --seed "$seed" --quiet --resume >/dev/null 2>&1; then
    echo "stream_smoke: --resume without a manifest did not fail" >&2
    exit 1
fi

if [ -n "${STREAM_ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$STREAM_ARTIFACTS_DIR"
    cp "$workdir/crashed/manifest.json" "$STREAM_ARTIFACTS_DIR/"
    cp "$workdir/crashed"/shard_*.res "$STREAM_ARTIFACTS_DIR/" 2>/dev/null || true
    cp "$workdir/crashed/results.csv" "$STREAM_ARTIFACTS_DIR/results_resumed.csv"
    cp "$workdir/clean/results.csv" "$STREAM_ARTIFACTS_DIR/results_clean.csv"
fi

echo "stream_smoke: ok ($total rows x $jobs jobs; killed after first chunk, resumed, merged CSV identical modulo time_ms, summary rendered)"
