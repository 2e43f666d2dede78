#!/usr/bin/env bash
# fleetd end-to-end smoke: submit a checkpointed campaign, kill -9 the
# server mid-run, restart it, resume, and require the final artifacts —
# day series, wear ledger, final aggregate, and the sim-domain journal
# events — to be byte-identical to an uninterrupted run of the same
# campaign. A last leg runs the campaign to the end on a disk whose
# checkpoint creates fail past the retry budget, so one cell is carried in
# memory (checkpointing paused, DESIGN.md §13) and its results must match
# too. Also exercises the ops plane: /metrics must serve non-empty
# Prometheus output and the crash-surviving event journal must keep its
# sequence numbers contiguous across the kill. This is the ISSUE's
# kill-and-resume acceptance check at CI scale; the in-process
# equivalents (more seeds, more shard/worker shapes) live in
# internal/fleetd's tests.
#
# Everything runs in a mktemp -d scratch dir, removed on exit. Set
# FLEETD_SMOKE_ARTIFACTS to a directory to keep copies of the fetched
# artifacts (CI uploads these).
set -euo pipefail

cd "$(dirname "$0")/.."
OUT=$(mktemp -d "${TMPDIR:-/tmp}/fleetd-smoke.XXXXXX")

SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    if [ -n "${FLEETD_SMOKE_ARTIFACTS:-}" ]; then
        mkdir -p "$FLEETD_SMOKE_ARTIFACTS"
        cp "$OUT"/*.csv "$OUT"/*.json "$OUT"/*.jsonl "$OUT"/*.txt "$OUT"/*.log "$FLEETD_SMOKE_ARTIFACTS/" 2>/dev/null || true
    fi
    rm -rf "$OUT"
}
trap cleanup EXIT

go build -o "$OUT/fleetd" ./cmd/fleetd

ADDR="127.0.0.1:${FLEETD_SMOKE_PORT:-17071}"
BASE="http://$ADDR"
SPEC='{"name":"smoke","devices":6,"days":12,"seed":7,"scale":65536,"buggy":0.2,"attack":0.2,"wear_trace":true,"shards":2,"workers":2,"checkpoint_every":2}'

start_server() { # $1 = data dir, rest = extra serve flags
    local data="$1"; shift
    "$OUT/fleetd" serve -addr "$ADDR" -data "$data" "$@" 2>>"$OUT/server.log" &
    SERVER_PID=$!
    for _ in $(seq 1 50); do
        if curl -sf "$BASE/v1/campaigns" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "fleetd_smoke: server did not come up on $ADDR" >&2
    exit 1
}

fetch_artifacts() { # $1 = campaign id, $2 = prefix
    curl -sf "$BASE/v1/campaigns/$1/series" >"$OUT/$2-series.csv"
    curl -sf "$BASE/v1/campaigns/$1/ledger" >"$OUT/$2-ledger.csv"
    curl -sf "$BASE/v1/campaigns/$1/result" >"$OUT/$2-result.json"
    curl -sf "$BASE/v1/campaigns/$1/events?format=jsonl" >"$OUT/$2-events.jsonl"
    # The determinism comparison covers only sim-domain events, shorn of
    # their ops envelope (seq, wall_ms): scheduling and process history
    # legitimately change the ops events around them.
    grep '"sim":true' "$OUT/$2-events.jsonl" \
        | sed -e 's/"seq":[0-9]*,//' -e 's/"wall_ms":[0-9]*,//' >"$OUT/$2-sim-events.jsonl"
}

check_journal() { # $1 = prefix: non-empty journal, seq contiguous from 1
    [ -s "$OUT/$1-events.jsonl" ] || { echo "fleetd_smoke: $1 journal is empty" >&2; exit 1; }
    sed -n 's/.*"seq":\([0-9]*\).*/\1/p' "$OUT/$1-events.jsonl" | awk '
        $1 != NR { printf "fleetd_smoke: seq %s at journal line %d (gap or duplicate)\n", $1, NR; exit 1 }'
}

check_no_tmp() { # $1 = data dir: adoption must have swept checkpoint temporaries
    STRAYS=$(find "$1" -name '*.tmp' 2>/dev/null || true)
    [ -z "$STRAYS" ] || { echo "fleetd_smoke: stray checkpoint temporaries after restart:" >&2; echo "$STRAYS" >&2; exit 1; }
}

echo "fleetd_smoke: reference run (uninterrupted, runtrace recording on)"
start_server "$OUT/data-ref"
# Record execution spans for the whole reference run. The crash and fault
# runs below record nothing — the byte-identical comparisons at the end
# double as the tracing-is-invisible check (DESIGN.md §14).
"$OUT/fleetd" trace -addr "$BASE" start >/dev/null
REF_ID=$(curl -sf -X POST -d "$SPEC" "$BASE/v1/campaigns" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
"$OUT/fleetd" wait -addr "$BASE" -every 500ms "$REF_ID" >/dev/null
fetch_artifacts "$REF_ID" ref
check_journal ref
curl -sf "$BASE/metrics" >"$OUT/metrics.txt"
[ -s "$OUT/metrics.txt" ] || { echo "fleetd_smoke: /metrics is empty" >&2; exit 1; }
grep -q '^fleetd_cells_computed_total ' "$OUT/metrics.txt" \
    || { echo "fleetd_smoke: /metrics missing fleetd_cells_computed_total" >&2; exit 1; }
grep -q '^# TYPE fleetd_phase_seconds histogram$' "$OUT/metrics.txt" \
    || { echo "fleetd_smoke: /metrics missing the fleetd_phase_seconds histogram" >&2; exit 1; }
grep -q '^fleetd_runtime_goroutines ' "$OUT/metrics.txt" \
    || { echo "fleetd_smoke: /metrics missing fleetd_runtime_goroutines" >&2; exit 1; }
# Trace round-trip: stop the window, fetch the Chrome trace-event file,
# and require real simulate spans in it.
"$OUT/fleetd" trace -addr "$BASE" stop >/dev/null
"$OUT/fleetd" trace -addr "$BASE" -o "$OUT/trace.json" fetch 2>/dev/null
grep -q '"traceEvents"' "$OUT/trace.json" \
    || { echo "fleetd_smoke: fetched trace is not a Chrome trace-event file" >&2; exit 1; }
grep -q '"simulate"' "$OUT/trace.json" \
    || { echo "fleetd_smoke: fetched trace has no simulate spans" >&2; exit 1; }
# The Go profiling endpoints ride the same ops plane.
curl -sf "$BASE/debug/pprof/" >/dev/null \
    || { echo "fleetd_smoke: /debug/pprof/ not serving" >&2; exit 1; }
kill -9 "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=""

echo "fleetd_smoke: interrupted run (kill -9 mid-campaign)"
start_server "$OUT/data-crash"
CRASH_ID=$(curl -sf -X POST -d "$SPEC" "$BASE/v1/campaigns" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
sleep 1.5  # let it commit some epochs, then die mid-write
kill -9 "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=""

echo "fleetd_smoke: restart, resume, finish"
start_server "$OUT/data-crash"
# A kill -9 can land mid-checkpoint-write; adoption must leave the data
# dir consistent — every cell fully renamed, every orphaned .tmp swept.
check_no_tmp "$OUT/data-crash"
STATE=$(curl -sf "$BASE/v1/campaigns/$CRASH_ID" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
[ "$STATE" = "paused" ] || { echo "fleetd_smoke: adopted state = $STATE, want paused" >&2; exit 1; }
curl -sf -X POST "$BASE/v1/campaigns/$CRASH_ID/resume" >/dev/null
"$OUT/fleetd" wait -addr "$BASE" -every 500ms "$CRASH_ID" >/dev/null
fetch_artifacts "$CRASH_ID" crash
# The journal survived a kill -9 (fsync-per-append JSONL): still
# non-empty and contiguously sequenced across the process boundary.
check_journal crash
grep -q '"type":"adopted"' "$OUT/crash-events.jsonl" \
    || { echo "fleetd_smoke: crash journal lost the adoption record" >&2; exit 1; }
kill -9 "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=""

echo "fleetd_smoke: bad-disk run (host-fault injection + kill -9 mid-checkpoint)"
# Checkpoint syncs fail EIO on a schedule and one journal write hits
# ENOSPC: the server must retry/degrade per DESIGN.md §13 while the
# campaign keeps its results exact. The kill lands while checkpoints are
# in flight, so the restart also proves the .tmp sweep.
FAULT_PLAN='class=checkpoint,fault=eio,on=sync,at=2;5;9|class=journal,fault=enospc,on=write,at=4'
start_server "$OUT/data-fault" -host-fault-plan "$FAULT_PLAN"
FAULT_ID=$(curl -sf -X POST -d "$SPEC" "$BASE/v1/campaigns" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
sleep 1.5  # die with checkpoints in flight under the fault plan
kill -9 "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=""

echo "fleetd_smoke: restart on a healed disk, resume, finish"
start_server "$OUT/data-fault"
check_no_tmp "$OUT/data-fault"
STATE=$(curl -sf "$BASE/v1/campaigns/$FAULT_ID" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
[ "$STATE" = "paused" ] || { echo "fleetd_smoke: fault-run adopted state = $STATE, want paused" >&2; exit 1; }
curl -sf -X POST "$BASE/v1/campaigns/$FAULT_ID/resume" >/dev/null
"$OUT/fleetd" wait -addr "$BASE" -every 500ms "$FAULT_ID" >/dev/null
fetch_artifacts "$FAULT_ID" fault
check_journal fault
kill -9 "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=""

echo "fleetd_smoke: degraded run (checkpoint creates fail past the retry budget, no kill)"
# Creates 3..5 are the three attempts at shard 0's epoch 2: that cell is
# computed with its end-of-epoch frames carried in memory, and every later
# cell is written again, the next epoch from the carry.
start_server "$OUT/data-degraded" -host-fault-plan 'class=checkpoint,fault=enospc,on=create,from=3,until=6'
DEG_ID=$(curl -sf -X POST -d "$SPEC" "$BASE/v1/campaigns" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
"$OUT/fleetd" wait -addr "$BASE" -every 500ms "$DEG_ID" >/dev/null
fetch_artifacts "$DEG_ID" degraded
check_journal degraded
for ev in checkpoint_paused checkpoint_resumed; do
    N=$(grep -c "\"type\":\"$ev\"" "$OUT/degraded-events.jsonl" || true)
    [ "$N" = 1 ] || { echo "fleetd_smoke: degraded journal has $N $ev events, want 1" >&2; exit 1; }
done
kill -9 "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=""

cmp "$OUT/ref-series.csv" "$OUT/crash-series.csv"
cmp "$OUT/ref-ledger.csv" "$OUT/crash-ledger.csv"
cmp "$OUT/ref-result.json" "$OUT/crash-result.json"
cmp "$OUT/ref-sim-events.jsonl" "$OUT/crash-sim-events.jsonl"
cmp "$OUT/ref-series.csv" "$OUT/fault-series.csv"
cmp "$OUT/ref-ledger.csv" "$OUT/fault-ledger.csv"
cmp "$OUT/ref-result.json" "$OUT/fault-result.json"
cmp "$OUT/ref-sim-events.jsonl" "$OUT/fault-sim-events.jsonl"
cmp "$OUT/ref-series.csv" "$OUT/degraded-series.csv"
cmp "$OUT/ref-ledger.csv" "$OUT/degraded-ledger.csv"
cmp "$OUT/ref-result.json" "$OUT/degraded-result.json"
cmp "$OUT/ref-sim-events.jsonl" "$OUT/degraded-sim-events.jsonl"
echo "fleetd_smoke: OK — kill -9 + resume (clean and faulty disk) and a degraded run are byte-identical to the uninterrupted run (series, ledger, result, sim events)"
