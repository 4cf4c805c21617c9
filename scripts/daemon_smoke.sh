#!/usr/bin/env bash
# Smoke test for the twodprofd daemon: start it on an ephemeral port, replay
# a workload through twodprof-client with --verify (which diffs the remote
# report against an in-process run bit-for-bit) and --trace-out (which
# stitches client and daemon spans into one Chrome trace), then check the
# daemon shuts down cleanly on SIGTERM.
#
# After the replay, a watch soak drives two concurrent sessions of a
# drifting synthetic workload into one shared program and asserts a live
# `watch` subscription, made before the drivers start, sees at least one
# drift event with zero frame-decode errors daemon-side.
#
# The stitched trace is left at TRACE_OUT (default
# target/daemon-smoke/trace.json) and the watch output at WATCH_OUT
# (default target/daemon-smoke/watch.log) so CI can upload both as
# artifacts.
set -euo pipefail

BIN_DIR="${BIN_DIR:-target/release}"
TRACE_OUT="${TRACE_OUT:-target/daemon-smoke/trace.json}"
WATCH_OUT="${WATCH_OUT:-target/daemon-smoke/watch.log}"
WORK_DIR="$(mktemp -d)"
ADDR_FILE="$WORK_DIR/addr"
DAEMON_LOG="$WORK_DIR/twodprofd.log"

cleanup() {
    if [[ -n "${DAEMON_PID:-}" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK_DIR"
}
trap cleanup EXIT

# fast-folding stream geometry so the watch soak sees drift in seconds
"$BIN_DIR/twodprofd" --addr 127.0.0.1:0 --addr-file "$ADDR_FILE" \
    --stream-slice-len 500 --stream-exec-threshold 16 \
    --stream-window 4 --stream-hysteresis 1 >"$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!

# wait for the daemon to publish its bound address
for _ in $(seq 1 100); do
    [[ -s "$ADDR_FILE" ]] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$DAEMON_LOG"; echo "daemon died before listening"; exit 1; }
    sleep 0.1
done
[[ -s "$ADDR_FILE" ]] || { cat "$DAEMON_LOG"; echo "daemon never wrote its address"; exit 1; }
ADDR="$(cat "$ADDR_FILE")"
echo "daemon up at $ADDR (pid $DAEMON_PID)"

mkdir -p "$(dirname "$TRACE_OUT")"
"$BIN_DIR/twodprof-client" replay gzip train --scale tiny --addr "$ADDR" --verify \
    --trace-out "$TRACE_OUT"

# the stitched trace must exist, be non-trivial JSON, and carry spans from
# both sides of the wire (client pid 1, daemon pid 2)
[[ -s "$TRACE_OUT" ]] || { echo "no trace written to $TRACE_OUT"; exit 1; }
grep -q '"traceEvents"' "$TRACE_OUT" || { echo "$TRACE_OUT is not a Chrome trace"; exit 1; }
grep -q '"name":"client.replay"' "$TRACE_OUT" || { echo "trace missing client spans"; exit 1; }
grep -q '"name":"serve.frame' "$TRACE_OUT" || { echo "trace missing daemon spans"; exit 1; }
echo "stitched trace OK: $TRACE_OUT"

# the metrics endpoint must answer with exposition text reflecting the replay
STATS="$("$BIN_DIR/twodprof-client" stats --addr "$ADDR")"
grep -q '^serve_sessions_finished_total 1$' <<<"$STATS" || {
    echo "$STATS"
    echo "stats output missing finished-session counter"
    exit 1
}
grep -q '^serve_events_total [1-9]' <<<"$STATS" || {
    echo "$STATS"
    echo "stats output missing ingested-events counter"
    exit 1
}
echo "stats endpoint OK"

# watch soak: two concurrent sessions drive a phase-flipping synthetic
# workload into the shared program "soak"; a live watch must deliver at
# least one drift event. A one-event session registers the program first,
# and the drivers start only once the watch holds its snapshot, so the
# subscription cannot land after the drift it should see.
mkdir -p "$(dirname "$WATCH_OUT")"
"$BIN_DIR/twodprof-client" drive soak --addr "$ADDR" --events 1 >/dev/null
timeout 120 "$BIN_DIR/twodprof-client" watch soak --addr "$ADDR" --limit 1 >"$WATCH_OUT" 2>&1 &
WATCH_PID=$!
for _ in $(seq 1 100); do
    grep -q '^program "soak"' "$WATCH_OUT" && break
    kill -0 "$WATCH_PID" 2>/dev/null || break
    sleep 0.1
done
grep -q '^program "soak"' "$WATCH_OUT" || { cat "$WATCH_OUT"; echo "watch never printed its snapshot"; exit 1; }

"$BIN_DIR/twodprof-client" drive soak --addr "$ADDR" &
DRIVE1_PID=$!
"$BIN_DIR/twodprof-client" drive soak --addr "$ADDR" &
DRIVE2_PID=$!

wait "$WATCH_PID" || { cat "$WATCH_OUT"; echo "watch never saw a drift event"; exit 1; }
grep -q '^drift: site ' "$WATCH_OUT" || { cat "$WATCH_OUT"; echo "watch output missing drift line"; exit 1; }

wait "$DRIVE1_PID" || { echo "first drive client failed"; exit 1; }
wait "$DRIVE2_PID" || { echo "second drive client failed"; exit 1; }

SOAK_STATS="$("$BIN_DIR/twodprof-client" stats --addr "$ADDR")"
grep -q '^stream_drift_events_total [1-9]' <<<"$SOAK_STATS" || {
    echo "$SOAK_STATS"
    echo "stats output missing drift-event counter"
    exit 1
}
if grep -q '^serve_frame_decode_errors_total [1-9]' <<<"$SOAK_STATS"; then
    echo "$SOAK_STATS"
    echo "frame decode errors during soak"
    exit 1
fi
echo "watch soak OK: $(grep -c '^drift: site ' "$WATCH_OUT") drift event(s) observed"

# graceful shutdown: SIGTERM must drain and exit 0
kill -TERM "$DAEMON_PID"
if ! wait "$DAEMON_PID"; then
    cat "$DAEMON_LOG"
    echo "daemon did not exit cleanly on SIGTERM"
    exit 1
fi
cat "$DAEMON_LOG"
echo "daemon smoke test passed"
