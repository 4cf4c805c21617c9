#!/usr/bin/env bash
# Smoke test for the twodprofd exposition plane: start a daemon with its
# HTTP listener on an ephemeral port, then check
#
#   1. /metrics answers 200 with well-formed Prometheus text exposition
#      (every sample line is `name value`, every sample has a # TYPE),
#   2. /healthz answers 200 when idle, flips to 503 with per-shard tier
#      detail while a heavy replay holds a shard in Shed (forced by a tiny
#      memory budget plus a spill dir that cannot exist), and recovers to
#      200 once the session drains; then /metrics, `twodprof-client stats`
#      and /vars agree on sessions opened and on the shard count,
#   3. /vars answers 200 with a JSON snapshot,
#   4. SIGUSR1 dumps the flight recorder to BLACKBOX_OUT and
#      `twodprof-client blackbox --file` decodes it through the checksummed
#      decoder (and the live wire fetch agrees it is non-empty).
#
# The dump is left at BLACKBOX_OUT (default target/http-smoke/blackbox.bin)
# so CI can upload it as an artifact.
set -euo pipefail

BIN_DIR="${BIN_DIR:-target/release}"
BLACKBOX_OUT="${BLACKBOX_OUT:-target/http-smoke/blackbox.bin}"
WORK_DIR="$(mktemp -d)"
ADDR_FILE="$WORK_DIR/addr"
HTTP_ADDR_FILE="$WORK_DIR/http-addr"
DAEMON_LOG="$WORK_DIR/twodprofd.log"

cleanup() {
    if [[ -n "${DAEMON_PID:-}" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK_DIR"
}
trap cleanup EXIT

mkdir -p "$(dirname "$BLACKBOX_OUT")"
# a 16 KiB budget and an impossible spill dir: a recorded session parks its
# recording resident past the budget almost immediately, forcing the shard
# into Shed for as long as the session stays open
"$BIN_DIR/twodprofd" --addr 127.0.0.1:0 --addr-file "$ADDR_FILE" \
    --http-addr 127.0.0.1:0 --http-addr-file "$HTTP_ADDR_FILE" \
    --shards 1 --shard-memory-budget 16384 --spill-threshold 8192 \
    --spill-dir /dev/null/twodprof-nope \
    --timeline-interval 0.2 --blackbox-file "$BLACKBOX_OUT" \
    >"$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
    [[ -s "$ADDR_FILE" && -s "$HTTP_ADDR_FILE" ]] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$DAEMON_LOG"; echo "daemon died before listening"; exit 1; }
    sleep 0.1
done
[[ -s "$ADDR_FILE" && -s "$HTTP_ADDR_FILE" ]] || { cat "$DAEMON_LOG"; echo "daemon never wrote its addresses"; exit 1; }
ADDR="$(cat "$ADDR_FILE")"
HTTP="http://$(cat "$HTTP_ADDR_FILE")"
echo "daemon up at $ADDR, exposition at $HTTP (pid $DAEMON_PID)"

fetch() { # $1 = path, $2 = output file; prints the HTTP status code
    curl -s -o "$2" -w '%{http_code}' --max-time 10 "$HTTP$1"
}

# 1. /metrics: 200, and well-formed exposition text. The per-shard gauges
# register when the shard threads start, a moment after the listener — so
# retry briefly until they appear.
METRICS_OK=
for _ in $(seq 1 100); do
    CODE="$(fetch /metrics "$WORK_DIR/metrics.txt")" || true
    if [[ "$CODE" == 200 ]] && grep -q '^serve_shard0_sessions ' "$WORK_DIR/metrics.txt"; then
        METRICS_OK=1
        break
    fi
    sleep 0.1
done
[[ -n "$METRICS_OK" ]] || { cat "$WORK_DIR/metrics.txt"; echo "/metrics never answered 200 with shard gauges (last code $CODE)"; exit 1; }
awk '
    /^# TYPE / { typed[$3] = 1; next }
    /^#/ || /^$/ { next }
    {
        if (NF != 2) { print "malformed sample line: " $0; bad = 1; next }
        name = $1; sub(/\{.*/, "", name)
        base = name
        sub(/_(bucket|sum|count)$/, "", base)
        if (!(name in typed) && !(base in typed)) {
            print "sample without # TYPE: " $0; bad = 1
        }
    }
    END { exit bad }
' "$WORK_DIR/metrics.txt" || { echo "/metrics is not well-formed exposition text"; exit 1; }
echo "/metrics OK ($(grep -vc '^#' "$WORK_DIR/metrics.txt") sample lines)"

# 2. /healthz: 200 while idle...
CODE="$(fetch /healthz "$WORK_DIR/healthz.txt")"
[[ "$CODE" == 200 ]] || { cat "$WORK_DIR/healthz.txt"; echo "/healthz answered $CODE while idle"; exit 1; }
grep -q '^status: ok$' "$WORK_DIR/healthz.txt" || { cat "$WORK_DIR/healthz.txt"; echo "/healthz body missing ok status"; exit 1; }

# ...then 503 with per-shard detail while a long recorded session holds
# the shard past its budget (a multi-second synthetic drive)
"$BIN_DIR/twodprof-client" drive shedder --addr "$ADDR" --events 4000000 \
    >"$WORK_DIR/drive.log" 2>&1 &
DRIVE_PID=$!
SHED_SEEN=
for _ in $(seq 1 400); do
    CODE="$(fetch /healthz "$WORK_DIR/healthz.txt")" || true
    if [[ "$CODE" == 503 ]]; then SHED_SEEN=1; break; fi
    kill -0 "$DRIVE_PID" 2>/dev/null || break
    sleep 0.05
done
[[ -n "$SHED_SEEN" ]] || { cat "$WORK_DIR/drive.log"; echo "/healthz never went 503 under forced shed"; exit 1; }
grep -q '^status: shedding$' "$WORK_DIR/healthz.txt" || { cat "$WORK_DIR/healthz.txt"; echo "503 body missing shedding status"; exit 1; }
grep -q '^shard 0: shed, ' "$WORK_DIR/healthz.txt" || { cat "$WORK_DIR/healthz.txt"; echo "503 body missing per-shard tier detail"; exit 1; }
echo "/healthz shed detection OK: $(grep '^shard 0:' "$WORK_DIR/healthz.txt")"

wait "$DRIVE_PID" || { cat "$WORK_DIR/drive.log"; echo "drive client failed"; exit 1; }

# ...and recovery to 200 once the heavy session has drained
RECOVERED=
for _ in $(seq 1 100); do
    CODE="$(fetch /healthz "$WORK_DIR/healthz.txt")" || true
    if [[ "$CODE" == 200 ]]; then RECOVERED=1; break; fi
    sleep 0.1
done
[[ -n "$RECOVERED" ]] || { cat "$WORK_DIR/healthz.txt"; echo "/healthz never recovered after drain"; exit 1; }
echo "/healthz recovery OK"

# ...and, with the daemon quiet, every read path renders the same
# snapshot: /metrics, the Stats frame and /vars agree on sessions opened,
# and /metrics has one serve_shard{i}_sessions row per /vars shard
fetch /metrics "$WORK_DIR/metrics-quiet.txt" >/dev/null
"$BIN_DIR/twodprof-client" stats --addr "$ADDR" >"$WORK_DIR/stats-quiet.txt"
fetch /vars "$WORK_DIR/vars-quiet.json" >/dev/null
opened() { awk '$1 == "serve_sessions_opened_total" { print $2 }' "$1"; }
M_OPENED="$(opened "$WORK_DIR/metrics-quiet.txt")"
S_OPENED="$(opened "$WORK_DIR/stats-quiet.txt")"
V_OPENED="$(grep -o '"sessions":{"opened":[0-9]*' "$WORK_DIR/vars-quiet.json" | grep -o '[0-9]*$' || true)"
[[ -n "$M_OPENED" && "$M_OPENED" == "$S_OPENED" && "$M_OPENED" == "$V_OPENED" ]] || {
    echo "sessions opened disagree: /metrics '$M_OPENED', stats '$S_OPENED', /vars '$V_OPENED'"; exit 1; }
M_SHARDS="$(grep -cE '^serve_shard[0-9]+_sessions ' "$WORK_DIR/metrics-quiet.txt" || true)"
V_SHARDS="$(grep -o '{"index":' "$WORK_DIR/vars-quiet.json" | wc -l | tr -d ' ')"
[[ "$M_SHARDS" -ge 1 && "$M_SHARDS" == "$V_SHARDS" ]] || {
    echo "shard rows disagree: /metrics $M_SHARDS, /vars $V_SHARDS"; exit 1; }
echo "one snapshot OK: $M_OPENED session(s) opened, $M_SHARDS shard(s) on every read path"

# 3. /vars: 200 and a JSON snapshot with the expected keys
CODE="$(fetch /vars "$WORK_DIR/vars.json")"
[[ "$CODE" == 200 ]] || { echo "/vars answered $CODE"; exit 1; }
for key in '"uptime_millis":' '"shards":[' '"counters":{' '"timeline":['; do
    grep -qF "$key" "$WORK_DIR/vars.json" || { cat "$WORK_DIR/vars.json"; echo "/vars missing $key"; exit 1; }
done
echo "/vars OK"

# 4. SIGUSR1 dumps the flight recorder; the file decodes through the
# checksummed decoder and carries the shed transition the replay forced
kill -USR1 "$DAEMON_PID"
for _ in $(seq 1 100); do
    [[ -s "$BLACKBOX_OUT" ]] && break
    sleep 0.1
done
[[ -s "$BLACKBOX_OUT" ]] || { cat "$DAEMON_LOG"; echo "SIGUSR1 produced no blackbox dump"; exit 1; }
"$BIN_DIR/twodprof-client" blackbox --file "$BLACKBOX_OUT" >"$WORK_DIR/blackbox.txt"
grep -q '^blackbox: [1-9]' "$WORK_DIR/blackbox.txt" || { cat "$WORK_DIR/blackbox.txt"; echo "blackbox dump decoded to no events"; exit 1; }
grep -q 'spill failed' "$WORK_DIR/blackbox.txt" || { cat "$WORK_DIR/blackbox.txt"; echo "blackbox dump missing the forced spill failures"; exit 1; }
"$BIN_DIR/twodprof-client" blackbox --addr "$ADDR" >"$WORK_DIR/blackbox-live.txt"
grep -q '^blackbox: [1-9]' "$WORK_DIR/blackbox-live.txt" || { cat "$WORK_DIR/blackbox-live.txt"; echo "live blackbox fetch returned no events"; exit 1; }
echo "blackbox OK: $(head -1 "$WORK_DIR/blackbox.txt") ($BLACKBOX_OUT)"

kill -TERM "$DAEMON_PID"
if ! wait "$DAEMON_PID"; then
    cat "$DAEMON_LOG"
    echo "daemon did not exit cleanly on SIGTERM"
    exit 1
fi
echo "http smoke test passed"
