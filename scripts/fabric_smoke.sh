#!/usr/bin/env bash
# Smoke test for the distributed sweep fabric: two `twodprofd --compute`
# nodes on ephemeral loopback ports, a `repro` sweep fanned out to them
# with one `--node` each.
#
# Gates, in order:
#   1. remote/local equivalence — the CSVs of a remote sweep must be
#      byte-identical to the same sweep on the local backend;
#   2. the nodes actually computed — their stats endpoints report
#      fabric jobs submitted and completed;
#   3. the shared cache tier works — a second, fresh client running the
#      same sweep reports >0 remote cache hits and still matches local;
#      and no job was answered twice: the client counts no more remote
#      cache hits than jobs it completed. (A warm job that lands on the
#      other node than in the cold run is computed there, not a hit, so
#      hits may fall short of the job count.)
#
# Logs land in target/fabric-smoke/ (daemon logs, warm-run stderr) so CI
# can upload them as artifacts.
set -euo pipefail

BIN_DIR="${BIN_DIR:-target/release}"
OUT_DIR="${OUT_DIR:-target/fabric-smoke}"
EXPERIMENTS="${EXPERIMENTS:-fig3 table1 fig8 bias2d}"
WORK_DIR="$(mktemp -d)"

cleanup() {
    for pid in "${NODE_A_PID:-}" "${NODE_B_PID:-}"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$WORK_DIR"
}
trap cleanup EXIT

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

# --- start two compute nodes, each with its own cache tier ---
start_node() { # $1 = tag
    "$BIN_DIR/twodprofd" --addr 127.0.0.1:0 --addr-file "$WORK_DIR/$1.addr" \
        --compute --compute-threads 2 --compute-cache-dir "$WORK_DIR/$1-cache" \
        >"$OUT_DIR/twodprofd-$1.log" 2>&1 &
}
wait_addr() { # $1 = tag, $2 = pid
    for _ in $(seq 1 100); do
        [[ -s "$WORK_DIR/$1.addr" ]] && return 0
        kill -0 "$2" 2>/dev/null || { cat "$OUT_DIR/twodprofd-$1.log"; echo "node $1 died before listening"; exit 1; }
        sleep 0.1
    done
    cat "$OUT_DIR/twodprofd-$1.log"; echo "node $1 never wrote its address"; exit 1
}
start_node a; NODE_A_PID=$!
start_node b; NODE_B_PID=$!
wait_addr a "$NODE_A_PID"
wait_addr b "$NODE_B_PID"
ADDR_A="$(cat "$WORK_DIR/a.addr")"
ADDR_B="$(cat "$WORK_DIR/b.addr")"
echo "compute nodes up at $ADDR_A (pid $NODE_A_PID) and $ADDR_B (pid $NODE_B_PID)"

# --- gate 1: the reference run on the local backend ---
# shellcheck disable=SC2086
"$BIN_DIR/repro" --scale tiny --no-cache --out "$OUT_DIR/local" \
    $EXPERIMENTS >"$OUT_DIR/local.out" 2>"$OUT_DIR/local.err"
echo "local reference sweep done"

# cold remote sweep: a fresh client, all work shipped to the nodes
# shellcheck disable=SC2086
"$BIN_DIR/repro" --scale tiny --no-cache --out "$OUT_DIR/remote-cold" \
    --node "$ADDR_A" --node "$ADDR_B" \
    $EXPERIMENTS >"$OUT_DIR/remote-cold.out" 2>"$OUT_DIR/remote-cold.err"
echo "cold remote sweep done"

diff -ru "$OUT_DIR/local" "$OUT_DIR/remote-cold" || {
    echo "remote sweep results differ from local backend"; exit 1;
}
echo "gate 1 OK: remote results byte-identical to local"

# --- gate 2: the nodes did fabric work (stats endpoints) ---
submitted=0
completed=0
for addr in "$ADDR_A" "$ADDR_B"; do
    stats="$("$BIN_DIR/twodprof-client" stats --addr "$addr")"
    s="$(echo "$stats" | awk '$1 == "fabric_jobs_submitted_total" {print $2}')"
    c="$(echo "$stats" | awk '$1 == "fabric_jobs_completed_total" {print $2}')"
    echo "node $addr: ${s:-0} submitted, ${c:-0} completed"
    submitted=$((submitted + ${s:-0}))
    completed=$((completed + ${c:-0}))
done
[[ "$submitted" -ge 1 && "$completed" -ge 1 ]] || {
    echo "nodes report no fabric jobs (submitted=$submitted completed=$completed)"; exit 1;
}
echo "gate 2 OK: nodes computed $completed fabric job(s)"

# --- gate 3: a second fresh client is served from the shared cache tier ---
# shellcheck disable=SC2086
"$BIN_DIR/repro" --scale tiny --no-cache --out "$OUT_DIR/remote-warm" --metrics \
    --node "$ADDR_A" --node "$ADDR_B" \
    $EXPERIMENTS >"$OUT_DIR/remote-warm.out" 2>"$OUT_DIR/remote-warm.err"
grep -q '^fabric_remote_cache_hits_total [1-9]' "$OUT_DIR/remote-warm.err" || {
    cat "$OUT_DIR/remote-warm.err"
    echo "warm client reported no remote cache hits"; exit 1;
}
diff -ru "$OUT_DIR/local" "$OUT_DIR/remote-warm" || {
    echo "warm remote sweep results differ from local backend"; exit 1;
}
hits="$(awk '$1 == "fabric_remote_cache_hits_total" {print $2}' "$OUT_DIR/remote-warm.err")"
jobs="$(awk '$1 == "fabric_jobs_completed_total" {print $2}' "$OUT_DIR/remote-warm.err")"
[[ "$hits" -le "${jobs:-0}" ]] || {
    echo "warm client saw $hits remote cache hit(s) for ${jobs:-0} completed job(s): some job was answered twice"; exit 1;
}
echo "gate 3 OK: warm client saw $hits remote cache hit(s) for $jobs job(s), results identical"

# --- gate 4: one `top` frame renders both nodes ---
"$BIN_DIR/twodprof-client" top --node "$ADDR_A" --node "$ADDR_B" \
    --iterations 1 --no-clear >"$OUT_DIR/top.out"
grep -q "^node $ADDR_A\$" "$OUT_DIR/top.out" || { cat "$OUT_DIR/top.out"; echo "top frame missing node $ADDR_A"; exit 1; }
grep -q "^node $ADDR_B\$" "$OUT_DIR/top.out" || { cat "$OUT_DIR/top.out"; echo "top frame missing node $ADDR_B"; exit 1; }
[[ "$(grep -c '^  shard ' "$OUT_DIR/top.out")" -ge 2 ]] || {
    cat "$OUT_DIR/top.out"; echo "top frame missing per-shard rows"; exit 1;
}
echo "gate 4 OK: top rendered both nodes"

# --- clean shutdown of both nodes ---
kill -TERM "$NODE_A_PID" "$NODE_B_PID"
wait "$NODE_A_PID" || { cat "$OUT_DIR/twodprofd-a.log"; echo "node a did not exit cleanly"; exit 1; }
wait "$NODE_B_PID" || { cat "$OUT_DIR/twodprofd-b.log"; echo "node b did not exit cleanly"; exit 1; }
echo "fabric smoke test passed"
