#!/usr/bin/env bash
# Gate on the trace-once/simulate-many payoff: run the engine_sweep bench
# and fail unless the `trace_replay/trace_once` sweep is at least
# MIN_SPEEDUP times faster than `trace_replay/record_per_job` (a fresh
# engine per job — record and replay with nothing shared across jobs).
#
#   MIN_SPEEDUP        required record_per_job/trace_once ratio (default 10)
#   REPS               bench repetitions; per-mode minimum is gated
#                      (default 2 — each sweep mode takes whole seconds, so
#                      one bench pass yields a single sample per mode and a
#                      loaded machine can distort any one pass)
#   TWODPROF_BENCH_MS  measurement window per benchmark in ms (default 200)
#   GATE_CSV           where to write the per-mode results as CSV
#                      (default target/trace_replay_gate.csv)
set -euo pipefail

MIN_SPEEDUP="${MIN_SPEEDUP:-10}"
REPS="${REPS:-2}"
BENCH_MS="${TWODPROF_BENCH_MS:-200}"
GATE_CSV="${GATE_CSV:-target/trace_replay_gate.csv}"
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

for ((rep = 1; rep <= REPS; rep++)); do
    echo "== engine_sweep bench, rep $rep/$REPS (window ${BENCH_MS}ms) =="
    TWODPROF_BENCH_MS="$BENCH_MS" \
        cargo bench -q -p twodprof-bench --bench engine_sweep \
        | tee /dev/stderr \
        | awk -v rep="$rep" '/^trace_replay\// && /time:/ {
            for (i = 1; i <= NF; i++) if ($i == "time:") { v = $(i+1); u = $(i+2) }
            sub(/\/iter$/, "", u)
            if (u == "ns") ns = v
            else if (u == "µs" || u == "us") ns = v * 1e3
            else if (u == "ms") ns = v * 1e6
            else if (u == "s")  ns = v * 1e9
            else { print "unparsable time unit: " u > "/dev/stderr"; exit 1 }
            sub(/^trace_replay\//, "", $1)
            print rep, $1, ns
        }' >>"$WORK_DIR/times.txt"
    # Every rep must yield both gated modes: a bench that silently stopped
    # printing one of them must fail the gate, not pass it vacuously.
    for mode in record_per_job trace_once; do
        if ! grep -q "^$rep $mode " "$WORK_DIR/times.txt"; then
            echo "FAIL: rep $rep produced no trace_replay/$mode measurement" >&2
            exit 1
        fi
    done
done

mkdir -p "$(dirname "$GATE_CSV")"
awk -v min="$MIN_SPEEDUP" -v reps="$REPS" -v csv="$GATE_CSV" '
    { if (!($2 in t) || $3 < t[$2]) t[$2] = $3 }
    END {
        for (mode in t) if (t[mode] <= 0) { print "bad time for " mode; exit 1 }
        if (!("record_per_job" in t) || !("trace_once" in t)) {
            print "missing trace_replay benchmark modes"; exit 1
        }
        gate = t["record_per_job"] / t["trace_once"]
        printf "record_per_job %.0f ns/iter  trace_once %.0f ns/iter  speedup %.2fx (gate >= %sx, min over reps)\n", \
            t["record_per_job"], t["trace_once"], gate, min
        print "mode,min_ns_per_iter,reps" > csv
        for (mode in t) printf "%s,%.0f,%d\n", mode, t[mode], reps >> csv
        printf "speedup_record_per_job_over_trace_once,%.4f,%d\n", gate, reps >> csv
        # annotation surfaces the measured ratio in the CI run summary
        printf "::notice title=trace-replay speedup::%.2fx (record_per_job %.2fs / trace_once %.2fs, min over %d reps, gate >= %sx)\n", \
            gate, t["record_per_job"] / 1e9, t["trace_once"] / 1e9, reps, min
        if (gate < min + 0) {
            print "FAIL: trace-once sweep is not fast enough over record-per-job"
            exit 1
        }
        print "OK: trace-once speedup meets the gate"
    }
' "$WORK_DIR/times.txt"
echo "per-mode results written to $GATE_CSV"
