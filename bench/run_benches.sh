#!/usr/bin/env sh
# Runs the wall-clock engine benches serial vs. threaded and writes the
# perf trajectory artifacts BENCH_*.json plus per-bench profiler reports
# (BENCH_*_prof.json, via CUPP_PROF) and timeline reports
# (BENCH_*_timeline.json, via CUPP_TIMELINE — render/diff with
# tools/cupp_timeline).
#
# Usage: bench/run_benches.sh [build-dir] [output.json]
#
# The figure/table harnesses (bench_fig*, bench_table*, bench_ablation*)
# report *simulated* time and are unaffected by CUPP_SIM_THREADS; this
# script covers the two binaries that measure the host-side engine itself.
#
# Every bench runs even if an earlier one fails; the script exits non-zero
# if any did. Stale artifacts are removed up front so a failed bench can
# never leave last run's JSON lying around looking fresh.
set -u

BUILD=${1:-build}
OUT=${2:-BENCH_parallel_engine.json}

if [ ! -x "$BUILD/bench/bench_parallel_engine" ]; then
    echo "error: $BUILD/bench/bench_parallel_engine not built" >&2
    echo "       (cmake -B $BUILD -S . && cmake --build $BUILD -j)" >&2
    exit 1
fi

rm -f "$OUT" BENCH_stream_overlap.json BENCH_serve_soak.json \
    BENCH_graph_replay.json \
    BENCH_throughput_prof.json BENCH_stream_overlap_prof.json \
    BENCH_serve_soak_prof.json \
    BENCH_parallel_engine_prof.thread.json BENCH_parallel_engine_prof.warp.json \
    BENCH_stream_overlap_timeline.json \
    BENCH_graph_replay_timeline.eager.json BENCH_graph_replay_timeline.replay.json

STATUS=0

echo "== bench_simulator_throughput, CUPP_SIM_THREADS=1 (serial engine) =="
CUPP_SIM_THREADS=1 "$BUILD/bench/bench_simulator_throughput" \
    --benchmark_filter='BM_(BoidsStep|SaxpyThroughput|LaunchOverhead)' \
    --benchmark_min_time=0.2 || STATUS=1

echo ""
echo "== bench_simulator_throughput, CUPP_SIM_THREADS=4 (parallel engine) =="
# No CUPP_TIMELINE here: this sweep's raw timeline runs to tens of MB and
# nothing reads it. The small, deterministic timeline reports come from
# bench_stream_overlap and bench_graph_replay below.
CUPP_PROF=BENCH_throughput_prof.json \
CUPP_SIM_THREADS=4 "$BUILD/bench/bench_simulator_throughput" \
    --benchmark_filter='BM_(BoidsStep|SaxpyThroughput|LaunchOverhead)' \
    --benchmark_min_time=0.2 || STATUS=1

echo ""
echo "== bench_parallel_engine (engine x thread sweep + determinism check) =="
# No CUPP_PROF in the environment: the timed sweep measures the engine's
# disabled-path cost. The --prof pass afterwards records a fixed profiled
# sequence under each engine (BENCH_parallel_engine_prof.{thread,warp}.json)
# programmatically, outside the timed loop — cupp_prof --diff across the
# pair must show identical modelled device time.
"$BUILD/bench/bench_parallel_engine" "$OUT" --prof BENCH_parallel_engine_prof \
    || STATUS=1

echo ""
echo "== bench_stream_overlap (async streams on the modelled timeline) =="
CUPP_PROF=BENCH_stream_overlap_prof.json \
CUPP_TIMELINE=BENCH_stream_overlap_timeline.json \
    "$BUILD/bench/bench_stream_overlap" BENCH_stream_overlap.json || STATUS=1

echo ""
echo "== bench_graph_replay (captured replay vs eager re-enqueue) =="
# --timeline writes an eager/replay report pair; the device-side schedule
# (makespan + critical path) must diff clean at 0% — replay compresses
# host enqueue cost without touching what the device executes, so only
# the host lane's serialized/bubble totals may move.
"$BUILD/bench/bench_graph_replay" BENCH_graph_replay.json \
    --timeline BENCH_graph_replay_timeline || STATUS=1
"$BUILD/tools/cupp_timeline" --diff BENCH_graph_replay_timeline.eager.json \
    BENCH_graph_replay_timeline.replay.json --threshold 0 --device-only \
    || STATUS=1

echo ""
echo "== bench_serve_soak (cupp::serve closed loop on the modelled clock) =="
CUPP_PROF=BENCH_serve_soak_prof.json \
    "$BUILD/bench/bench_serve_soak" BENCH_serve_soak.json || STATUS=1

if [ "$STATUS" -ne 0 ]; then
    echo "run_benches: one or more benches FAILED" >&2
fi
exit "$STATUS"
