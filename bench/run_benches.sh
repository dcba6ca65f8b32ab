#!/usr/bin/env sh
# Re-records the modelled BENCH_*.json artifacts: the stream-overlap, graph
# replay and serving benches, with their profiler reports
# (BENCH_*_prof.json, via CUPP_PROF) and timeline reports
# (BENCH_*_timeline.json, via CUPP_TIMELINE — render and diff them with
# tools/cupp_report timeline). Host wall-clock speed is perfbench's job
# (BENCHMARK.json).
#
# Usage: bench/run_benches.sh [build-dir]
#
# Every bench runs even if an earlier one fails; the script exits non-zero
# if any did. Stale artifacts are removed up front so a failed bench can
# never leave last run's JSON lying around looking fresh.
set -u

BUILD=${1:-build}

rm -f BENCH_stream_overlap.json BENCH_serve_soak.json BENCH_graph_replay.json \
    BENCH_stream_overlap_prof.json BENCH_serve_soak_prof.json \
    BENCH_stream_overlap_timeline.json \
    BENCH_graph_replay_timeline.eager.json BENCH_graph_replay_timeline.replay.json

STATUS=0

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
"$BUILD/tools/cupp_report" timeline --diff BENCH_graph_replay_timeline.eager.json \
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
