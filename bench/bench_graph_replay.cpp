// Graph replay vs eager re-enqueue: host-side launch overhead.
//
// Captures a chain of n compute-heavy kernel launches on one stream into a
// cusim graph and compares the host-side cost of replaying the whole DAG
// (one graph_launch) against re-enqueuing the same n launches eagerly. On
// the modelled clock the contrast is exact: eager enqueue charges
// launch_overhead_s per op, replay charges it once for the entire graph,
// so the modelled ratio equals the node count. The wall-clock columns
// show the real host savings from skipping per-op argument transform,
// validity checks and memcheck-shadow setup on replay. Each size also
// verifies the replayed buffer is bit-identical to the eager result.
// Writes BENCH_graph_replay.json and exits non-zero if the 64-node graph
// fails to cut modelled host overhead by at least 2x (it should be ~64x)
// or any size diverges from the eager observables.
//
// Usage: bench_graph_replay [output.json] [--timeline <prefix>]
//   --timeline additionally runs the 64-node chain once eagerly and once
//   via replay on fresh devices with the timeline recorder armed and
//   writes <prefix>.eager.json / <prefix>.replay.json — the device-side
//   schedule must diff clean (cupp_report timeline --diff --threshold 0
//   --device-only): replay changes when the host is busy, never what the
//   device executes.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "cusim/device.hpp"
#include "cusim/graph.hpp"
#include "cusim/kernel_task.hpp"
#include "cusim/thread_ctx.hpp"
#include "cusim/timeline.hpp"

namespace {

using cusim::KernelTask;
using cusim::ThreadCtx;

constexpr cusim::LaunchConfig kCfg{cusim::dim3{4}, cusim::dim3{128}};
constexpr unsigned kThreads = 4 * 128;
constexpr int kReps = 5;

// Pure compute with a deterministic per-thread output: every launch has an
// identical modelled duration (>> launch_overhead_s) and the buffer
// contents depend only on the grid, so eager and replayed runs must match
// bit for bit.
KernelTask burn_kernel(ThreadCtx& ctx, cusim::DevicePtr<float> out) {
    ctx.charge(cusim::Op::FMad, 20'000);
    const unsigned gid = ctx.global_id();
    out.write(ctx, gid, static_cast<float>(gid) + 1.0f);
    co_return;
}

struct Sample {
    unsigned nodes = 0;
    double eager_host_s = 0.0;   // modelled host seconds to enqueue n ops
    double replay_host_s = 0.0;  // modelled host seconds for one graph_launch
    double model_ratio = 0.0;
    double eager_wall_us = 0.0;   // best-of-kReps wall clock, enqueue only
    double replay_wall_us = 0.0;  // best-of-kReps wall clock, one graph_launch
    double wall_ratio = 0.0;
    bool bit_identical = false;
};

double wall_us_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

Sample measure(unsigned nodes) {
    Sample s;
    s.nodes = nodes;

    cusim::Device dev(cusim::g80_properties());
    const cusim::StreamId stream = dev.stream_create();
    const auto out = dev.malloc_n<float>(kThreads);
    const std::vector<float> zeros(kThreads, 0.0f);
    const auto enqueue_chain = [&] {
        for (unsigned i = 0; i < nodes; ++i) {
            dev.launch_async(
                kCfg, [&](ThreadCtx& ctx) { return burn_kernel(ctx, out); },
                "burn", stream);
        }
    };

    // Eager: n launch_async calls per repetition; the sync that executes
    // the chain sits outside the timed window (the device-side schedule is
    // identical either way — only host enqueue cost is under test).
    dev.upload(out, std::span<const float>(zeros));
    for (int rep = 0; rep < kReps; ++rep) {
        const double h0 = dev.host_time();
        const auto t0 = std::chrono::steady_clock::now();
        enqueue_chain();
        const double wall = wall_us_since(t0);
        if (rep == 0) s.eager_host_s = dev.host_time() - h0;
        if (rep == 0 || wall < s.eager_wall_us) s.eager_wall_us = wall;
        dev.synchronize();
    }
    std::vector<float> eager_result(kThreads);
    dev.download(std::span<float>(eager_result), out);

    // Capture the same chain and replay it: one graph_launch per rep.
    dev.stream_begin_capture(stream);
    enqueue_chain();
    const cusim::Graph graph = dev.stream_end_capture(stream);
    const cusim::GraphExec exec = dev.graph_instantiate(graph);

    dev.upload(out, std::span<const float>(zeros));
    for (int rep = 0; rep < kReps; ++rep) {
        const double h0 = dev.host_time();
        const auto t0 = std::chrono::steady_clock::now();
        dev.graph_launch(exec);
        const double wall = wall_us_since(t0);
        if (rep == 0) s.replay_host_s = dev.host_time() - h0;
        if (rep == 0 || wall < s.replay_wall_us) s.replay_wall_us = wall;
        dev.synchronize();
    }
    std::vector<float> replay_result(kThreads);
    dev.download(std::span<float>(replay_result), out);

    s.model_ratio = s.eager_host_s / s.replay_host_s;
    s.wall_ratio = s.eager_wall_us / s.replay_wall_us;
    s.bit_identical = std::memcmp(eager_result.data(), replay_result.data(),
                                  kThreads * sizeof(float)) == 0;
    return s;
}

// One 64-node chain per mode with the timeline recorder armed, on a fresh
// device each so both reports share the same origin. Replay compresses
// host enqueue time but must leave the device-side schedule untouched.
bool write_timelines(const std::string& prefix) {
    for (const bool replay : {false, true}) {
        const std::string path = prefix + (replay ? ".replay.json" : ".eager.json");
        cusim::timeline::reset();
        cusim::timeline::enable();
        {
            cusim::Device dev(cusim::g80_properties());
            const cusim::StreamId stream = dev.stream_create();
            const auto out = dev.malloc_n<float>(kThreads);
            const auto enqueue_chain = [&] {
                for (unsigned i = 0; i < 64; ++i) {
                    dev.launch_async(
                        kCfg,
                        [&](ThreadCtx& ctx) { return burn_kernel(ctx, out); },
                        "burn", stream);
                }
            };
            if (replay) {
                dev.stream_begin_capture(stream);
                enqueue_chain();
                const cusim::Graph graph = dev.stream_end_capture(stream);
                const cusim::GraphExec exec = dev.graph_instantiate(graph);
                dev.graph_launch(exec);
            } else {
                enqueue_chain();
            }
            dev.synchronize();
        }
        const bool ok = cusim::timeline::write_report(path);
        cusim::timeline::reset();
        if (!ok) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        std::printf("wrote %s\n", path.c_str());
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    const char* out_path = "BENCH_graph_replay.json";
    std::string timeline_prefix;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--timeline") == 0 && i + 1 < argc) {
            timeline_prefix = argv[++i];
        } else {
            out_path = argv[i];
        }
    }

    std::vector<Sample> samples;
    for (const unsigned n : {1u, 8u, 64u, 512u}) {
        const Sample s = measure(n);
        samples.push_back(s);
        std::printf(
            "nodes=%3u  host overhead %9.6f s eager vs %9.6f s replay "
            "(%6.1fx)  wall %8.1f us vs %8.1f us (%5.1fx)  %s\n",
            s.nodes, s.eager_host_s, s.replay_host_s, s.model_ratio,
            s.eager_wall_us, s.replay_wall_us, s.wall_ratio,
            s.bit_identical ? "bit-identical" : "DIVERGED");
    }

    if (!timeline_prefix.empty() && !write_timelines(timeline_prefix)) return 1;

    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"graph_replay\",\n");
    std::fprintf(f, "  \"kernel\": \"burn (20k FMADs/thread, 4x128 grid)\",\n");
    std::fprintf(f, "  \"reps\": %d,\n", kReps);
    std::fprintf(f,
                 "  \"host_overhead\": \"modelled host seconds charged while "
                 "enqueuing: launch_overhead_s per eager op, once per "
                 "graph_launch\",\n");
    std::fprintf(f,
                 "  \"wall_clock\": \"best-of-%d real enqueue time; replay "
                 "skips per-op transform, validation and memcheck-shadow "
                 "setup\",\n",
                 kReps);
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& s = samples[i];
        std::fprintf(f,
                     "    {\"nodes\": %u, \"eager_host_s\": %.9f, "
                     "\"replay_host_s\": %.9f, \"model_ratio\": %.3f, "
                     "\"eager_wall_us\": %.1f, \"replay_wall_us\": %.1f, "
                     "\"wall_ratio\": %.2f, \"bit_identical\": %s}%s\n",
                     s.nodes, s.eager_host_s, s.replay_host_s, s.model_ratio,
                     s.eager_wall_us, s.replay_wall_us, s.wall_ratio,
                     s.bit_identical ? "true" : "false",
                     i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path);

    // The whole point: replay amortises the host launch overhead across
    // the DAG. The 64-node graph must cut it at least 2x (modelled it is
    // exactly node_count), and every size must reproduce the eager bytes.
    int status = 0;
    for (const Sample& s : samples) {
        if (!s.bit_identical) {
            std::fprintf(stderr, "FAIL: replay diverged at %u nodes\n", s.nodes);
            status = 1;
        }
        if (s.nodes == 64 && s.model_ratio < 2.0) {
            std::fprintf(stderr,
                         "FAIL: 64-node replay saved only %.2fx host overhead\n",
                         s.model_ratio);
            status = 1;
        }
    }
    return status;
}
