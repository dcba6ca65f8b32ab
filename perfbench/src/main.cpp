// perfbench — one workload per process (cusim::Registry caches devices for
// the process lifetime, so a shared process would hide set-up time and peak
// memory of every workload after the first).
//
//   perfbench --workload <boids_v5|boids_v6_grid|kernel_calls|serve_soak>
//             --seed <n> --seconds <s> --trace <0|1> [--record]
//             [--spans-out <file>]
//
// Prints one JSON document as its last line of output: the contract fields
// (correct, attempted, failed, metrics) plus the modelled reference values,
// sample counts, failures and the run record. perfbench/run.py builds this
// binary, compares the reference values and prints the contract line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "cusim/block_pool.hpp"
#include "cusim/engine.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/// One block-pool thread: every workload then runs on the calling thread
/// alone, which keeps host timings steady on a shared machine (the engine
/// result is bit-identical for any thread count).
constexpr unsigned kBlockPoolThreads = 1;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr, "perfbench: %s\n", why);
    std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&] {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return std::string(argv[++i]);
        };
        if (a == "--workload") {
            opt.workload = value();
        } else if (a == "--seed") {
            opt.seed = std::stoull(value());
        } else if (a == "--seconds") {
            opt.seconds = std::stod(value());
        } else if (a == "--trace") {
            opt.trace = value() != "0";
        } else if (a == "--record") {
            opt.record = true;
        } else if (a == "--spans-out") {
            opt.spans_out = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    return opt;
}

}  // namespace

int main(int argc, char** argv) {
    const perfbench::Options opt = parse(argc, argv);
    // Pin the engine configuration through the public knobs; the run record
    // reports what resolved.
    cusim::BlockPool::set_threads(kBlockPoolThreads);
    cusim::set_engine_mode(cusim::EngineMode::Warp);

    perfbench::Result r;
    try {
        if (opt.workload == "boids_v5") {
            r = perfbench::run_boids(opt, /*grid_version=*/false);
        } else if (opt.workload == "boids_v6_grid") {
            r = perfbench::run_boids(opt, /*grid_version=*/true);
        } else if (opt.workload == "kernel_calls") {
            r = perfbench::run_kernel_calls(opt);
        } else if (opt.workload == "serve_soak") {
            r = perfbench::run_serve_soak(opt);
        } else {
            usage(("unknown workload '" + opt.workload + "'").c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
        return 1;
    }

    r.info["workload"] = opt.workload;
    r.info["seed"] = std::to_string(opt.seed);
    r.info["seconds"] = std::to_string(opt.seconds);
    r.info["trace"] = opt.trace ? "1" : "0";
    r.info["block_pool_threads"] = std::to_string(cusim::BlockPool::configured_threads());
    r.info["engine_mode"] = cusim::engine_mode() == cusim::EngineMode::Warp ? "warp" : "thread";
    r.info["build_type"] = PERFBENCH_BUILD_TYPE;
    r.info["nproc"] = std::to_string(std::thread::hardware_concurrency());

    if (opt.trace && !opt.spans_out.empty()) {
        if (std::FILE* f = std::fopen(opt.spans_out.c_str(), "w")) {
            const auto& m = r.metrics;
            const auto overhead = m.find("recorders.overhead_frac");
            std::fprintf(f,
                         "{\"workload\": \"%s\", \"seed\": %llu, "
                         "\"recorders.overhead_frac\": %.9g, \"spans\": %s}\n",
                         opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                         overhead == m.end() ? 0.0 : overhead->second.first,
                         r.spans_json.c_str());
            std::fclose(f);
        } else {
            std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans_out.c_str());
        }
    }
    std::printf("%s\n", r.to_json().c_str());
    return 0;
}
