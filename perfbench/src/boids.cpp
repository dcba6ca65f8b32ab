// Workloads boids_v5 and boids_v6_grid: GpuBoidsPlugin steps in a closed
// loop with one caller, checked against the CpuBoidsPlugin oracle.
//
// One op is one GpuBoidsPlugin::step(). The loop runs episodes of a fixed
// number of steps from a freshly opened flock, so every run measures the
// same steps whatever its speed, and every episode ends with an exact check
// against the oracle. Set-up is device creation plus plugin construction
// and open(). The flock comes from the seed.
#include <memory>

#include "common.hpp"
#include "cupp/cupp.hpp"
#include "cusim/registry.hpp"
#include "gpusteer/plugin.hpp"
#include "serve/boids_service.hpp"
#include "steer/simulation.hpp"

namespace perfbench {

namespace {

constexpr int kSetupTrials = 5;
constexpr std::size_t kEpisodeSteps = 16;

std::uint64_t mix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

Result run_boids(const Options& opt, bool grid_version) {
    Result r;
    const gpusteer::Version version = grid_version ? gpusteer::Version::V6_GridNeighborSearch
                                                   : gpusteer::Version::V5_FullUpdateOnDevice;
    steer::WorldSpec spec;
    spec.agents = grid_version ? 8192 : 2048;
    spec.think_period = 1;
    spec.seed = mix(opt.seed);
    r.info["agents"] = std::to_string(spec.agents);
    r.info["version"] = grid_version ? "6" : "5";
    r.info["episode_steps"] = std::to_string(kEpisodeSteps);

    // --- the oracle: the native CPU plugin over one episode ------------------
    std::vector<double> cpu_ns;
    std::uint64_t oracle = 0;
    {
        steer::CpuBoidsPlugin cpu;
        cpu.open(grid_version ? spec.with_grid() : spec);
        for (std::size_t i = 0; i < kEpisodeSteps; ++i) {
            const std::int64_t t0 = now_ns();
            cpu.step();
            cpu_ns.push_back(static_cast<double>(now_ns() - t0));
        }
        oracle = cupp::serve::flock_digest(cpu.snapshot());
    }

    // --- set-up: device creation, then plugin construction + open ---------
    const int trials = opt.record ? 1 : kSetupTrials;
    const double device_s = time_device_creation(trials);
    (void)cusim::Registry::instance().device(0);  // the device the plugin binds to
    std::unique_ptr<gpusteer::GpuBoidsPlugin> gpu;
    auto open = [&] {
        gpu = std::make_unique<gpusteer::GpuBoidsPlugin>(version, /*double_buffering=*/false,
                                                         /*with_draw_stage=*/true);
        gpu->open(spec);
    };
    const double open_s = time_trials(trials, [&] { gpu.reset(); }, open);
    cusim::Device& sim = gpu->device_handle().sim();

    // --- measurement: episodes; traced runs alternate untraced/traced -------
    Recorders rec;
    SpeedTracker speed;
    Timings timings;
    std::vector<double> untraced_ns, traced_ns;
    SimCounts ref_sim;
    double ref_model_s = 0.0;
    speed.maybe_sample(/*force=*/true);
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
    for (std::size_t episode = 0;; ++episode) {
        if (episode > 0 && (opt.record || now_ns() >= deadline)) break;
        if (episode > 0) open();
        const bool traced = opt.trace && episode % 2 == 1;
        if (traced) rec.begin_window();
        SimCounts sim_counts;
        double model_s = 0.0;
        for (std::size_t i = 0; i < kEpisodeSteps; ++i) {
            speed.maybe_sample();
            const double f = speed.factor();
            const std::uint64_t launches_before = sim.launches();
            const std::int64_t t0 = now_ns();
            steer::StageTimes times;
            {
                Span span(rec.spans, "gpusteer.step");
                times = gpu->step();
            }
            const auto ns = static_cast<double>(now_ns() - t0);
            (traced ? traced_ns : untraced_ns).push_back(ns);
            if (!traced) {
                timings.add_op(ns, f);
                timings.add_time(1.0, ns, f);
            }
            sim_counts.add_since(sim, launches_before);
            model_s += times.total();
        }
        if (traced) rec.end_window();
        r.attempted += kEpisodeSteps;

        const std::string tag = "episode " + std::to_string(episode + 1) + ": ";
        if (cupp::serve::flock_digest(gpu->snapshot()) != oracle) {
            r.fail(tag + "flock digest differs from the CPU oracle");
        }
        if (gpu->cpu_fallback_steps() != 0) r.fail(tag + "steps fell back to the CPU");
        if (episode == 0) {
            ref_sim = sim_counts;
            ref_model_s = model_s;
        } else if (sim_counts.values() != ref_sim.values() || model_s != ref_model_s) {
            r.fail(tag + "simulated counts differ from the first episode's");
        }
    }
    ref_sim.to_reference(r);
    r.reference["model.stage_s"] = ref_model_s;

    if (!opt.trace) {
        report_end_to_end(r, timings, speed, device_s + open_s);
        return r;
    }

    // --- per-layer attribution from the traced windows ---------------------
    const double wall_s = sum(traced_ns) * 1e-9;
    const auto n = static_cast<double>(traced_ns.size());
    const EngineTotals engine = engine_totals();
    const auto [call_s, calls] = call_wall();
    report_common_layers(r, rec.spans, n, wall_s, engine, device_s, open_s, traced_ns,
                         untraced_ns, ref_sim);
    r.metric("cupp.call.self_us",
             (call_s - engine.host_s) / static_cast<double>(std::max<std::uint64_t>(1, calls)) * 1e6,
             "us");
    r.metric("gpusteer.self_ms", (wall_s - call_s) / n * 1e3, "ms");
    r.metric("layers.self_sum_frac",
             self_sum_frac({engine.host_s, call_s - engine.host_s, wall_s - call_s}, wall_s),
             "ratio");

    const double cpu_p50_ms = median(cpu_ns) * 1e-6;
    const double step_p50_ms = median(untraced_ns) * 1e-6;
    r.metric("steer.cpu_step_ms.p50", cpu_p50_ms, "ms");
    r.metric("sim_over_native", step_p50_ms / cpu_p50_ms, "ratio");
    r.metric("sim_over_native.step_ms", step_p50_ms, "ms");
    return r;
}

}  // namespace perfbench
