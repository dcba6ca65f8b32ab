// GPU Boids plugin tests: every development version must compute the exact
// same flock as the CPU reference (the kernels share the steering math), and
// the structural properties of chapter 6 — lazy transfers in version 5,
// divergence counters, double buffering — must hold.
#include <gtest/gtest.h>

#include "cusim/block_pool.hpp"
#include "cusim/engine.hpp"
#include "cusim/faults.hpp"
#include "cusim/memcheck.hpp"
#include "cusim/prof.hpp"
#include "cusim/runtime_api.hpp"
#include "gpusteer/plugin.hpp"
#include "steer/steer.hpp"

namespace {

using gpusteer::GpuBoidsPlugin;
using gpusteer::Version;
using steer::Agent;
using steer::WorldSpec;

WorldSpec small_world(std::uint32_t agents = 256, std::uint32_t think = 1) {
    WorldSpec spec;
    spec.agents = agents;  // multiple of 128 for the shared-memory kernels
    spec.think_period = think;
    return spec;
}

void expect_same_flock(const std::vector<Agent>& a, const std::vector<Agent>& b,
                       const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].position, b[i].position) << what << " agent " << i;
        EXPECT_EQ(a[i].forward, b[i].forward) << what << " agent " << i;
        EXPECT_FLOAT_EQ(a[i].speed, b[i].speed) << what << " agent " << i;
    }
}

class VersionEquivalence : public ::testing::TestWithParam<Version> {};

TEST_P(VersionEquivalence, MatchesCpuReferenceBitForBit) {
    const WorldSpec spec = small_world();
    steer::CpuBoidsPlugin cpu;
    cpu.open(spec);
    GpuBoidsPlugin gpu(GetParam());
    gpu.open(spec);

    for (int step = 0; step < 5; ++step) {
        cpu.step();
        gpu.step();
    }
    expect_same_flock(cpu.snapshot(), gpu.snapshot(), "after 5 steps");
}

TEST_P(VersionEquivalence, MatchesCpuWithThinkFrequency) {
    const WorldSpec spec = small_world(256, 4);
    steer::CpuBoidsPlugin cpu;
    cpu.open(spec);
    GpuBoidsPlugin gpu(GetParam());
    gpu.open(spec);
    for (int step = 0; step < 9; ++step) {
        cpu.step();
        gpu.step();
    }
    expect_same_flock(cpu.snapshot(), gpu.snapshot(), "think frequency");
}

INSTANTIATE_TEST_SUITE_P(AllVersions, VersionEquivalence,
                         ::testing::Values(Version::V1_NeighborSearchGlobal,
                                           Version::V2_NeighborSearchShared,
                                           Version::V3_SimSubstageCached,
                                           Version::V4_SimSubstageRecompute,
                                           Version::V5_FullUpdateOnDevice),
                         [](const auto& info) {
                             return "v" + std::to_string(static_cast<int>(info.param));
                         });

TEST(GpuPlugin, Version6MatchesCpuGridReferenceBitForBit) {
    // The future-work §7 pipeline: host-built grid + full device update.
    // Its oracle is the CPU plugin running with the same spatial grid —
    // both walk candidates in identical cell order.
    WorldSpec spec = small_world(250);  // v6 needs no block-size multiple
    steer::CpuBoidsPlugin cpu;
    cpu.open(spec.with_grid());
    GpuBoidsPlugin gpu(Version::V6_GridNeighborSearch);
    gpu.open(spec);
    for (int step = 0; step < 5; ++step) {
        cpu.step();
        gpu.step();
    }
    expect_same_flock(cpu.snapshot(), gpu.snapshot(), "v6 vs cpu-grid");
}

TEST(GpuPlugin, Version6MatchesCpuGridWithThinkFrequency) {
    WorldSpec spec = small_world(256, 3);
    steer::CpuBoidsPlugin cpu;
    cpu.open(spec.with_grid());
    GpuBoidsPlugin gpu(Version::V6_GridNeighborSearch);
    gpu.open(spec);
    for (int step = 0; step < 7; ++step) {
        cpu.step();
        gpu.step();
    }
    expect_same_flock(cpu.snapshot(), gpu.snapshot(), "v6 think frequency");
}

TEST(GpuPlugin, GridAndBruteForceFlocksConvergeOnTheSameNeighbors) {
    // Different candidate order => different float sums => slightly
    // different flocks; but the neighbor *sets* match, so positions stay
    // close over a short run.
    const WorldSpec spec = small_world(256);
    GpuBoidsPlugin v5(Version::V5_FullUpdateOnDevice);
    GpuBoidsPlugin v6(Version::V6_GridNeighborSearch);
    v5.open(spec);
    v6.open(spec);
    for (int step = 0; step < 3; ++step) {
        v5.step();
        v6.step();
    }
    const auto a = v5.snapshot();
    const auto b = v6.snapshot();
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_LT((a[i].position - b[i].position).length(), 0.05f) << i;
    }
}

TEST(GpuPlugin, DoubleBufferingComputesTheSameFlock) {
    const WorldSpec spec = small_world();
    GpuBoidsPlugin plain(Version::V5_FullUpdateOnDevice, /*double_buffering=*/false);
    GpuBoidsPlugin db(Version::V5_FullUpdateOnDevice, /*double_buffering=*/true);
    plain.open(spec);
    db.open(spec);
    for (int step = 0; step < 6; ++step) {
        plain.step();
        db.step();
    }
    expect_same_flock(plain.snapshot(), db.snapshot(), "double buffering");
}

TEST(GpuPlugin, DoubleBufferingDrawsThePreviousStep) {
    const WorldSpec spec = small_world();
    GpuBoidsPlugin plain(Version::V5_FullUpdateOnDevice, false);
    GpuBoidsPlugin db(Version::V5_FullUpdateOnDevice, true);
    plain.open(spec);
    db.open(spec);
    plain.step();
    db.step();
    plain.step();
    db.step();
    // At step k the double-buffered demo draws step k-1's matrices.
    GpuBoidsPlugin ref(Version::V5_FullUpdateOnDevice, false);
    ref.open(spec);
    ref.step();
    ASSERT_EQ(db.draw_matrices().size(), ref.draw_matrices().size());
    for (std::size_t i = 0; i < ref.draw_matrices().size(); ++i) {
        EXPECT_EQ(db.draw_matrices()[i], ref.draw_matrices()[i]) << i;
    }
}

TEST(GpuPlugin, Version5KeepsAgentStateOnDevice) {
    // §6.2.3: "only the required information to draw the agents is moved
    // from the device to the host memory. All other data stays on the
    // device."
    const WorldSpec spec = small_world();
    GpuBoidsPlugin gpu(Version::V5_FullUpdateOnDevice);
    gpu.open(spec);
    auto& sim = cusim::Registry::instance().device(0);

    gpu.step();  // first step uploads the initial state
    const auto to_device_after_first = sim.bytes_to_device();
    const auto to_host_after_first = sim.bytes_to_host();
    for (int i = 0; i < 4; ++i) gpu.step();

    // No further uploads of agent state: only the tiny per-call argument
    // handles (8 vector references of ~32 bytes each).
    const auto upload_per_step =
        (sim.bytes_to_device() - to_device_after_first) / 4;
    EXPECT_LE(upload_per_step, 512u);
    EXPECT_LT(upload_per_step, spec.agents * sizeof(steer::Vec3));

    // Downloads are exactly the draw matrices (+ nothing else).
    const auto download_per_step = (sim.bytes_to_host() - to_host_after_first) / 4;
    EXPECT_LE(download_per_step, spec.agents * sizeof(steer::Mat4) + 256u);
    EXPECT_GE(download_per_step, spec.agents * sizeof(steer::Mat4));
}

TEST(GpuPlugin, Version1UploadsPositionsEveryStep) {
    const WorldSpec spec = small_world();
    GpuBoidsPlugin gpu(Version::V1_NeighborSearchGlobal);
    gpu.open(spec);
    auto& sim = cusim::Registry::instance().device(0);
    gpu.step();
    const auto base = sim.bytes_to_device();
    gpu.step();
    // Positions (n * 12 bytes) must travel every step: the host modified them.
    EXPECT_GE(sim.bytes_to_device() - base, spec.agents * sizeof(steer::Vec3));
}

TEST(GpuPlugin, DivergenceCountersActive) {
    // §6.3.1: the neighbor-search branches diverge; the counters must see it.
    const WorldSpec spec = small_world(512);
    GpuBoidsPlugin gpu(Version::V5_FullUpdateOnDevice);
    gpu.open(spec);
    for (int i = 0; i < 2; ++i) gpu.step();
    EXPECT_GT(gpu.branch_evaluations(), 0u);
    EXPECT_GT(gpu.divergent_warp_steps(), 0u);
    // ... but far fewer divergent steps than branch evaluations.
    EXPECT_LT(gpu.divergent_warp_steps(), gpu.branch_evaluations() / 4);
}

TEST(GpuPlugin, SharedKernelRequiresMultipleOfBlockSize) {
    GpuBoidsPlugin gpu(Version::V2_NeighborSearchShared);
    WorldSpec spec = small_world(100);  // not a multiple of 128
    EXPECT_THROW(gpu.open(spec), cupp::usage_error);
    // Version 1 has no such restriction.
    GpuBoidsPlugin v1(Version::V1_NeighborSearchGlobal);
    EXPECT_NO_THROW(v1.open(spec));
    v1.step();
}

TEST(GpuPlugin, SimulatedTimeAdvancesMonotonically) {
    const WorldSpec spec = small_world();
    GpuBoidsPlugin gpu(Version::V5_FullUpdateOnDevice);
    gpu.open(spec);
    double last = gpu.device_handle().sim().host_time();
    for (int i = 0; i < 3; ++i) {
        const auto t = gpu.step();
        EXPECT_GT(t.total(), 0.0);
        const double now = gpu.device_handle().sim().host_time();
        EXPECT_GT(now, last);
        last = now;
    }
}

// --- device-lost recovery (cusim::faults + the CPU fallback path) ----------

/// Runs `plugin` for 5 steps, losing the device on the first kernel launch
/// of step 2. The plugin must absorb the loss (reset + CPU fallback +
/// resume) without it being observable in the final flock.
void run_with_device_loss(GpuBoidsPlugin& plugin, const WorldSpec& spec) {
    plugin.open(spec);
    for (int step = 0; step < 5; ++step) {
        if (step == 2) {
            cusim::faults::Rule r;
            r.site = cusim::faults::Site::Launch;
            r.code = cusim::ErrorCode::DeviceLost;
            r.nth = 1;
            r.max_injections = 1;
            cusim::faults::configure({r});
        }
        plugin.step();
    }
    cusim::faults::reset();
}

class DeviceLostRecovery : public ::testing::TestWithParam<Version> {
protected:
    void TearDown() override { cusim::faults::reset(); }
};

TEST_P(DeviceLostRecovery, CpuFallbackKeepsTheFlockBitIdentical) {
    const WorldSpec spec = small_world();
    // Version 6's oracle is the grid-enabled CPU plugin (identical candidate
    // order); every other version bit-matches the brute-force reference.
    const bool v6 = GetParam() == Version::V6_GridNeighborSearch;
    steer::CpuBoidsPlugin cpu;
    cpu.open(v6 ? spec.with_grid() : spec);
    for (int step = 0; step < 5; ++step) cpu.step();

    GpuBoidsPlugin gpu(GetParam());
    run_with_device_loss(gpu, spec);

    EXPECT_EQ(gpu.device_resets(), 1u);
    EXPECT_EQ(gpu.cpu_fallback_steps(), 1u);
    EXPECT_FALSE(gpu.device_handle().lost()) << "the plugin must reset the device";
    expect_same_flock(cpu.snapshot(), gpu.snapshot(), "device-lost recovery");

    // The recovered run's statistics must equal a fault-free run's: the
    // CPU fallback mirrors exactly the counters the lost step would have
    // added.
    GpuBoidsPlugin clean(GetParam());
    clean.open(spec);
    for (int step = 0; step < 5; ++step) clean.step();
    EXPECT_EQ(gpu.counters().thinks, clean.counters().thinks);
    EXPECT_EQ(gpu.counters().pairs_examined, clean.counters().pairs_examined);
    EXPECT_EQ(gpu.counters().modifies, clean.counters().modifies);
    EXPECT_EQ(gpu.counters().neighbors_found, clean.counters().neighbors_found);
}

INSTANTIATE_TEST_SUITE_P(AllVersions, DeviceLostRecovery,
                         ::testing::Values(Version::V1_NeighborSearchGlobal,
                                           Version::V2_NeighborSearchShared,
                                           Version::V3_SimSubstageCached,
                                           Version::V4_SimSubstageRecompute,
                                           Version::V5_FullUpdateOnDevice,
                                           Version::V6_GridNeighborSearch),
                         [](const auto& info) {
                             return "v" + std::to_string(static_cast<int>(info.param));
                         });

TEST(DeviceLostRecoveryExtra, DoubleBufferedV5RecoversTheSameFlock) {
    const WorldSpec spec = small_world();
    // Snapshot the plain run before the double-buffered one: device reset is
    // device-global, so the second plugin's recovery wipes the first's
    // device-side state (version 5 snapshots download from the device).
    GpuBoidsPlugin plain(Version::V5_FullUpdateOnDevice, /*double_buffering=*/false);
    run_with_device_loss(plain, spec);
    const std::vector<Agent> plain_flock = plain.snapshot();

    GpuBoidsPlugin db(Version::V5_FullUpdateOnDevice, /*double_buffering=*/true);
    run_with_device_loss(db, spec);

    EXPECT_EQ(db.device_resets(), 1u);
    EXPECT_EQ(db.cpu_fallback_steps(), 1u);
    // Double buffering changes which frame is *drawn*, never the flock.
    expect_same_flock(plain_flock, db.snapshot(), "db recovery flock");
    ASSERT_EQ(db.draw_matrices().size(), spec.agents);
}

TEST(DeviceLostRecoveryExtra, SurvivesLossesInConsecutiveSteps) {
    const WorldSpec spec = small_world();
    steer::CpuBoidsPlugin cpu;
    cpu.open(spec.with_grid());  // version 6's bit-exact oracle
    for (int step = 0; step < 6; ++step) cpu.step();

    GpuBoidsPlugin gpu(Version::V6_GridNeighborSearch);
    gpu.open(spec);
    for (int step = 0; step < 6; ++step) {
        if (step == 1 || step == 2) {
            cusim::faults::Rule r;
            r.site = cusim::faults::Site::Launch;
            r.code = cusim::ErrorCode::DeviceLost;
            r.nth = 1;
            r.max_injections = 1;
            cusim::faults::configure({r});
        }
        gpu.step();
    }
    cusim::faults::reset();

    EXPECT_EQ(gpu.device_resets(), 2u);
    EXPECT_EQ(gpu.cpu_fallback_steps(), 2u);
    expect_same_flock(cpu.snapshot(), gpu.snapshot(), "two losses");
}

// Parallel block-engine determinism (PR 4): the whole Boids pipeline — six
// kernel versions' worth of launches per step — must produce a bit-identical
// flock whether the simulator runs blocks on one host thread or many.
TEST(GpuPlugin, ParallelEngineKeepsTheFlockBitIdentical) {
    const WorldSpec spec = small_world();
    auto run_flock = [&](unsigned threads) {
        cusim::BlockPool::set_threads(threads);
        GpuBoidsPlugin gpu(Version::V5_FullUpdateOnDevice);
        gpu.open(spec);
        for (int step = 0; step < 5; ++step) gpu.step();
        auto flock = gpu.snapshot();
        cusim::BlockPool::set_threads(0);
        return flock;
    };
    const auto serial = run_flock(1);
    expect_same_flock(run_flock(2), serial, "2 engine threads");
    expect_same_flock(run_flock(8), serial, "8 engine threads");
}

// Engine parity on the real workload. The simulation substage (V3/V4/V5)
// has a warp form, so under EngineMode::Warp it runs once per warp while the
// other Boids kernels keep their thread form. Every launch's LaunchStats and
// the flock must match the thread engine exactly, for one and for eight
// engine threads: full warps (think period 1) and partly idle ones (period
// 3), two flock sizes, and with the profiler's bank-conflict counts on.
struct EngineRun {
    std::vector<Agent> flock;
    std::vector<cusim::LaunchRecord> launches;
};

EngineRun run_engine(Version version, const WorldSpec& spec, cusim::EngineMode mode,
                     unsigned threads) {
    cusim::set_engine_mode(mode);
    cusim::BlockPool::set_threads(threads);
    GpuBoidsPlugin gpu(version);
    gpu.open(spec);
    for (int step = 0; step < 3; ++step) gpu.step();
    EngineRun run;
    run.flock = gpu.snapshot();
    // This plugin's launches: the tail of its device's launch history.
    run.launches = gpu.device_handle().sim().recent_launches();
    run.launches.erase(run.launches.begin(),
                       run.launches.end() - static_cast<std::ptrdiff_t>(gpu.kernel_launches()));
    cusim::BlockPool::set_threads(0);
    cusim::clear_engine_mode();
    return run;
}

void expect_same_run(const EngineRun& a, const EngineRun& b, const std::string& what) {
    ASSERT_EQ(a.flock.size(), b.flock.size()) << what;
    for (std::size_t i = 0; i < a.flock.size(); ++i) {
        EXPECT_EQ(a.flock[i].position, b.flock[i].position) << what << " agent " << i;
        EXPECT_EQ(a.flock[i].forward, b.flock[i].forward) << what << " agent " << i;
        EXPECT_EQ(a.flock[i].speed, b.flock[i].speed) << what << " agent " << i;
    }
    ASSERT_EQ(a.launches.size(), b.launches.size()) << what;
    for (std::size_t i = 0; i < a.launches.size(); ++i) {
        const std::string at = what + " launch " + std::to_string(i) + " (" +
                               a.launches[i].kernel_name + ")";
        const cusim::LaunchStats& x = a.launches[i].stats;
        const cusim::LaunchStats& y = b.launches[i].stats;
        EXPECT_EQ(a.launches[i].kernel_name, b.launches[i].kernel_name) << at;
        EXPECT_EQ(x.blocks, y.blocks) << at;
        EXPECT_EQ(x.warps, y.warps) << at;
        EXPECT_EQ(x.threads, y.threads) << at;
        EXPECT_EQ(x.threads_per_block, y.threads_per_block) << at;
        EXPECT_EQ(x.compute_cycles, y.compute_cycles) << at;
        EXPECT_EQ(x.stall_cycles, y.stall_cycles) << at;
        EXPECT_EQ(x.bytes_read, y.bytes_read) << at;
        EXPECT_EQ(x.bytes_written, y.bytes_written) << at;
        EXPECT_EQ(x.useful_bytes_read, y.useful_bytes_read) << at;
        EXPECT_EQ(x.useful_bytes_written, y.useful_bytes_written) << at;
        EXPECT_EQ(x.divergent_events, y.divergent_events) << at;
        EXPECT_EQ(x.branch_evaluations, y.branch_evaluations) << at;
        EXPECT_EQ(x.shared_accesses, y.shared_accesses) << at;
        EXPECT_EQ(x.shared_bank_conflicts, y.shared_bank_conflicts) << at;
        EXPECT_EQ(x.syncthreads_count, y.syncthreads_count) << at;
        EXPECT_EQ(x.resident_blocks_per_mp, y.resident_blocks_per_mp) << at;
        EXPECT_EQ(x.device_seconds, y.device_seconds) << at;
    }
}

TEST(GpuPlugin, WarpEngineModeKeepsTheFlockBitIdentical) {
    for (const bool prof : {false, true}) {
        if (prof) cusim::prof::enable();
        for (const Version version :
             {Version::V3_SimSubstageCached, Version::V4_SimSubstageRecompute,
              Version::V5_FullUpdateOnDevice}) {
            for (const std::uint32_t agents : {256u, 384u}) {
                for (const std::uint32_t think : {1u, 3u}) {
                    const WorldSpec spec = small_world(agents, think);
                    const std::string what =
                        "v" + std::to_string(static_cast<int>(version)) + " " +
                        std::to_string(agents) + " agents, think " + std::to_string(think) +
                        (prof ? ", prof" : "");
                    const EngineRun oracle =
                        run_engine(version, spec, cusim::EngineMode::Thread, 1);
                    if (prof) {
                        ASSERT_GT(oracle.launches.front().stats.shared_accesses, 0u) << what;
                    }
                    expect_same_run(run_engine(version, spec, cusim::EngineMode::Warp, 1),
                                    oracle, what + ", warp serial");
                    expect_same_run(run_engine(version, spec, cusim::EngineMode::Warp, 8),
                                    oracle, what + ", warp + 8 engine threads");
                }
            }
        }
        if (prof) cusim::prof::reset();
    }
}

// With memcheck on, the warp form routes every access through the lane
// facades: the run stays bit-identical and the (empty) report matches.
TEST(GpuPlugin, WarpEngineModeKeepsMemcheckReportsIdentical) {
    const WorldSpec spec = small_world(256, 3);
    const auto checked_run = [&](cusim::EngineMode mode, unsigned threads,
                                 std::string& report) {
        cusim::memcheck::reset();
        cusim::memcheck::enable();
        EngineRun run = run_engine(Version::V5_FullUpdateOnDevice, spec, mode, threads);
        cusim::memcheck::disable();
        EXPECT_EQ(cusim::memcheck::total_violations(), 0u);
        report = cusim::memcheck::report_json();
        return run;
    };
    std::string oracle_report;
    std::string report;
    const EngineRun oracle = checked_run(cusim::EngineMode::Thread, 1, oracle_report);
    expect_same_run(checked_run(cusim::EngineMode::Warp, 1, report), oracle,
                    "memcheck, warp serial");
    EXPECT_EQ(report, oracle_report);
    expect_same_run(checked_run(cusim::EngineMode::Warp, 8, report), oracle,
                    "memcheck, warp + 8 engine threads");
    EXPECT_EQ(report, oracle_report);
    cusim::memcheck::reset();
}

// The simulation substage called directly through its two-form
// cupp::kernel, with texture fetches on for the read-only vectors: the warp
// form reads them through each lane's texture path, so stats and steering
// still match the thread form.
TEST(GpuPlugin, WarpFormMatchesThreadFormWithTextureFetches) {
    const WorldSpec spec = small_world(256, 3);
    const auto flock = steer::make_flock(spec);
    const gpusteer::FlockParams fp{spec.search_radius, spec.weight_separation,
                                   spec.weight_alignment, spec.weight_cohesion,
                                   spec.max_neighbors};
    const gpusteer::ThinkMap map{1, 3};
    cupp::device d;
    cupp::kernel k(&gpusteer::sim_kernel, &gpusteer::sim_kernel_warp, cusim::dim3{1},
                   cusim::dim3{gpusteer::kThreadsPerBlock});
    k.set_shared_bytes(gpusteer::kThreadsPerBlock * sizeof(steer::Vec3));
    cusim::LaunchStats stats[2];
    std::vector<steer::Vec3> steerings[2];
    for (const cusim::EngineMode mode : {cusim::EngineMode::Thread, cusim::EngineMode::Warp}) {
        cupp::vector<steer::Vec3> positions;
        cupp::vector<steer::Vec3> forwards;
        for (const Agent& a : flock) {
            positions.push_back(a.position);
            forwards.push_back(a.forward);
        }
        positions.set_texture_fetches(true);
        forwards.set_texture_fetches(true);
        cupp::vector<steer::Vec3> out(spec.agents, steer::kZero);
        cusim::set_engine_mode(mode);
        k(d, positions, forwards, out, fp, map, gpusteer::NeighborData::Recompute);
        cusim::clear_engine_mode();
        const bool warp = mode == cusim::EngineMode::Warp;
        stats[warp] = k.last_stats();
        steerings[warp] = out.snapshot();
    }
    EXPECT_EQ(steerings[1], steerings[0]);
    EXPECT_EQ(stats[1].compute_cycles, stats[0].compute_cycles);
    EXPECT_EQ(stats[1].stall_cycles, stats[0].stall_cycles);
    EXPECT_EQ(stats[1].bytes_read, stats[0].bytes_read);
    EXPECT_EQ(stats[1].useful_bytes_read, stats[0].useful_bytes_read);
    EXPECT_EQ(stats[1].bytes_written, stats[0].bytes_written);
    EXPECT_EQ(stats[1].divergent_events, stats[0].divergent_events);
    EXPECT_EQ(stats[1].branch_evaluations, stats[0].branch_evaluations);
    EXPECT_EQ(stats[1].device_seconds, stats[0].device_seconds);
}

// A kernel function is registered once however many kernel objects wrap
// it: registrations live as long as the process, and cupp::serve builds a
// plugin, so four kernel objects, for every request.
TEST(GpuPlugin, PluginsOfOneVersionShareTheirKernelRegistrations) {
    {
        GpuBoidsPlugin global(Version::V1_NeighborSearchGlobal);
        GpuBoidsPlugin shared(Version::V5_FullUpdateOnDevice);
    }
    const std::size_t registered = cusim::rt::registered_kernel_count();
    for (int i = 0; i < 50; ++i) {
        GpuBoidsPlugin gpu(i % 2 == 0 ? Version::V5_FullUpdateOnDevice
                                      : Version::V1_NeighborSearchGlobal);
    }
    EXPECT_EQ(cusim::rt::registered_kernel_count(), registered);
}

TEST(GpuPlugin, VersionTraitsMatchTable6_1) {
    using gpusteer::VersionTraits;
    constexpr auto v1 = VersionTraits::of(Version::V1_NeighborSearchGlobal);
    constexpr auto v2 = VersionTraits::of(Version::V2_NeighborSearchShared);
    constexpr auto v3 = VersionTraits::of(Version::V3_SimSubstageCached);
    constexpr auto v4 = VersionTraits::of(Version::V4_SimSubstageRecompute);
    constexpr auto v5 = VersionTraits::of(Version::V5_FullUpdateOnDevice);
    EXPECT_TRUE(v1.ns_on_device && !v1.steering_on_device && !v1.modification_on_device);
    EXPECT_TRUE(v2.ns_on_device && !v2.steering_on_device && !v2.modification_on_device);
    EXPECT_TRUE(v3.ns_on_device && v3.steering_on_device && !v3.modification_on_device);
    EXPECT_TRUE(v4.ns_on_device && v4.steering_on_device && !v4.modification_on_device);
    EXPECT_TRUE(v5.ns_on_device && v5.steering_on_device && v5.modification_on_device);
}

}  // namespace
