// Warp-vectorized engine tests: dual-form kernels must be observably
// indistinguishable from their per-thread oracle — same outputs, same
// LaunchStats, same divergent-barrier diagnostics, same memcheck messages —
// while running one coroutine per warp, on any number of pool workers.
// Also covers the FrameCache LRU bucket replacement and the
// CUPP_SIM_ENGINE override plumbing.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cupp/trace.hpp"
#include "cusim/cusim.hpp"

namespace {

using namespace cusim;

/// Restores the default engine selection when a test scope ends.
struct EngineGuard {
    explicit EngineGuard(EngineMode m) { set_engine_mode(m); }
    ~EngineGuard() { clear_engine_mode(); }
};

void expect_stats_eq(const LaunchStats& a, const LaunchStats& b) {
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.warps, b.warps);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.threads_per_block, b.threads_per_block);
    EXPECT_EQ(a.compute_cycles, b.compute_cycles);
    EXPECT_EQ(a.stall_cycles, b.stall_cycles);
    EXPECT_EQ(a.bytes_read, b.bytes_read);
    EXPECT_EQ(a.bytes_written, b.bytes_written);
    EXPECT_EQ(a.useful_bytes_read, b.useful_bytes_read);
    EXPECT_EQ(a.useful_bytes_written, b.useful_bytes_written);
    EXPECT_EQ(a.divergent_events, b.divergent_events);
    EXPECT_EQ(a.branch_evaluations, b.branch_evaluations);
    EXPECT_EQ(a.shared_accesses, b.shared_accesses);
    EXPECT_EQ(a.shared_bank_conflicts, b.shared_bank_conflicts);
    EXPECT_EQ(a.syncthreads_count, b.syncthreads_count);
    EXPECT_EQ(a.resident_blocks_per_mp, b.resident_blocks_per_mp);
    EXPECT_DOUBLE_EQ(a.device_seconds, b.device_seconds);
}

/// One launch's observables: the output buffer and the LaunchStats.
template <typename T>
struct Observed {
    std::vector<T> out;
    LaunchStats stats;
};

/// Runs `launch` on a fresh device under the thread engine on one worker,
/// then under both engines on 1, 2, 4 and 8 workers, and expects every run
/// to match the first bit for bit. Memcheck stays off, so the warp engine
/// takes its lane-batched paths rather than the per-lane facades. Returns
/// the reference run.
template <typename T, typename Launch>
Observed<T> expect_engine_parity(Launch&& launch) {
    EXPECT_FALSE(memcheck::enabled());
    const auto run = [&](EngineMode mode, unsigned workers) {
        EngineGuard guard(mode);
        DeviceProperties props = tiny_properties();
        props.sim_threads = workers;
        Device dev(props);
        return launch(dev);
    };
    const Observed<T> ref = run(EngineMode::Thread, 1);
    for (const EngineMode mode : {EngineMode::Thread, EngineMode::Warp}) {
        for (const unsigned workers : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE(std::string(mode == EngineMode::Warp ? "warp" : "thread") +
                         " engine, " + std::to_string(workers) + " worker(s)");
            const Observed<T> got = run(mode, workers);
            EXPECT_EQ(got.out, ref.out);
            expect_stats_eq(got.stats, ref.stats);
        }
    }
    return ref;
}

// --- iota: the simplest dual-form kernel -----------------------------------

KernelTask iota_thread(ThreadCtx& ctx, DevicePtr<std::uint32_t> out) {
    const std::uint64_t gid = ctx.global_id();
    if (gid < out.size()) out.write(ctx, gid, static_cast<std::uint32_t>(gid * 7));
    co_return;
}

KernelTask iota_warp(WarpCtx& w, DevicePtr<std::uint32_t> out) {
    std::uint64_t idx[kWarpSize];
    std::uint32_t v[kWarpSize];
    std::uint32_t in_range = 0;
    for (unsigned l = 0; l < w.lanes(); ++l) {
        idx[l] = w.global_id(l);
        v[l] = static_cast<std::uint32_t>(idx[l] * 7);
        if (idx[l] < out.size()) in_range |= 1u << l;
    }
    w.push_active(in_range);
    w.write(out, idx, v);
    w.pop_active();
    co_return;
}

TEST(WarpEngine, IotaMatchesThreadEngineBitForBit) {
    const auto ref = expect_engine_parity<std::uint32_t>([](Device& dev) {
        auto out = dev.malloc_n<std::uint32_t>(1000);
        LaunchConfig cfg{dim3{8}, dim3{128}};
        KernelSpec spec([&](ThreadCtx& ctx) { return iota_thread(ctx, out); },
                        [&](WarpCtx& w) { return iota_warp(w, out); });
        Observed<std::uint32_t> o{std::vector<std::uint32_t>(1000),
                                  dev.launch(cfg, spec, "iota")};
        dev.download(std::span<std::uint32_t>(o.out), out);
        return o;
    });
    for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(ref.out[i], i * 7) << i;
}

// --- the dispatcher actually switches engines ------------------------------

TEST(WarpEngine, ModeOverrideSelectsTheForm) {
    // Forms that deliberately disagree, so the dispatch is observable.
    Device dev(tiny_properties());
    auto out = dev.malloc_n<std::uint32_t>(32);
    LaunchConfig cfg{dim3{1}, dim3{32}};
    KernelSpec spec(
        [&](ThreadCtx& ctx) -> KernelTask {
            out.write(ctx, ctx.global_id(), 1u);
            co_return;
        },
        [&](WarpCtx& w) -> KernelTask {
            std::uint64_t idx[kWarpSize];
            std::uint32_t v[kWarpSize];
            for (unsigned l = 0; l < w.lanes(); ++l) {
                idx[l] = w.global_id(l);
                v[l] = 2u;
            }
            w.write(out, idx, v);
            co_return;
        });
    std::vector<std::uint32_t> host(32);
    {
        EngineGuard guard(EngineMode::Warp);
        dev.launch(cfg, spec, "which");
        dev.download(std::span<std::uint32_t>(host), out);
        for (auto x : host) EXPECT_EQ(x, 2u);
    }
    {
        EngineGuard guard(EngineMode::Thread);
        dev.launch(cfg, spec, "which");
        dev.download(std::span<std::uint32_t>(host), out);
        for (auto x : host) EXPECT_EQ(x, 1u);
    }
    // A spec with no warp form runs the thread form under either mode.
    {
        EngineGuard guard(EngineMode::Warp);
        KernelSpec thread_only([&](ThreadCtx& ctx) -> KernelTask {
            out.write(ctx, ctx.global_id(), 3u);
            co_return;
        });
        dev.launch(cfg, thread_only, "thread-only");
        dev.download(std::span<std::uint32_t>(host), out);
        for (auto x : host) EXPECT_EQ(x, 3u);
    }
}

// --- nested divergence ------------------------------------------------------

KernelTask nest_thread(ThreadCtx& ctx, DevicePtr<std::uint32_t> in,
                       DevicePtr<std::uint32_t> out) {
    const std::uint64_t gid = ctx.global_id();
    std::uint32_t v = in.read(ctx, gid);
    if (ctx.branch((v & 1u) == 0)) {
        v /= 2;
        if (ctx.branch((v & 2u) != 0)) v += 100;
    } else {
        v = v * 3 + 1;
    }
    out.write(ctx, gid, v);
    co_return;
}

KernelTask nest_warp(WarpCtx& w, DevicePtr<std::uint32_t> in,
                     DevicePtr<std::uint32_t> out) {
    std::uint64_t idx[kWarpSize];
    std::uint32_t v[kWarpSize];
    for (unsigned l = 0; l < w.lanes(); ++l) idx[l] = w.global_id(l);
    w.read(in, idx, v);

    std::uint32_t even = 0;
    for (unsigned l = 0; l < w.lanes(); ++l) {
        if ((v[l] & 1u) == 0) even |= 1u << l;
    }
    w.push_active(w.ballot(even));
    {
        for (std::uint32_t m = w.active(); m != 0; m &= m - 1) {
            v[std::countr_zero(m)] /= 2;
        }
        std::uint32_t inner = 0;
        for (std::uint32_t m = w.active(); m != 0; m &= m - 1) {
            const unsigned l = std::countr_zero(m);
            if ((v[l] & 2u) != 0) inner |= 1u << l;
        }
        w.push_active(w.ballot(inner));
        for (std::uint32_t m = w.active(); m != 0; m &= m - 1) {
            v[std::countr_zero(m)] += 100;
        }
        w.pop_active();
    }
    w.else_active();
    for (std::uint32_t m = w.active(); m != 0; m &= m - 1) {
        const unsigned l = std::countr_zero(m);
        v[l] = v[l] * 3 + 1;
    }
    w.pop_active();

    w.write(out, idx, v);
    co_return;
}

TEST(WarpEngine, NestedDivergenceMatchesThreadEngine) {
    const auto ref = expect_engine_parity<std::uint32_t>([](Device& dev) {
        const std::uint64_t n = 8 * 96;  // partial tail warp in every block
        auto in = dev.malloc_n<std::uint32_t>(n);
        auto out = dev.malloc_n<std::uint32_t>(n);
        std::vector<std::uint32_t> seed(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            seed[i] = static_cast<std::uint32_t>(i * 2654435761u + 12345u);
        }
        dev.upload(in, std::span<const std::uint32_t>(seed));
        LaunchConfig cfg{dim3{8}, dim3{96}};
        KernelSpec spec([&](ThreadCtx& ctx) { return nest_thread(ctx, in, out); },
                        [&](WarpCtx& w) { return nest_warp(w, in, out); });
        Observed<std::uint32_t> o{std::vector<std::uint32_t>(n),
                                  dev.launch(cfg, spec, "nest")};
        dev.download(std::span<std::uint32_t>(o.out), out);
        return o;
    });
    EXPECT_GT(ref.stats.divergent_events, 0u);
}

// --- shared memory + __syncthreads across warps ----------------------------

KernelTask rotate_thread(ThreadCtx& ctx, DevicePtr<float> out) {
    const unsigned n = ctx.block_dim().x;
    auto tile = ctx.shared_array<float>(n);
    const unsigned tid = ctx.thread_idx().x;
    tile.write(ctx, tid, static_cast<float>(tid) * 1.5f);
    co_await ctx.syncthreads();
    const float v = tile.read(ctx, (tid + 1) % n);
    out.write(ctx, ctx.global_id(), v);
    co_return;
}

KernelTask rotate_warp(WarpCtx& w, DevicePtr<float> out) {
    const unsigned n = w.block_dim().x;
    auto tile = w.shared_array<float>(n);
    std::uint64_t idx[kWarpSize];
    float v[kWarpSize];
    for (unsigned l = 0; l < w.lanes(); ++l) {
        idx[l] = w.lane_tid(l);
        v[l] = static_cast<float>(w.lane_tid(l)) * 1.5f;
    }
    w.write(tile, idx, v);
    co_await w.syncthreads();
    for (unsigned l = 0; l < w.lanes(); ++l) idx[l] = (w.lane_tid(l) + 1) % n;
    w.read(tile, idx, v);
    for (unsigned l = 0; l < w.lanes(); ++l) idx[l] = w.global_id(l);
    w.write(out, idx, v);
    co_return;
}

TEST(WarpEngine, SharedTileRotationCrossesWarps) {
    const auto ref = expect_engine_parity<float>([](Device& dev) {
        LaunchConfig cfg{dim3{8}, dim3{64}};
        cfg.shared_bytes = 64 * sizeof(float);
        auto out = dev.malloc_n<float>(cfg.total_threads());
        KernelSpec spec([&](ThreadCtx& ctx) { return rotate_thread(ctx, out); },
                        [&](WarpCtx& w) { return rotate_warp(w, out); });
        Observed<float> o{std::vector<float>(cfg.total_threads()),
                          dev.launch(cfg, spec, "rotate")};
        dev.download(std::span<float>(o.out), out);
        return o;
    });
    EXPECT_EQ(ref.stats.syncthreads_count, 8u);  // one episode per block
    // Lane 31 of warp 0 reads tile[32] — written by warp 1, proving the
    // barrier actually publishes across warp coroutines.
    EXPECT_FLOAT_EQ(ref.out[31], 32.0f * 1.5f);
    EXPECT_FLOAT_EQ(ref.out[63], 0.0f);  // wraps to tile[0]
}

// --- divergent __syncthreads diagnosis -------------------------------------

TEST(WarpEngine, DivergentBarrierMessageMatchesThreadEngine) {
    std::string msg_w, msg_t;
    for (const EngineMode mode : {EngineMode::Warp, EngineMode::Thread}) {
        EngineGuard guard(mode);
        Device dev(tiny_properties());
        LaunchConfig cfg{dim3{1}, dim3{32}};
        KernelSpec spec(
            [&](ThreadCtx& ctx) -> KernelTask {
                if (ctx.thread_idx().x % 2 == 0) co_return;  // evens never arrive
                co_await ctx.syncthreads();
            },
            [&](WarpCtx& w) -> KernelTask {
                std::uint32_t evens = 0;
                for (unsigned l = 0; l < w.lanes(); ++l) {
                    if (w.lane_tid(l) % 2 == 0) evens |= 1u << l;
                }
                w.exit_lanes(evens);
                co_await w.syncthreads();
            });
        try {
            dev.launch(cfg, spec, "divergent");
            FAIL() << "divergent barrier was not diagnosed";
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::LaunchFailure);
            (mode == EngineMode::Warp ? msg_w : msg_t) = e.what();
        }
    }
    EXPECT_EQ(msg_w, msg_t);
    EXPECT_NE(msg_w.find("16 of 32 threads (divergent barrier)"), std::string::npos)
        << msg_w;
}

// --- early exit -------------------------------------------------------------

TEST(WarpEngine, AllLanesExitedWarpRetiresCleanly) {
    EngineGuard guard(EngineMode::Warp);
    Device dev(tiny_properties());
    LaunchConfig cfg{dim3{1}, dim3{96}};  // 3 warps
    auto out = dev.malloc_n<std::uint32_t>(96);
    // After the first (well-formed) barrier, warps 1-2 exit all lanes. Their
    // next syncthreads must be a no-op (no active lanes), their batched
    // write must touch nothing, and they must retire cleanly — while warp 0,
    // arriving at that second barrier alone, is the textbook divergent
    // barrier the engine has to diagnose exactly like the thread engine:
    // 32 of 96 threads arrived.
    KernelSpec spec(KernelEntry{}, [&](WarpCtx& w) -> KernelTask {
        co_await w.syncthreads();
        if (w.warp_index() > 0) {
            w.exit_lanes(w.full_mask());
        }
        co_await w.syncthreads();  // no-op for exited warps (active == 0)
        std::uint64_t idx[kWarpSize];
        std::uint32_t v[kWarpSize];
        for (unsigned l = 0; l < w.lanes(); ++l) {
            idx[l] = w.global_id(l);
            v[l] = 7u;
        }
        w.write(out, idx, v);  // touches no lanes in the exited warps
        co_return;
    });
    try {
        dev.launch(cfg, spec, "exit");
        FAIL() << "warp 0 barriering alone was not diagnosed";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::LaunchFailure);
        EXPECT_NE(std::string(e.what())
                      .find("32 of 96 threads (divergent barrier)"),
                  std::string::npos)
            << e.what();
    }
}

TEST(WarpEngine, ExitLanesSkipsRetiredLanesInBatchedOps) {
    EngineGuard guard(EngineMode::Warp);
    Device dev(tiny_properties());
    LaunchConfig cfg{dim3{1}, dim3{64}};  // 2 warps, no barriers anywhere
    auto out = dev.malloc_n<std::uint32_t>(64);
    std::vector<std::uint32_t> zero(64, 0u);
    dev.upload(out, std::span<const std::uint32_t>(zero));
    KernelSpec spec(KernelEntry{}, [&](WarpCtx& w) -> KernelTask {
        // Odd lanes leave immediately; the batched write below must only
        // touch even lanes. The second warp exits entirely mid-body.
        std::uint32_t odds = 0;
        for (unsigned l = 0; l < w.lanes(); ++l) {
            if (w.lane_tid(l) % 2 != 0) odds |= 1u << l;
        }
        w.exit_lanes(odds);
        if (w.warp_index() == 1) w.exit_lanes(w.full_mask());
        std::uint64_t idx[kWarpSize];
        std::uint32_t v[kWarpSize];
        for (unsigned l = 0; l < w.lanes(); ++l) {
            idx[l] = w.global_id(l);
            v[l] = 9u;
        }
        w.write(out, idx, v);
        co_return;
    });
    auto stats = dev.launch(cfg, spec, "exit-lanes");
    std::vector<std::uint32_t> host(64);
    dev.download(std::span<std::uint32_t>(host), out);
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_EQ(host[i], (i < 32 && i % 2 == 0) ? 9u : 0u) << i;
    }
    // Only the 16 surviving lanes of warp 0 paid for the write.
    EXPECT_EQ(stats.useful_bytes_written, 16u * sizeof(std::uint32_t));
}

// --- broadcast shared reads and the warp-uniform account ---------------------
// Every thread sums the whole shared tile twice: once with the warp fully
// active (charges land in the warp-uniform account, reads are broadcasts)
// and once behind a branch only some lanes take. 80-thread blocks give each
// block a 16-lane tail warp, whose full mask is partial.

KernelTask tile_sum_thread(ThreadCtx& ctx, DevicePtr<float> in, DevicePtr<float> out) {
    const unsigned n = static_cast<unsigned>(ctx.block_dim().count());
    const unsigned tid = ctx.linear_tid();
    auto tile = ctx.shared_array<float>(n);
    tile.write(ctx, tid, in.read(ctx, ctx.global_id()));
    co_await ctx.syncthreads();
    float sum = 0.0f;
    for (unsigned i = 0; i < n; ++i) {
        ctx.charge(Op::FAdd);
        sum += tile.read(ctx, i);
    }
    if (ctx.branch(tid % 3 != 0)) {
        for (unsigned i = 0; i < n; ++i) {
            ctx.charge(Op::FMul);
            sum += 2.0f * tile.read(ctx, i);
        }
    }
    out.write(ctx, ctx.global_id(), sum);
    co_return;
}

KernelTask tile_sum_warp(WarpCtx& w, DevicePtr<float> in, DevicePtr<float> out) {
    const unsigned n = static_cast<unsigned>(w.block_dim().count());
    std::uint64_t tid[kWarpSize]{};
    std::uint64_t gid[kWarpSize]{};
    float v[kWarpSize]{};
    float sum[kWarpSize]{};
    std::uint32_t second = 0;
    for (unsigned l = 0; l < w.lanes(); ++l) {
        tid[l] = w.lane_tid(l);
        gid[l] = w.global_id(l);
        second |= std::uint32_t{tid[l] % 3 != 0} << l;
    }
    auto tile = w.shared_array<float>(n);
    w.read(in, gid, v);
    w.write(tile, tid, v);
    co_await w.syncthreads();
    for (unsigned i = 0; i < n; ++i) {
        w.charge(Op::FAdd);
        const float x = w.read_broadcast(tile, i);
        for (unsigned l = 0; l < w.lanes(); ++l) sum[l] += x;
    }
    w.push_active(w.ballot(second));
    for (unsigned i = 0; i < n; ++i) {
        w.charge(Op::FMul);
        const float x = w.read_broadcast(tile, i);
        for (std::uint32_t m = w.active(); m != 0; m &= m - 1) {
            sum[std::countr_zero(m)] += 2.0f * x;
        }
    }
    w.pop_active();
    w.write(out, gid, sum);
    co_return;
}

TEST(WarpEngine, BroadcastSharedReadsMatchThreadEngine) {
    for (const bool prof_on : {false, true}) {
        if (prof_on) prof::enable();
        std::vector<float> host_w, host_t;
        LaunchStats st_w, st_t;
        for (const EngineMode mode : {EngineMode::Warp, EngineMode::Thread}) {
            EngineGuard guard(mode);
            Device dev(tiny_properties());
            const std::uint64_t n = 3 * 80;
            auto in = dev.malloc_n<float>(n);
            auto out = dev.malloc_n<float>(n);
            std::vector<float> seed(n);
            for (std::uint64_t i = 0; i < n; ++i) seed[i] = 0.25f * static_cast<float>(i % 17);
            dev.upload(in, std::span<const float>(seed));
            LaunchConfig cfg{dim3{3}, dim3{80}, 80 * sizeof(float)};
            KernelSpec spec([&](ThreadCtx& ctx) { return tile_sum_thread(ctx, in, out); },
                            [&](WarpCtx& w) { return tile_sum_warp(w, in, out); });
            const LaunchStats stats = dev.launch(cfg, spec, "tile_sum");
            std::vector<float> host(n);
            dev.download(std::span<float>(host), out);
            (mode == EngineMode::Warp ? host_w : host_t) = std::move(host);
            (mode == EngineMode::Warp ? st_w : st_t) = stats;
        }
        if (prof_on) prof::reset();
        EXPECT_EQ(host_w, host_t) << "prof " << prof_on;
        expect_stats_eq(st_w, st_t);
        // Per block: 80 writes, 80 * 80 full-warp reads, and 53 threads
        // (tid % 3 != 0) * 80 reads behind the branch.
        EXPECT_EQ(st_w.shared_accesses, prof_on ? 3u * (80 + 80 * 80 + 80 * 53) : 0u);
    }
}

TEST(WarpEngine, OutOfRangeBroadcastReadMessageMatchesThreadEngine) {
    std::string msg_w, msg_t;
    for (const EngineMode mode : {EngineMode::Warp, EngineMode::Thread}) {
        EngineGuard guard(mode);
        Device dev(tiny_properties());
        LaunchConfig cfg{dim3{1}, dim3{64}, 64 * sizeof(float)};
        KernelSpec spec(
            [&](ThreadCtx& ctx) -> KernelTask {
                auto tile = ctx.shared_array<float>(64);
                if (ctx.branch(ctx.linear_tid() >= 40)) (void)tile.read(ctx, 64);
                co_return;
            },
            [&](WarpCtx& w) -> KernelTask {
                auto tile = w.shared_array<float>(64);
                std::uint32_t late = 0;
                for (unsigned l = 0; l < w.lanes(); ++l) {
                    late |= std::uint32_t{w.lane_tid(l) >= 40} << l;
                }
                // Warp 0 reads with no lane active, which must not throw.
                w.push_active(w.ballot(late));
                (void)w.read_broadcast(tile, 64);
                w.pop_active();
                co_return;
            });
        try {
            dev.launch(cfg, spec, "oob_broadcast");
            FAIL() << "out-of-range shared read did not throw";
        } catch (const Error& e) {
            (mode == EngineMode::Warp ? msg_w : msg_t) = e.what();
        }
    }
    EXPECT_EQ(msg_w, msg_t);
    EXPECT_NE(msg_w.find("thread (40,0,0)"), std::string::npos) << msg_w;
}

// --- memcheck parity --------------------------------------------------------

TEST(WarpEngine, MemcheckStrictMessageMatchesThreadEngine) {
    memcheck::enable();
    memcheck::reset();
    memcheck::set_strict(true);
    std::string msg_w, msg_t;
    for (const EngineMode mode : {EngineMode::Warp, EngineMode::Thread}) {
        EngineGuard guard(mode);
        Device dev(tiny_properties());
        auto out = dev.malloc_n<std::uint32_t>(16);
        LaunchConfig cfg{dim3{1}, dim3{32}};
        KernelSpec spec(
            [&](ThreadCtx& ctx) -> KernelTask {
                out.write(ctx, ctx.global_id(), 1u);  // lanes 16.. out of range
                co_return;
            },
            [&](WarpCtx& w) -> KernelTask {
                std::uint64_t idx[kWarpSize];
                std::uint32_t v[kWarpSize];
                for (unsigned l = 0; l < w.lanes(); ++l) {
                    idx[l] = w.global_id(l);
                    v[l] = 1u;
                }
                w.write(out, idx, v);
                co_return;
            });
        try {
            dev.launch(cfg, spec, "oob");
            FAIL() << "strict memcheck did not throw";
        } catch (const Error& e) {
            (mode == EngineMode::Warp ? msg_w : msg_t) = e.what();
        }
    }
    memcheck::set_strict(false);
    memcheck::disable();
    memcheck::reset();
    EXPECT_EQ(msg_w, msg_t);
    EXPECT_FALSE(msg_w.empty());
}

// --- FrameCache LRU + counters ---------------------------------------------

TEST(FrameCache, HitsRecycleExactSizes) {
    detail::FrameCache fc;
    void* a = ::operator new(64);
    fc.give(a, 64);
    void* b = fc.take(64);
    EXPECT_EQ(b, a);  // recycled, not a fresh allocation
    EXPECT_EQ(fc.hits, 1u);
    EXPECT_EQ(fc.misses, 0u);
    void* c = fc.take(64);  // bucket now empty -> miss
    EXPECT_EQ(fc.misses, 1u);
    ::operator delete(b);
    ::operator delete(c);
}

TEST(FrameCache, LruBucketRetargetsOnExhaustion) {
    detail::FrameCache fc;
    // Fill all four buckets with distinct sizes.
    for (std::size_t sz : {32u, 48u, 64u, 80u}) fc.give(::operator new(sz), sz);
    // Touch 32 so it is recently used; 48 becomes the LRU.
    ::operator delete(fc.take(32));
    EXPECT_EQ(fc.evicts, 0u);
    // A fifth size must claim the LRU bucket, evicting its cached frame —
    // the old behaviour leaked every 5th+ size to the global allocator
    // forever and this size would never hit.
    fc.give(::operator new(96), 96);
    EXPECT_EQ(fc.evicts, 1u);
    void* p = fc.take(96);
    EXPECT_EQ(fc.hits, 2u);  // the retargeted bucket serves the new size
    ::operator delete(p);
    // The evicted size misses (its bucket is gone), the survivors still hit.
    ::operator delete(fc.take(48));
    EXPECT_EQ(fc.misses, 1u);
    ::operator delete(fc.take(64));
    EXPECT_EQ(fc.hits, 3u);
}

TEST(FrameCache, FlushPublishesCounterTrio) {
    auto& m = cupp::trace::metrics();
    const auto hit0 = m.counter("cusim.framecache.hit");
    const auto miss0 = m.counter("cusim.framecache.miss");
    const auto evict0 = m.counter("cusim.framecache.evict");
    {
        detail::FrameCache fc;
        for (std::size_t sz : {3200u, 3216u, 3232u, 3248u}) {
            fc.give(::operator new(sz), sz);
        }
        fc.give(::operator new(3264), 3264);   // evicts the LRU bucket
        ::operator delete(fc.take(3264));      // hit
        ::operator delete(fc.take(3200));      // miss (3200 was evicted)
        // Destructor flushes whatever the periodic flush has not.
    }
    EXPECT_EQ(m.counter("cusim.framecache.hit"), hit0 + 1);
    EXPECT_EQ(m.counter("cusim.framecache.miss"), miss0 + 1);
    EXPECT_EQ(m.counter("cusim.framecache.evict"), evict0 + 1);
}

TEST(FrameCache, ManyKernelFrameSizesKeepHitting) {
    // End-to-end: cycling through more kernel frame sizes than buckets must
    // still mostly hit (each size reclaims a bucket on its next block),
    // which is exactly what the LRU replacement buys over the fixed scheme.
    EngineGuard guard(EngineMode::Thread);
    detail::FrameCache& fc = detail::FrameCache::local();
    fc.flush_metrics();
    auto& m = cupp::trace::metrics();
    const auto hit0 = m.counter("cusim.framecache.hit");
    Device dev(tiny_properties());
    auto out = dev.malloc_n<std::uint32_t>(64);
    LaunchConfig cfg{dim3{1}, dim3{64}};
    for (int round = 0; round < 3; ++round) {
        dev.launch(cfg, [&](ThreadCtx& ctx) { return iota_thread(ctx, out); }, "a");
    }
    fc.flush_metrics();
    // Rounds 2 and 3 recycle round 1's frames: 64 threads x 2 rounds at
    // minimum (other tests in this binary share the thread-local cache, so
    // only assert the lower bound).
    EXPECT_GE(m.counter("cusim.framecache.hit"), hit0 + 128);
}

}  // namespace
