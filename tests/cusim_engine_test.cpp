// Engine tests: SPMD execution, built-in variables, __syncthreads semantics,
// shared memory, divergence accounting, async launch timeline.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "cusim/cusim.hpp"

namespace {

using namespace cusim;

// Every thread writes its global id; checks the thread/block index plumbing.
KernelTask iota_kernel(ThreadCtx& ctx, DevicePtr<std::uint32_t> out) {
    const std::uint64_t gid = ctx.global_id();
    if (gid < out.size()) {
        out.write(ctx, gid, static_cast<std::uint32_t>(gid));
    }
    co_return;
}

TEST(Engine, SpmdIotaCoversGrid) {
    Device dev(tiny_properties());
    auto out = dev.malloc_n<std::uint32_t>(1000);
    LaunchConfig cfg{dim3{8}, dim3{128}};
    auto stats = dev.launch(cfg, [&](ThreadCtx& ctx) { return iota_kernel(ctx, out); });
    EXPECT_EQ(stats.blocks, 8u);
    EXPECT_EQ(stats.threads, 1024u);
    EXPECT_EQ(stats.warps, 8u * 4u);

    std::vector<std::uint32_t> host(1000);
    dev.download(std::span<std::uint32_t>(host), out);
    for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(host[i], i) << i;
}

// 2-dimensional block indexing as in the thesis' kernel example (§4.3).
KernelTask dim2_kernel(ThreadCtx& ctx, DevicePtr<std::uint32_t> out) {
    const unsigned bid = ctx.block_idx().x + ctx.grid_dim().x * ctx.block_idx().y;
    const unsigned tid = ctx.thread_idx().x + ctx.block_dim().x * ctx.thread_idx().y;
    const std::uint64_t gid = std::uint64_t{bid} * ctx.block_dim().count() + tid;
    out.write(ctx, gid, static_cast<std::uint32_t>(gid * 3));
    co_return;
}

TEST(Engine, TwoDimensionalIndexing) {
    Device dev(tiny_properties());
    // 10x10 blocks of 8x8 threads: the geometry of listing 4.3.
    LaunchConfig cfg{make_dim3(10, 10), make_dim3(8, 8)};
    auto out = dev.malloc_n<std::uint32_t>(cfg.total_threads());
    dev.launch(cfg, [&](ThreadCtx& ctx) { return dim2_kernel(ctx, out); });
    std::vector<std::uint32_t> host(cfg.total_threads());
    dev.download(std::span<std::uint32_t>(host), out);
    for (std::uint64_t i = 0; i < host.size(); ++i) EXPECT_EQ(host[i], i * 3);
}

// Block-wide reduction through shared memory exercises __syncthreads.
KernelTask reduce_kernel(ThreadCtx& ctx, DevicePtr<std::uint32_t> in,
                         DevicePtr<std::uint32_t> out) {
    auto scratch = ctx.shared_array<std::uint32_t>(ctx.block_dim().x);
    const unsigned tid = ctx.thread_idx().x;
    const std::uint64_t gid = ctx.global_id();
    scratch.write(ctx, tid, in.read(ctx, gid));
    co_await ctx.syncthreads();
    for (unsigned stride = ctx.block_dim().x / 2; stride > 0; stride /= 2) {
        if (tid < stride) {
            const auto a = scratch.read(ctx, tid);
            const auto b = scratch.read(ctx, tid + stride);
            ctx.charge(Op::IAdd);
            scratch.write(ctx, tid, a + b);
        }
        co_await ctx.syncthreads();
    }
    if (tid == 0) out.write(ctx, ctx.block_idx().x, scratch.read(ctx, 0));
    co_return;
}

TEST(Engine, SharedMemoryReduction) {
    Device dev(tiny_properties());
    constexpr unsigned kBlocks = 4, kThreads = 64;
    std::vector<std::uint32_t> input(kBlocks * kThreads);
    std::iota(input.begin(), input.end(), 0);
    auto in = dev.malloc_n<std::uint32_t>(input.size());
    auto out = dev.malloc_n<std::uint32_t>(kBlocks);
    dev.upload(in, std::span<const std::uint32_t>(input));

    LaunchConfig cfg{dim3{kBlocks}, dim3{kThreads}};
    cfg.shared_bytes = kThreads * sizeof(std::uint32_t);
    auto stats =
        dev.launch(cfg, [&](ThreadCtx& ctx) { return reduce_kernel(ctx, in, out); });
    // log2(64) sync rounds plus the initial one.
    EXPECT_EQ(stats.syncthreads_count, kBlocks * 7u);

    std::vector<std::uint32_t> result(kBlocks);
    dev.download(std::span<std::uint32_t>(result), out);
    for (unsigned b = 0; b < kBlocks; ++b) {
        std::uint32_t expect = 0;
        for (unsigned t = 0; t < kThreads; ++t) expect += input[b * kThreads + t];
        EXPECT_EQ(result[b], expect) << "block " << b;
    }
}

// A barrier reached by only part of the block must be diagnosed, not hang.
KernelTask divergent_barrier_kernel(ThreadCtx& ctx) {
    if (ctx.thread_idx().x < 16) {
        co_await ctx.syncthreads();
    }
    co_return;
}

TEST(Engine, DivergentBarrierThrows) {
    Device dev(tiny_properties());
    LaunchConfig cfg{dim3{1}, dim3{32}};
    try {
        dev.launch(cfg, [](ThreadCtx& ctx) { return divergent_barrier_kernel(ctx); });
        FAIL() << "expected LaunchFailure";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::LaunchFailure);
    }
}

// Exceptions thrown in a kernel body surface as LaunchFailure.
KernelTask throwing_kernel(ThreadCtx& ctx) {
    if (ctx.global_id() == 3) throw std::runtime_error("boom");
    co_return;
}

TEST(Engine, KernelExceptionSurfaces) {
    Device dev(tiny_properties());
    LaunchConfig cfg{dim3{1}, dim3{8}};
    try {
        dev.launch(cfg, [](ThreadCtx& ctx) { return throwing_kernel(ctx); });
        FAIL() << "expected LaunchFailure";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::LaunchFailure);
        EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    }
}

// Out-of-bounds device access is caught per element.
KernelTask oob_kernel(ThreadCtx& ctx, DevicePtr<int> p) {
    p.write(ctx, p.size(), 1);
    co_return;
}

TEST(Engine, OutOfBoundsAccessThrows) {
    Device dev(tiny_properties());
    auto p = dev.malloc_n<int>(4);
    LaunchConfig cfg{dim3{1}, dim3{1}};
    EXPECT_THROW(dev.launch(cfg, [&](ThreadCtx& ctx) { return oob_kernel(ctx, p); }), Error);
}

// Divergence accounting: a branch taken by exactly one lane per warp-step.
KernelTask divergent_branch_kernel(ThreadCtx& ctx, int rounds) {
    for (int r = 0; r < rounds; ++r) {
        if (ctx.branch(ctx.thread_idx().x % kWarpSize == static_cast<unsigned>(r) % kWarpSize)) {
            ctx.charge(Op::FAdd, 4);
        }
    }
    co_return;
}

TEST(Engine, DivergenceEstimatorCountsMixedBranches) {
    Device dev(tiny_properties());
    LaunchConfig cfg{dim3{1}, dim3{64}};
    auto stats = dev.launch(
        cfg, [&](ThreadCtx& ctx) { return divergent_branch_kernel(ctx, 32); });
    // Each of the 32 rounds has exactly one taken lane per warp -> one
    // divergent warp-step per round per warp.
    EXPECT_EQ(stats.divergent_events, 2u * 32u);
    EXPECT_EQ(stats.branch_evaluations, 64u * 32u);
}

KernelTask uniform_branch_kernel(ThreadCtx& ctx, int rounds) {
    for (int r = 0; r < rounds; ++r) {
        if (ctx.branch(r % 2 == 0)) ctx.charge(Op::FAdd);
    }
    co_return;
}

TEST(Engine, UniformBranchesDoNotDiverge) {
    Device dev(tiny_properties());
    LaunchConfig cfg{dim3{2}, dim3{64}};
    auto stats =
        dev.launch(cfg, [&](ThreadCtx& ctx) { return uniform_branch_kernel(ctx, 10); });
    EXPECT_EQ(stats.divergent_events, 0u);
}

// Asynchronous launch semantics (§2.2): the launch itself only costs the
// host the launch overhead; touching device memory afterwards blocks until
// the kernel is done.
KernelTask busy_kernel(ThreadCtx& ctx, DevicePtr<float> data) {
    for (int i = 0; i < 1000; ++i) {
        (void)data.read(ctx, ctx.global_id() % data.size());
    }
    co_return;
}

TEST(Engine, LaunchIsAsynchronousOnTheTimeline) {
    Device dev(tiny_properties());
    auto data = dev.malloc_n<float>(256);
    LaunchConfig cfg{dim3{4}, dim3{64}};
    const double host_before = dev.host_time();
    dev.launch(cfg, [&](ThreadCtx& ctx) { return busy_kernel(ctx, data); });
    const double host_after = dev.host_time();
    EXPECT_NEAR(host_after - host_before, dev.properties().cost.launch_overhead_s, 1e-12);
    EXPECT_TRUE(dev.kernel_active());

    // Reading device memory synchronises first.
    float sink;
    dev.copy_to_host(&sink, data.addr(), sizeof(float));
    EXPECT_FALSE(dev.kernel_active());
    EXPECT_GE(dev.host_time(), dev.device_free_at());
}

TEST(Engine, LaunchGeometryValidation) {
    Device dev(tiny_properties());
    auto noop = [](ThreadCtx&) -> KernelTask { co_return; };
    EXPECT_THROW(dev.launch(LaunchConfig{dim3{1}, dim3{513}}, noop), Error);
    EXPECT_THROW(dev.launch(LaunchConfig{dim3{1u << 17}, dim3{1}}, noop), Error);
    EXPECT_THROW(dev.launch(LaunchConfig{dim3{1, 1, 1u << 17}, dim3{1}}, noop), Error);
    LaunchConfig too_much_shared{dim3{1}, dim3{32}};
    too_much_shared.shared_bytes = 17 * 1024;
    EXPECT_THROW(dev.launch(too_much_shared, noop), Error);
}

// A shared_array count so large that offset + count * sizeof(T) wraps in
// 64 bits must be rejected, not carved: a wrapped end passes a naive
// bounds check and hands out a view far past the arena.
TEST(Engine, OversizedSharedArrayIsRejectedWithoutWrapping) {
    const CostModel cm;
    BlockState block;
    block.shared_arena.resize(64);
    WarpAcct warp;
    const auto expect_rejected = [](auto carve) {
        try {
            (void)carve();
            FAIL() << "expected InvalidConfiguration";
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidConfiguration);
        }
    };
    ThreadCtx ctx(uint3{}, uint3{}, dim3{32}, dim3{1}, &cm, &block, &warp);
    expect_rejected([&] { return ctx.shared_array<std::uint64_t>(1ull << 61); });
    EXPECT_EQ(ctx.shared_array<std::uint64_t>(1).size(), 1u);
    // From a non-zero cursor: 8 + ((2^61 - 1) * 8) wraps to 0.
    expect_rejected([&] { return ctx.shared_array<std::uint64_t>((1ull << 61) - 1); });

    WarpCtx w(0, kWarpSize, uint3{}, dim3{32}, dim3{1}, &cm, &block, &warp);
    expect_rejected([&] { return w.shared_array<std::uint64_t>(1ull << 61); });
    EXPECT_EQ(w.shared_array<std::uint64_t>(1).size(), 1u);
    expect_rejected([&] { return w.shared_array<std::uint64_t>((1ull << 61) - 1); });
    // What fits is still carved, up to the last byte.
    EXPECT_EQ(w.shared_array<std::uint64_t>(7).size(), 7u);
    expect_rejected([&] { return w.shared_array<std::uint8_t>(1); });
}

// 3-D grids run every block, not just one z-slice: each block increments its
// own linear-bid slot exactly once, covering all of grid.count().
KernelTask count_block_kernel(ThreadCtx& ctx, DevicePtr<int> slots) {
    if (ctx.linear_tid() == 0) {
        slots.write(ctx, ctx.linear_bid(), slots.read(ctx, ctx.linear_bid()) + 1);
    }
    co_return;
}

TEST(Engine, ThreeDimensionalGridRunsEveryBlock) {
    Device dev(tiny_properties());
    LaunchConfig cfg{dim3{3, 2, 4}, dim3{8}};
    auto slots = dev.malloc_n<int>(cfg.grid.count());
    const std::vector<int> zeros(cfg.grid.count(), 0);
    dev.upload(slots, std::span<const int>(zeros));
    auto stats =
        dev.launch(cfg, [&](ThreadCtx& ctx) { return count_block_kernel(ctx, slots); });
    EXPECT_EQ(stats.blocks, 24u);
    std::vector<int> host(cfg.grid.count());
    dev.copy_to_host(host.data(), slots.addr(), host.size() * sizeof(int));
    for (std::size_t i = 0; i < host.size(); ++i) {
        EXPECT_EQ(host[i], 1) << "block slot " << i;
    }
}

}  // namespace
