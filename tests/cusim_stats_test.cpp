// LaunchStats consistency invariants and multi-device isolation.
#include <gtest/gtest.h>

#include "cusim/cusim.hpp"

namespace {

using namespace cusim;

/// Each thread writes its own `per_thread` floats, so no two threads (and
/// no two blocks, which the parallel engine runs on different host
/// threads) write the same element. `out` holds threads * per_thread.
KernelTask write_n(ThreadCtx& ctx, DevicePtr<float> out, int per_thread) {
    for (int i = 0; i < per_thread; ++i) {
        out.write(ctx, ctx.global_id() * per_thread + i, 1.0f);
    }
    co_return;
}

TEST(LaunchStats, CountsMatchGeometry) {
    Device dev(tiny_properties());
    auto out = dev.malloc_n<float>(600 * 3);
    LaunchConfig cfg{dim3{6}, dim3{100}};  // 4 warps per block (rounded up)
    const auto stats =
        dev.launch(cfg, [&](ThreadCtx& ctx) { return write_n(ctx, out, 3); });
    EXPECT_EQ(stats.blocks, 6u);
    EXPECT_EQ(stats.threads, 600u);
    EXPECT_EQ(stats.warps, 6u * 4u);
    EXPECT_EQ(stats.resident_blocks_per_mp, blocks_per_mp(dev.properties().cost, cfg));
}

TEST(LaunchStats, WriteTrafficIsExact) {
    Device dev(tiny_properties());
    constexpr int kPerThread = 5;
    auto out = dev.malloc_n<float>(4 * 64 * kPerThread);
    LaunchConfig cfg{dim3{4}, dim3{64}};
    const auto stats =
        dev.launch(cfg, [&](ThreadCtx& ctx) { return write_n(ctx, out, kPerThread); });
    const auto charged = dev.properties().cost.charged_bytes(sizeof(float));
    EXPECT_EQ(stats.bytes_written, 4u * 64u * kPerThread * charged);
    EXPECT_EQ(stats.bytes_read, 0u);
    // Writes are fire-and-forget: no stall cycles at all.
    EXPECT_EQ(stats.stall_cycles, 0u);
}

TEST(LaunchStats, DeviceSecondsMonotoneInWork) {
    Device dev(tiny_properties());
    auto run = [&](unsigned ops) {
        return dev
            .launch(LaunchConfig{dim3{2}, dim3{64}},
                    [ops](ThreadCtx& ctx) -> KernelTask {
                        ctx.charge(Op::FMad, ops);
                        co_return;
                    })
            .device_seconds;
    };
    const double t1 = run(1000);
    const double t2 = run(2000);
    const double t4 = run(4000);
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, t4);
    EXPECT_NEAR(t4 / t1, 4.0, 0.2);  // compute-bound: proportional
}

TEST(MultiDevice, MemoryAndClocksAreIsolated) {
    Registry::instance().reset();
    const int second = Registry::instance().add_device(tiny_properties());
    Device& a = Registry::instance().device(0);
    Device& b = Registry::instance().device(second);

    const auto used_a_before = a.memory().used();
    const auto addr = b.malloc_bytes(4096);
    EXPECT_EQ(a.memory().used(), used_a_before);  // a untouched
    EXPECT_GT(b.memory().used(), 0u);

    // Busy device b does not advance device a's timeline.
    b.launch(LaunchConfig{dim3{1}, dim3{32}}, [](ThreadCtx& ctx) -> KernelTask {
        ctx.charge(Op::FAdd, 1'000'000);
        co_return;
    });
    EXPECT_TRUE(b.kernel_active());
    EXPECT_FALSE(a.kernel_active());

    b.free_bytes(addr);
    Registry::instance().reset();
}

TEST(MultiDevice, SameAddressesMeanDifferentMemory) {
    Registry::instance().reset();
    const int second = Registry::instance().add_device(tiny_properties());
    Device& a = Registry::instance().device(0);
    Device& b = Registry::instance().device(second);

    // Fresh address spaces: both allocators may hand out the same offset,
    // but the backing stores are distinct.
    const auto pa = a.malloc_bytes(64);
    const auto pb = b.malloc_bytes(64);
    const int va = 111, vb = 222;
    a.copy_to_device(pa, &va, 4);
    b.copy_to_device(pb, &vb, 4);
    int ra = 0, rb = 0;
    a.copy_to_host(&ra, pa, 4);
    b.copy_to_host(&rb, pb, 4);
    EXPECT_EQ(ra, 111);
    EXPECT_EQ(rb, 222);
    Registry::instance().reset();
}

}  // namespace
