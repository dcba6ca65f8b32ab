// Heap allocations per steady-state cupp::kernel call.
//
// This binary replaces the global operator new to count the heap
// allocations made through it. Each case warms a default-stream call up
// (device-resident arguments, a full launch history, a grown launch
// scratch), then counts the allocations of each further identical call.
// What a call may still allocate: the queued launch's copy of the kernel
// argument stack and the closure that owns it (cusimLaunchAsync), plus the
// launch's name when it is too long for the short-string buffer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "cupp/cupp.hpp"
#include "cusim/block_pool.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t bytes) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
    throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using U32 = std::uint32_t;
using Vec = cupp::vector<U32>;
using AxpyK = cusim::KernelTask (*)(cusim::ThreadCtx&, cupp::deviceT::vector<U32>&,
                                    const cupp::deviceT::vector<U32>&, U32);

cusim::KernelTask axpy(cusim::ThreadCtx& ctx, cupp::deviceT::vector<U32>& y,
                       const cupp::deviceT::vector<U32>& x, U32 a) {
    const std::uint64_t gid = ctx.global_id();
    if (gid < y.size()) {
        ctx.charge(cusim::Op::FMad);
        y.write(ctx, gid, a * x.read(ctx, gid) + y.read(ctx, gid));
    }
    co_return;
}

constexpr U32 kBlock = cusim::kWarpSize;
/// More launches than the device's launch history holds, so the history
/// ring is full and every buffer has reached its steady-state capacity.
constexpr int kWarmupCalls = 2 * static_cast<int>(cusim::Device::kLaunchHistoryCapacity);
constexpr int kCountedCalls = 16;

/// Heap allocations of each of kCountedCalls default-stream calls of a
/// `blocks` x one-warp axpy named `name`, after warm-up. Blocks run on the
/// calling thread, as with one block-pool thread.
std::vector<std::uint64_t> allocations_per_call(const std::string& name, U32 blocks) {
    cusim::BlockPool::set_threads(1);
    cupp::device d;
    Vec x(blocks * kBlock, 3);
    Vec y(blocks * kBlock, 1);
    (void)x.get_device_reference(d);
    (void)y.get_device_reference(d);
    cupp::kernel<AxpyK> k(axpy, cusim::dim3{blocks}, cusim::dim3{kBlock});
    k.set_name(name);
    for (int i = 0; i < kWarmupCalls; ++i) k(d, y, x, U32{1});

    std::vector<std::uint64_t> counts;
    counts.reserve(kCountedCalls);
    for (int i = 0; i < kCountedCalls; ++i) {
        const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
        k(d, y, x, U32{1});
        counts.push_back(g_allocations.load(std::memory_order_relaxed) - before);
    }
    cusim::BlockPool::set_threads(0);
    EXPECT_EQ(k.last_stats().blocks, blocks);
    return counts;
}

/// The argument-stack copy and its closure.
constexpr std::uint64_t kShortNameAllocations = 2;
/// Plus the queued op's copy of a name longer than 15 characters.
constexpr std::uint64_t kLongNameAllocations = 3;

TEST(KernelCallAllocations, OneWarpShortName) {
    for (const std::uint64_t n : allocations_per_call("calls.lazy", 1)) {
        EXPECT_EQ(n, kShortNameAllocations);
    }
}

TEST(KernelCallAllocations, OneWarpLongName) {
    for (const std::uint64_t n : allocations_per_call("serve scale_speeds", 1)) {
        EXPECT_EQ(n, kLongNameAllocations);
    }
}

TEST(KernelCallAllocations, TwoBlocksShortName) {
    for (const std::uint64_t n : allocations_per_call("calls.lazy", 2)) {
        EXPECT_EQ(n, kShortNameAllocations);
    }
}

TEST(KernelCallAllocations, TwoBlocksLongName) {
    for (const std::uint64_t n : allocations_per_call("serve scale_speeds", 2)) {
        EXPECT_EQ(n, kLongNameAllocations);
    }
}

}  // namespace
