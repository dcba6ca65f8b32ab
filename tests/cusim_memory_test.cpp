// Global-memory allocator and transfer tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <utility>
#include <vector>

#include <unistd.h>

#include "cusim/constant_memory.hpp"
#include "cusim/device.hpp"
#include "cusim/global_memory.hpp"

namespace {

using namespace cusim;

/// Expects `f()` to throw an Error carrying `code`.
template <typename F>
void expect_error(ErrorCode code, F&& f) {
    try {
        f();
        ADD_FAILURE() << "no error thrown";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), code) << e.what();
    }
}

TEST(GlobalMemory, AllocateFreeRoundTrip) {
    GlobalMemory mem(1 << 20);
    const DeviceAddr a = mem.allocate(1000);
    EXPECT_TRUE(mem.range_valid(a, 1000));
    EXPECT_EQ(mem.allocation_count(), 1u);
    mem.free(a);
    EXPECT_EQ(mem.allocation_count(), 0u);
    EXPECT_FALSE(mem.range_valid(a, 1));
}

TEST(GlobalMemory, AlignmentIs256) {
    GlobalMemory mem(1 << 20);
    const DeviceAddr a = mem.allocate(1);
    const DeviceAddr b = mem.allocate(1);
    EXPECT_EQ(a % 256, 0u);
    EXPECT_EQ(b % 256, 0u);
    EXPECT_NE(a, b);
}

TEST(GlobalMemory, ExhaustionThrowsMemoryAllocation) {
    GlobalMemory mem(4096);
    (void)mem.allocate(2048);
    try {
        (void)mem.allocate(4096);
        FAIL() << "expected exhaustion";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::MemoryAllocation);
    }
}

TEST(GlobalMemory, FreeListCoalescingAllowsReuse) {
    GlobalMemory mem(4096);
    const DeviceAddr a = mem.allocate(1024);
    const DeviceAddr b = mem.allocate(1024);
    const DeviceAddr c = mem.allocate(1024);
    mem.free(a);
    mem.free(c);
    mem.free(b);  // middle free must merge with both neighbours
    const DeviceAddr big = mem.allocate(4096);
    EXPECT_EQ(big, 0u);
    mem.free(big);
}

TEST(GlobalMemory, DoubleFreeThrows) {
    GlobalMemory mem(4096);
    const DeviceAddr a = mem.allocate(16);
    mem.free(a);
    EXPECT_THROW(mem.free(a), Error);
}

TEST(GlobalMemory, FreeOfNullAddrIsNoop) {
    GlobalMemory mem(4096);
    EXPECT_NO_THROW(mem.free(kNullAddr));
}

TEST(GlobalMemory, OutOfRangeAccessThrows) {
    GlobalMemory mem(4096);
    const DeviceAddr a = mem.allocate(64);
    char buf[128] = {};
    EXPECT_THROW(mem.write(a, buf, 128), Error);
    EXPECT_THROW(mem.read(a + 32, buf, 64), Error);
    EXPECT_NO_THROW(mem.write(a, buf, 64));
}

TEST(GlobalMemory, FreeAllReleasesEverything) {
    GlobalMemory mem(1 << 16);
    for (int i = 0; i < 10; ++i) (void)mem.allocate(1024);
    EXPECT_EQ(mem.allocation_count(), 10u);
    mem.free_all();
    EXPECT_EQ(mem.allocation_count(), 0u);
    EXPECT_EQ(mem.used(), 0u);
    const DeviceAddr a = mem.allocate(1 << 15);
    EXPECT_TRUE(mem.range_valid(a, 1 << 15));
}

TEST(GlobalMemory, Rejects33BitAddressSpace) {
    EXPECT_THROW(GlobalMemory((1ull << 32) + 1), Error);
}

/// This process's resident set in bytes (the second field of
/// /proc/self/statm, in pages).
std::uint64_t resident_bytes() {
    std::ifstream statm("/proc/self/statm");
    std::uint64_t pages = 0;
    std::uint64_t resident = 0;
    statm >> pages >> resident;
    EXPECT_TRUE(statm) << "cannot read /proc/self/statm";
    return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(GlobalMemory, ArenaCommitsOnlyTouchedPages) {
    // A default device has a 640 MB address space; creating one must not
    // make it resident.
    const std::uint64_t before = resident_bytes();
    Device dev;
    ASSERT_EQ(dev.memory().size(), 640ull << 20);
    const std::uint64_t after = resident_bytes();
    EXPECT_LT(after > before ? after - before : 0, 32ull << 20);
}

TEST(GlobalMemory, FreshAllocationReadsZeros) {
    GlobalMemory mem(64ull << 20);
    const DeviceAddr a = mem.allocate(1 << 20);
    std::vector<unsigned char> host(1 << 20, 0xff);
    mem.read(a, host.data(), host.size());
    EXPECT_EQ(std::count(host.begin(), host.end(), 0), std::ssize(host));
}

TEST(GlobalMemory, ZeroByteSpaceConstructsButCannotAllocate) {
    GlobalMemory mem(0);
    EXPECT_EQ(mem.size(), 0u);
    expect_error(ErrorCode::MemoryAllocation, [&] { (void)mem.allocate(1); });
    EXPECT_EQ(mem.allocation_count(), 0u);
}

TEST(GlobalMemory, AllocateRejectsSizesThatWrapWhenAligned) {
    GlobalMemory mem(1 << 20);
    // Rounded up to 256 bytes, both sizes wrap to 0.
    for (const std::uint64_t bytes : {~0ull, ~0ull - 254}) {
        expect_error(ErrorCode::MemoryAllocation, [&] { (void)mem.allocate(bytes); });
    }
    EXPECT_EQ(mem.allocation_count(), 0u);
    EXPECT_EQ(mem.used(), 0u);
}

TEST(GlobalMemory, RangeValidRejectsExtentsThatWrap) {
    GlobalMemory mem(1 << 20);
    const DeviceAddr a = mem.allocate(64);
    EXPECT_TRUE(mem.range_valid(a + 8, 56));
    EXPECT_FALSE(mem.range_valid(a + 65, 0));
    // (a + 8) + (2^64 - 8) wraps to a.
    EXPECT_FALSE(mem.range_valid(a + 8, ~0ull - 7));
}

TEST(Device, TypedUploadDownloadRoundTrip) {
    Device dev(tiny_properties());
    std::vector<double> data(517);
    std::iota(data.begin(), data.end(), 0.5);
    auto p = dev.malloc_n<double>(data.size());
    dev.upload(p, std::span<const double>(data));
    std::vector<double> back(data.size());
    dev.download(std::span<double>(back), p);
    EXPECT_EQ(back, data);
    dev.free(p);
}

TEST(Device, TransfersAdvanceHostClockByPcieModel) {
    Device dev(tiny_properties());
    const auto& cost = dev.properties().cost;
    auto p = dev.malloc_n<float>(1 << 16);
    std::vector<float> data(1 << 16, 1.0f);
    const double before = dev.host_time();
    dev.upload(p, std::span<const float>(data));
    const double elapsed = dev.host_time() - before;
    const double expected =
        cost.transfer_latency_s + data.size() * sizeof(float) / cost.pcie_bandwidth_bytes_per_s;
    EXPECT_NEAR(elapsed, expected, 1e-12);
    EXPECT_EQ(dev.bytes_to_device(), data.size() * sizeof(float));
}

TEST(Device, ViewValidatesRange) {
    Device dev(tiny_properties());
    auto p = dev.malloc_n<int>(10);
    EXPECT_NO_THROW((void)dev.view<int>(p.addr(), 10));
    EXPECT_THROW((void)dev.view<int>(p.addr(), 11), Error);
}

TEST(Device, SliceRejectsRangesThatWrap) {
    Device dev(tiny_properties());
    auto p = dev.malloc_n<std::uint8_t>(64);
    EXPECT_EQ(p.slice(1, 63).size(), 63u);
    EXPECT_EQ(p.slice(64, 0).size(), 0u);
    for (const auto& [offset, count] :
         {std::pair{1ull, ~0ull}, std::pair{~0ull, 2ull}, std::pair{65ull, 0ull},
          std::pair{1ull, 64ull}}) {
        try {
            (void)p.slice(offset, count);
            FAIL() << "slice(" << offset << ", " << count << ") accepted";
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidDevicePointer);
        }
    }
}

TEST(Device, SizesThatWrapAreRejected) {
    Device dev(tiny_properties());
    const std::uint64_t count = 1ull << 61;  // count * sizeof(double) wraps to 0
    expect_error(ErrorCode::MemoryAllocation, [&] { (void)dev.malloc_n<double>(count); });
    expect_error(ErrorCode::MemoryAllocation,
                 [&] { (void)dev.malloc_constant<double>(count); });
    const auto p = dev.malloc_n<double>(4);
    expect_error(ErrorCode::InvalidDevicePointer,
                 [&] { (void)dev.view<double>(p.addr(), count); });
    // A blocking copy whose end wraps past the allocation's base.
    std::vector<char> buf(8);
    expect_error(ErrorCode::InvalidDevicePointer,
                 [&] { dev.copy_to_host(buf.data(), p.addr() + 8, ~0ull - 7); });
}

TEST(ConstantMemory, ChecksRejectSizesThatWrap) {
    ConstantMemory cmem;
    expect_error(ErrorCode::MemoryAllocation, [&] { (void)cmem.allocate(~0ull); });
    Device dev(tiny_properties());
    const auto p = dev.malloc_constant<char>(64);
    std::vector<char> buf(8);
    // (addr + 1) + (2^64 - 1) wraps to addr.
    expect_error(ErrorCode::InvalidDevicePointer,
                 [&] { dev.copy_to_constant(p.addr() + 1, buf.data(), ~0ull); });
}

TEST(Device, RejectsCostModelsALaunchCannotRun) {
    // Zero multiprocessors hangs the grid timing model; a zero texture-miss
    // period divides by zero on the first texture fetch.
    DeviceProperties no_mps = tiny_properties();
    no_mps.cost.multiprocessors = 0;
    DeviceProperties no_miss_period = tiny_properties();
    no_miss_period.cost.texture_miss_period = 0;
    for (const DeviceProperties& props : {no_mps, no_miss_period}) {
        try {
            Device dev(props);
            FAIL() << "expected InvalidValue";
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidValue);
        }
    }
}

TEST(Device, DeviceToDeviceCopyUsesDeviceTime) {
    Device dev(tiny_properties());
    auto a = dev.malloc_n<int>(1024);
    auto b = dev.malloc_n<int>(1024);
    std::vector<int> data(1024, 7);
    dev.upload(a, std::span<const int>(data));
    const double host_before = dev.host_time();
    dev.copy_device_to_device(b.addr(), a.addr(), 1024 * sizeof(int));
    EXPECT_DOUBLE_EQ(dev.host_time(), host_before);   // host not blocked
    EXPECT_GT(dev.device_free_at(), host_before);
    std::vector<int> back(1024);
    dev.download(std::span<int>(back), b);
    EXPECT_EQ(back, data);
}

}  // namespace
