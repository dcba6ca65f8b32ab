// Constant and texture memory — the read-only cached address spaces of the
// hardware model (§2.1: "texture and constant caches are available on every
// multiprocessor") and the subject of the thesis' future-work list ("Future
// work on the CuPP framework could refer to currently missing CUDA
// functionality, like support for texture or constant memory").
//
// Model:
//  * constant memory: a 64 KiB space, writable by the host (only while no
//    kernel is active), read by kernels at near-register cost through the
//    per-MP constant cache (a warp-wide read of one address is broadcast).
//  * texture fetches: reads of ordinary global memory routed through the
//    texture cache; they keep the global-read issue slot but hit in cache
//    with probability `texture_hit_rate`, paying latency and bus traffic
//    only on misses.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>

#include "cusim/error.hpp"
#include "cusim/types.hpp"

namespace cusim {

class ThreadCtx;

/// The 64 KiB constant address space of one device.
class ConstantMemory {
public:
    static constexpr std::uint64_t kSize = 64 * 1024;

    ConstantMemory() : arena_(new std::byte[kSize]()) {}

    ConstantMemory(const ConstantMemory&) = delete;
    ConstantMemory& operator=(const ConstantMemory&) = delete;

    /// Linear allocation (constant memory is declared statically in CUDA;
    /// there is no free()).
    [[nodiscard]] DeviceAddr allocate(std::uint64_t bytes) {
        // Checked before rounding up, which would wrap near 2^64. The cursor
        // and kSize are multiples of 256, so the rounded size fits as well.
        if (bytes > kSize - cursor_) {
            throw Error(ErrorCode::MemoryAllocation,
                        "constant memory exhausted (64 KiB total)");
        }
        const DeviceAddr addr = cursor_;
        cursor_ += (bytes + 255) / 256 * 256;
        return addr;
    }

    /// Host write (Device enforces the no-kernel-active rule).
    void write(DeviceAddr addr, const void* src, std::uint64_t bytes) {
        check(addr, bytes);
        std::memcpy(arena_.get() + addr, src, bytes);
    }
    void read(DeviceAddr addr, void* dst, std::uint64_t bytes) const {
        check(addr, bytes);
        std::memcpy(dst, arena_.get() + addr, bytes);
    }

    [[nodiscard]] std::byte* raw(DeviceAddr addr) { return arena_.get() + addr; }
    [[nodiscard]] std::uint64_t used() const { return cursor_; }

    /// Resets the allocation cursor (new scenario).
    void reset() { cursor_ = 0; }

private:
    void check(DeviceAddr addr, std::uint64_t bytes) const {
        if (addr > cursor_ || bytes > cursor_ - addr) {
            throw Error(ErrorCode::InvalidDevicePointer,
                        "constant-memory access outside any allocation");
        }
    }

    std::unique_ptr<std::byte[]> arena_;
    std::uint64_t cursor_ = 0;
};

/// Typed kernel-side view of a constant-memory range. Reads cost
/// `constant_read` cycles (cached, broadcast); there is no write path.
template <typename T>
class ConstantPtr {
    static_assert(std::is_trivially_copyable_v<T>,
                  "constant memory holds byte-wise copyable values only");

public:
    ConstantPtr() = default;
    ConstantPtr(const std::byte* base, DeviceAddr addr, std::uint64_t count)
        : base_(base), addr_(addr), count_(count) {}

    [[nodiscard]] DeviceAddr addr() const { return addr_; }
    [[nodiscard]] std::uint64_t size() const { return count_; }

    /// Accounted read; defined in thread_ctx extensions below.
    T read(ThreadCtx& ctx, std::uint64_t i) const;

private:
    const std::byte* base_ = nullptr;
    DeviceAddr addr_ = kNullAddr;
    std::uint64_t count_ = 0;
};

}  // namespace cusim
