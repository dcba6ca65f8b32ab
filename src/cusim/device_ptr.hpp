// Typed, accounted view of a global-memory allocation.
//
// A DevicePtr<T> is what a kernel parameter "T* in global memory" becomes in
// the simulator. Every element access goes through a ThreadCtx so it can be
// charged per Table 2.2 (reads cost 400-600 cycles of hideable latency,
// writes are fire-and-forget) and bounds-checked against the allocation.
// The host cannot dereference it — exactly the CUDA rule that dereferencing
// a cudaMalloc pointer on the host is undefined (§3.2.3); host transfers go
// through Device::copy_* which model the PCIe bus.
#pragma once

#include <cstdint>
#include <type_traits>

#include "cusim/error.hpp"
#include "cusim/types.hpp"

namespace cusim {

class ThreadCtx;
class WarpCtx;

template <typename T>
class DevicePtr {
    static_assert(std::is_trivially_copyable_v<T>,
                  "only trivially copyable types can live in device memory");

public:
    DevicePtr() = default;

    /// Constructed by Device / higher layers from a validated allocation.
    /// `alloc_id` is the memcheck generation id of the allocation the view
    /// was created over (0 = unknown): if that allocation is freed, any
    /// later access through this view is flagged as a use-after-free even
    /// when the address range has been recycled.
    DevicePtr(std::byte* base, DeviceAddr addr, std::uint64_t count,
              std::uint64_t alloc_id = 0)
        : base_(base), addr_(addr), count_(count), alloc_id_(alloc_id) {}

    [[nodiscard]] DeviceAddr addr() const { return addr_; }
    [[nodiscard]] std::uint64_t size() const { return count_; }
    [[nodiscard]] bool null() const { return base_ == nullptr; }
    [[nodiscard]] std::uint64_t alloc_id() const { return alloc_id_; }

    /// Device-side element read; charges a global-memory read. Defined in
    /// thread_ctx.hpp (needs the full ThreadCtx).
    T read(ThreadCtx& ctx, std::uint64_t i) const;

    /// Device-side element write; fire-and-forget per §2.3.
    void write(ThreadCtx& ctx, std::uint64_t i, const T& v) const;

    /// Read routed through the texture cache (§2.1; the future-work item of
    /// §7). Cheaper than a plain read on access patterns with reuse.
    T tex_read(ThreadCtx& ctx, std::uint64_t i) const;

    /// Sub-view of `count` elements starting at element `offset`.
    [[nodiscard]] DevicePtr<T> slice(std::uint64_t offset, std::uint64_t count) const {
        if (offset > count_ || count > count_ - offset) {
            throw Error(ErrorCode::InvalidDevicePointer, "slice out of range");
        }
        return DevicePtr<T>(base_ + offset * sizeof(T), addr_ + offset * sizeof(T), count,
                            alloc_id_);
    }

    /// Reinterprets a byte view as a typed one (pitched-memory plumbing).
    template <typename U>
    [[nodiscard]] DevicePtr<U> as() const
        requires std::is_same_v<T, std::byte>
    {
        return DevicePtr<U>(base_, addr_, count_ / sizeof(U), alloc_id_);
    }

private:
    friend class ThreadCtx;
    friend class WarpCtx;
    std::byte* base_ = nullptr;   ///< raw arena pointer (simulator internal)
    DeviceAddr addr_ = kNullAddr;
    std::uint64_t count_ = 0;
    std::uint64_t alloc_id_ = 0;  ///< memcheck generation id (0 = unknown)
};

}  // namespace cusim
