// The global-memory (device memory) address space of a simulated device.
//
// Implements the linear-memory model of thesis §3.2.3: a 32-bit byte
// address space, malloc/free-style allocation, and host<->device transfers.
// Host access rules (§2.2: "device memory can only be accessed by the host
// if no kernel is active") are enforced by Device, which brokers all host
// access and blocks the host clock until the device is idle.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <map>
#include <memory>
#include <source_location>
#include <string>
#include <vector>

#include <sys/mman.h>

#include "cusim/error.hpp"
#include "cusim/memcheck.hpp"
#include "cusim/types.hpp"

namespace cusim {

namespace detail {

/// Releases an arena mapping of `bytes` bytes.
struct Unmap {
    std::uint64_t bytes = 0;
    void operator()(std::byte* p) const noexcept { ::munmap(p, bytes); }
};

}  // namespace detail

/// Allocator + backing store for one device's global memory.
///
/// Addresses handed out are byte offsets into a single arena, so device
/// "pointers" are plain integers that mean nothing to the host — mirroring
/// the real rule that dereferencing a cudaMalloc pointer on the host is
/// undefined. All access from the simulator goes through checked methods.
class GlobalMemory {
public:
    /// Creates an address space of `size` bytes. The size is validated
    /// *before* the arena is allocated, so an invalid size doesn't commit
    /// gigabytes of backing store just to throw. (Virtual memory; pages
    /// commit on first touch.)
    explicit GlobalMemory(std::uint64_t size) : size_(size) {
        if (size > (1ull << 32)) {
            throw Error(ErrorCode::InvalidValue,
                        "G80 global memory is a 32-bit address space");
        }
        // An anonymous private mapping reads as zeros, and the OS backs each
        // page only once it is touched. A zero-byte space maps nothing (mmap
        // rejects length 0); allocate() then finds no free extent in it.
        if (size > 0) {
            void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
            if (p == MAP_FAILED) {
                throw Error(ErrorCode::MemoryAllocation,
                            "cannot reserve " + std::to_string(size) +
                                " bytes of global memory");
            }
            arena_ = Arena(static_cast<std::byte*>(p), detail::Unmap{size});
        }
        free_list_[0] = size;
    }

    GlobalMemory(const GlobalMemory&) = delete;
    GlobalMemory& operator=(const GlobalMemory&) = delete;

    /// Teardown without free_all() means the owner never released its
    /// allocations — report them as leaks (no-op when memcheck is off).
    ~GlobalMemory() { shadow_.report_leaks(); }

    /// cudaMalloc: first-fit allocation, 256-byte aligned like CUDA. Bounds
    /// checks are against the *requested* size, so off-by-one accesses are
    /// caught even when they land in alignment padding. The caller's source
    /// location and a layer label are recorded for memcheck attribution.
    [[nodiscard]] DeviceAddr allocate(
        std::uint64_t bytes,
        std::source_location loc = std::source_location::current(),
        const char* label = "cusimMalloc") {
        if (bytes == 0) bytes = 1;
        // Clamped before rounding up, which would wrap near 2^64; a request
        // larger than the address space still fits no free extent.
        const std::uint64_t aligned = round_up(std::min(bytes, size_ + 1), kAlignment);
        for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
            if (it->second >= aligned) {
                const DeviceAddr addr = it->first;
                const std::uint64_t remaining = it->second - aligned;
                free_list_.erase(it);
                if (remaining > 0) free_list_[addr + aligned] = remaining;
                allocations_[addr] = Allocation{bytes, aligned};
                used_ += aligned;
                shadow_.on_alloc(addr, bytes, loc, label);
                return addr;
            }
        }
        throw Error(ErrorCode::MemoryAllocation,
                    "requested " + std::to_string(bytes) + " bytes, " +
                        std::to_string(size_ - used_) + " free");
    }

    /// cudaFree. Freeing kNullAddr is a no-op (like free(nullptr)); freeing
    /// anything that was not allocated throws (after recording a
    /// double-free/invalid-free memcheck violation for attribution).
    void free(DeviceAddr addr,
              std::source_location loc = std::source_location::current()) {
        if (addr == kNullAddr) return;
        auto it = allocations_.find(addr);
        if (it == allocations_.end()) {
            shadow_.note_bad_free(addr, loc);
            throw Error(ErrorCode::InvalidDevicePointer,
                        "free of unallocated address " + std::to_string(addr));
        }
        const std::uint64_t bytes = it->second.aligned;
        used_ -= bytes;
        allocations_.erase(it);
        coalesce_insert(addr, bytes);
        shadow_.on_free(addr, loc);
    }

    /// Releases every allocation (used when a cupp::device handle dies:
    /// "when the device handle is destroyed, all memory allocated on this
    /// device is freed as well", §4.1). Live allocations are reported as
    /// leaks when memcheck is on — the RAII sweep is where C++-side leaks
    /// become visible.
    void free_all() {
        shadow_.on_free_all();
        allocations_.clear();
        free_list_.clear();
        free_list_[0] = size_;
        used_ = 0;
    }

    /// Size in bytes of the allocation starting at `addr`; throws if `addr`
    /// is not the base of a live allocation.
    [[nodiscard]] std::uint64_t allocation_size(DeviceAddr addr) const {
        auto it = allocations_.find(addr);
        if (it == allocations_.end()) {
            throw Error(ErrorCode::InvalidDevicePointer,
                        "address " + std::to_string(addr) + " is not an allocation base");
        }
        return it->second.requested;
    }

    /// True iff [addr, addr+bytes) lies fully inside one live allocation's
    /// requested extent.
    [[nodiscard]] bool range_valid(DeviceAddr addr, std::uint64_t bytes) const {
        auto it = allocations_.upper_bound(addr);
        if (it == allocations_.begin()) return false;
        --it;
        // it->first <= addr; compared as lengths so that no sum can wrap.
        const std::uint64_t offset = addr - it->first;
        const std::uint64_t requested = it->second.requested;
        return offset <= requested && bytes <= requested - offset;
    }

    /// Raw pointer into the arena. The caller must have validated the range;
    /// the accounting wrappers (DevicePtr) do so once at creation.
    [[nodiscard]] std::byte* raw(DeviceAddr addr) { return arena_.get() + addr; }
    [[nodiscard]] const std::byte* raw(DeviceAddr addr) const { return arena_.get() + addr; }

    /// Checked byte copy used by the memcpy paths.
    void write(DeviceAddr dst, const void* src, std::uint64_t bytes) {
        check_range(dst, bytes);
        std::memcpy(raw(dst), src, bytes);
        shadow_.on_host_write(dst, bytes);
    }
    void read(DeviceAddr src, void* dst, std::uint64_t bytes) const {
        check_range(src, bytes);
        std::memcpy(dst, raw(src), bytes);
    }
    void copy(DeviceAddr dst, DeviceAddr src, std::uint64_t bytes) {
        check_range(dst, bytes);
        check_range(src, bytes);
        std::memmove(raw(dst), raw(src), bytes);
        shadow_.on_copy(dst, src, bytes);
    }

    /// Device::reset_device() support: the allocation map survives (host
    /// RAII wrappers keep valid addresses, no dangling frees later), but
    /// the *contents* of every live allocation are wiped and the shadow's
    /// defined-bits are replayed to "freshly allocated". Only live extents
    /// are touched, not the whole arena — an untouched arena page stays
    /// uncommitted virtual memory.
    void wipe_for_recovery() {
        for (const auto& [addr, alloc] : allocations_) {
            std::memset(raw(addr), 0, alloc.aligned);
        }
        shadow_.on_device_reset();
    }

    [[nodiscard]] std::uint64_t size() const { return size_; }
    [[nodiscard]] std::uint64_t used() const { return used_; }
    [[nodiscard]] std::size_t allocation_count() const { return allocations_.size(); }

    /// Memcheck shadow state over this address space (allocation ids,
    /// defined bits, leak tracking).
    [[nodiscard]] memcheck::Shadow& shadow() { return shadow_; }
    [[nodiscard]] const memcheck::Shadow& shadow() const { return shadow_; }

private:
    static constexpr std::uint64_t kAlignment = 256;

    static std::uint64_t round_up(std::uint64_t v, std::uint64_t a) {
        return (v + a - 1) / a * a;
    }

    void check_range(DeviceAddr addr, std::uint64_t bytes) const {
        if (!range_valid(addr, bytes)) {
            throw Error(ErrorCode::InvalidDevicePointer,
                        "access [" + std::to_string(addr) + ", " +
                            std::to_string(addr + bytes) + ") outside any allocation");
        }
    }

    void coalesce_insert(DeviceAddr addr, std::uint64_t bytes) {
        auto next = free_list_.lower_bound(addr);
        if (next != free_list_.end() && addr + bytes == next->first) {
            bytes += next->second;
            next = free_list_.erase(next);
        }
        if (next != free_list_.begin()) {
            auto prev = std::prev(next);
            if (prev->first + prev->second == addr) {
                prev->second += bytes;
                return;
            }
        }
        free_list_[addr] = bytes;
    }

    struct Allocation {
        std::uint64_t requested;
        std::uint64_t aligned;
    };

    using Arena = std::unique_ptr<std::byte[], detail::Unmap>;

    std::uint64_t size_;
    std::uint64_t used_ = 0;
    Arena arena_;
    std::map<DeviceAddr, std::uint64_t> free_list_;   // addr -> bytes
    std::map<DeviceAddr, Allocation> allocations_;
    mutable memcheck::Shadow shadow_;
};

}  // namespace cusim
