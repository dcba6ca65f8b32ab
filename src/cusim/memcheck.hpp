// cusim::memcheck — a shadow-state device-memory sanitizer.
//
// The thesis' central promise (§4.1/§4.2) is that CuPP makes device memory
// safe by construction: RAII handles, checked transfers, "destroying the
// device handle frees every allocation". The checked transfers catch
// out-of-bounds host access, but three whole bug classes stay silent in the
// seed simulator: a stale DevicePtr reads freed arena bytes (the raw
// pointer captured at creation still aims at valid host memory), leaks
// vanish unreported inside free_all(), and the zero-initialised arena masks
// reads of never-written device bytes. Cudagrind (Baumann & Gracia 2013)
// bolts Memcheck-style shadow tracking onto real CUDA via Valgrind; because
// our device is simulated we can build the sanitizer natively.
//
// Model (per simulated device):
//  * every allocation gets a monotonically increasing id plus the
//    std::source_location of the allocating call (threaded down from
//    cupp::vector / cupp::memory1d / cudaMalloc-style entry points);
//  * typed views (DevicePtr) remember the id of the allocation they were
//    created over — an access whose containing allocation is gone, or has
//    a different id, is a use-after-free even if the address range has
//    been recycled;
//  * allocations made while checking is enabled carry a per-byte
//    "defined" bitmap: host uploads and device writes set bits, device
//    reads of unset bits are uninitialized-read violations;
//  * each executing block can carry a per-byte shadow of its shared
//    arena recording (epoch, thread, kind) of the last accesses; two
//    threads touching the same byte in the same __syncthreads() interval
//    with at least one write is a shared-memory race (the engine's
//    barrier episodes give exact happens-before, so there are no false
//    positives for properly synchronised code);
//  * free_all() and GlobalMemory teardown report still-live allocations
//    as leaks, with their allocation sites.
//
// Violations are reported three ways: recorded in a process-wide registry
// (deduplicated per allocation-site/kernel, exported as JSON + text at
// exit when CUPP_MEMCHECK=<report.json> is set — mirroring the CUPP_TRACE
// workflow), mirrored into cupp::trace as instant events and counters, and
// thrown as cusim::Error(MemcheckViolation) in strict mode
// (CUPP_MEMCHECK=strict or memcheck::set_strict(true)).
//
// The disabled fast path is a single relaxed atomic load per access site,
// exactly like cupp::trace — instrumented hot paths cost nothing
// measurable when the checker is off.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <source_location>
#include <string>
#include <vector>

#include "cusim/types.hpp"

namespace cusim::memcheck {

// --- enablement -----------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_strict;
}  // namespace detail

/// True while checking. The only cost instrumentation pays when the
/// checker is off — keep per-access sites behind this check.
[[nodiscard]] inline bool enabled() {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/// True when violations should throw cusim::Error(MemcheckViolation) at
/// the faulting access instead of only being recorded.
[[nodiscard]] inline bool strict() {
    return detail::g_strict.load(std::memory_order_relaxed);
}

/// Starts checking (record-only, no report file).
void enable();
/// Starts checking and arranges for a JSON violation report to be written
/// to `path` at process exit (and on write_report()).
void enable(std::string path);
/// Violations additionally throw at the faulting access.
void set_strict(bool strict);
/// Stops checking; recorded violations are kept.
void disable();

// --- violations -----------------------------------------------------------

enum class Kind {
    OutOfBounds,        ///< access outside any live allocation
    UseAfterFree,       ///< access through a stale view of a freed allocation
    UninitializedRead,  ///< device read of never-written bytes
    DoubleFree,         ///< free of an already-freed allocation
    InvalidFree,        ///< free of an address that was never an allocation base
    Leak,               ///< allocation still live at free_all()/teardown
    SharedRace,         ///< same-epoch conflicting shared-memory accesses
    AsyncHostRace,      ///< host read of an in-flight async D2H destination
};

/// Stable lower_snake_case name (report JSON keys, metric suffixes).
[[nodiscard]] const char* kind_name(Kind kind);

/// One recorded (deduplicated) violation.
struct Violation {
    Kind kind = Kind::OutOfBounds;
    std::string message;  ///< full human-readable diagnostic
    std::string kernel;   ///< kernel name ("" for host-side violations)
    std::string origin;   ///< allocation site "label @ file:line" ("" if unknown)
    std::uint64_t addr = 0;
    std::uint64_t bytes = 0;
    int device = -1;
    bool has_coords = false;  ///< thread/block below are meaningful
    uint3 thread{};
    uint3 block{};
    std::uint64_t count = 1;  ///< occurrences folded into this record
};

/// Records a violation: deduplicates per (kind, origin, kernel), bumps the
/// per-kind totals and the cupp::trace metrics, and emits a trace instant
/// event when tracing is on. Never throws — strict-mode throwing is the
/// caller's job (leak/teardown paths must not throw).
void record(Violation v);

/// Snapshot of the deduplicated violation records.
[[nodiscard]] std::vector<Violation> violations();
/// Total occurrences (not deduplicated) across all kinds / of one kind.
[[nodiscard]] std::uint64_t total_violations();
[[nodiscard]] std::uint64_t violation_count(Kind kind);

/// Drops all recorded violations and totals (between test cases). Keeps
/// the enabled/strict mode and the report path.
void reset();

/// The configured report file ("" when none).
[[nodiscard]] std::string report_path();
/// The violation report as a JSON document / as human-readable text.
[[nodiscard]] std::string report_json();
[[nodiscard]] std::string report_text();
/// Writes report_json() to `path` (or the configured path when omitted).
/// Returns false when no path is known or the write failed.
bool write_report(const std::string& path = {});

// --- global-memory shadow state -------------------------------------------

enum class Access { Read, Write };

/// What a failed device-access check found (the caller adds thread/block
/// coordinates and the kernel name, which the shadow cannot know).
struct AccessIssue {
    Kind kind = Kind::OutOfBounds;
    std::string detail;  ///< e.g. "allocation freed at foo.cpp:12"
    std::string origin;  ///< allocation site of the (old) allocation
};

/// Per-device shadow map over GlobalMemory. All bookkeeping is gated on
/// memcheck::enabled() — a disabled shadow costs one relaxed load per
/// allocator call and nothing per access. Allocations made before
/// enable() are simply untracked: accesses through their views stay
/// unchecked (conservative) instead of misreporting.
class Shadow {
public:
    Shadow() = default;
    Shadow(const Shadow&) = delete;
    Shadow& operator=(const Shadow&) = delete;

    /// Lane/ordinal of the owning device, for violation attribution.
    void set_device(int ordinal);

    /// Registers an allocation; returns its id (used by typed views for
    /// stale-view detection).
    std::uint64_t on_alloc(DeviceAddr base, std::uint64_t requested,
                           std::source_location loc, const char* label);
    /// Unregisters a live allocation (the allocator validated `base`).
    void on_free(DeviceAddr base, std::source_location loc);
    /// The allocator rejected this free: attribute it as a double free
    /// (recently freed base) or an invalid free. Records a violation when
    /// enabled; never throws.
    void note_bad_free(DeviceAddr addr, std::source_location loc);
    /// free_all(): records every live allocation as a leak (when enabled),
    /// then clears the live set.
    void on_free_all();
    /// GlobalMemory teardown: records remaining live allocations as leaks.
    void report_leaks();

    /// Device::reset_device(): live allocations survive with their ids,
    /// but their contents were wiped — replay every tracked allocation's
    /// defined-bits back to "freshly allocated" so stale device data can
    /// never be read as defined after a recovery.
    void on_device_reset();

    /// Host upload landed on [dst, dst+bytes): marks bytes defined.
    void on_host_write(DeviceAddr dst, std::uint64_t bytes);
    /// Device-to-device copy: propagates defined bits from src to dst.
    void on_copy(DeviceAddr dst, DeviceAddr src, std::uint64_t bytes);

    /// Checks one device-side access. `expected_id` is the allocation id
    /// the view was created over (0 = unknown view, liveness checked but
    /// not identity). Marks bytes defined on writes. Returns the issue on
    /// violation, std::nullopt when the access is clean.
    [[nodiscard]] std::optional<AccessIssue> check_access(DeviceAddr addr,
                                                          std::uint64_t bytes,
                                                          std::uint64_t expected_id,
                                                          Access access);

    /// Id of the live allocation containing `addr` (0 when none).
    [[nodiscard]] std::uint64_t alloc_id(DeviceAddr addr) const;

    [[nodiscard]] std::uint64_t live_allocations() const;
    [[nodiscard]] std::uint64_t live_bytes() const;

private:
    struct AllocRecord {
        std::uint64_t id = 0;
        std::uint64_t requested = 0;
        std::source_location loc{};
        const char* label = "";
        /// Per-byte defined bits; empty when the allocation predates
        /// enable() (then all bytes count as defined — conservative).
        std::vector<std::uint64_t> defined;
    };
    struct FreedRecord {
        std::uint64_t id = 0;
        DeviceAddr base = 0;
        std::uint64_t requested = 0;
        std::source_location alloc_loc{};
        const char* label = "";
        std::source_location free_loc{};
    };

    /// Live allocation containing [addr, addr+bytes), or nullptr.
    [[nodiscard]] const AllocRecord* find_containing(DeviceAddr addr,
                                                     std::uint64_t bytes,
                                                     DeviceAddr* base_out) const;
    [[nodiscard]] const FreedRecord* find_freed(DeviceAddr addr,
                                                std::uint64_t expected_id) const;

    static constexpr std::size_t kFreedHistory = 512;

    mutable std::mutex mu_;
    std::map<DeviceAddr, AllocRecord> live_;
    std::deque<FreedRecord> freed_;  ///< most recent last, bounded
    std::uint64_t next_id_ = 1;
    int device_ = -1;
};

// --- shared-memory race detection -----------------------------------------

/// Per-block shadow of the shared arena: for every byte, the barrier
/// episode ("epoch") and thread of the last read and the last write. Two
/// accesses to the same byte in the same epoch from different threads with
/// at least one write conflict — the engine releases barriers collectively,
/// so epoch equality is exact happens-before, not a heuristic.
class SharedShadow {
public:
    explicit SharedShadow(std::size_t arena_bytes);

    struct Conflict {
        std::uint64_t offset = 0;  ///< first conflicting byte
        unsigned other_tid = 0;    ///< linear tid of the earlier access
        bool other_was_write = false;
    };

    /// Notes an access of [offset, offset+bytes) by linear thread `tid`
    /// during barrier episode `epoch`; returns the conflict, if any.
    [[nodiscard]] std::optional<Conflict> note_access(std::uint64_t offset,
                                                      std::uint64_t bytes,
                                                      unsigned tid, std::uint64_t epoch,
                                                      bool is_write);

private:
    struct ByteState {
        std::uint64_t write_epoch = 0;  ///< epoch+1 of last write (0 = never)
        std::uint64_t read_epoch = 0;   ///< epoch+1 of last read (0 = never)
        unsigned write_tid = 0;
        unsigned read_tid = 0;
    };
    std::vector<ByteState> bytes_;
};

// --- execution context -----------------------------------------------------

/// What the engine threads into every ThreadCtx so device-side diagnostics
/// can name the kernel and reach the owning device's shadow state. The name
/// is borrowed from the launch, which outlives its blocks.
struct ExecContext {
    const char* kernel_name = "kernel";
    Shadow* shadow = nullptr;
    int device = -1;
};

}  // namespace cusim::memcheck
