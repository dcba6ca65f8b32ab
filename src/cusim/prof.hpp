// cusim::prof — CUPTI-style profiling for the simulated runtime.
//
// Real CUDA stacks split profiling into two halves, and so does this one:
//
//  * the **callback API**: every runtime entry point (malloc, memcpy sync
//    and async, launch, sync, stream/event ops) fires a typed callback at
//    entry and exit, so tools and tests can observe the runtime without
//    patching it. Subscribe with prof::subscribe(); an injected fault or
//    any other exception unwinding an instrumented call is visible as
//    `failed` on the Exit record.
//  * the **activity aggregator**: per kernel name × launch configuration,
//    the profiler accumulates launch count, modelled device time, host
//    interpreter wall time, achieved occupancy, divergence, coalescing
//    efficiency (useful vs. charged bytes), shared-memory bank conflicts
//    and per-lane attribution ("devN.device" / "devN.streamK") — all from
//    the LaunchStats the engine already reduces in launch order, so the
//    aggregates are bit-identical for any CUPP_SIM_THREADS value. Host
//    wall seconds are the one intentionally non-deterministic field.
//
// Activation follows the CUPP_TRACE / CUPP_MEMCHECK / CUPP_FAULTS pattern:
//
//   CUPP_PROF=<report.json>   collect for the whole run and write the JSON
//                             report (cupp_report prof renders it) at exit
//
// plus session scoping via the cusimProfilerStart/Stop runtime mirrors and
// the RAII cupp::prof_session. The disabled fast path is one relaxed
// atomic load per site, like memcheck and faults.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cusim/accounting.hpp"
#include "cusim/launch.hpp"
#include "cusim/types.hpp"

namespace cusim::prof {

// --- enablement -----------------------------------------------------------

namespace detail {
/// True while any callback is subscribed or the collector is enabled —
/// the one gate the API hooks check.
extern std::atomic<bool> g_armed;
/// True while the collector is enabled *and* inside a profiling session
/// (start()ed, not stop()ped) — gates activity recording and the
/// engine-side shared-access tracking.
extern std::atomic<bool> g_collecting;
/// True while correlation ids must be allocated even when the profiler
/// itself is idle (cusim::timeline shares the id space).
extern std::atomic<bool> g_correlation_tracking;
/// The shared CUPTI-style correlation-id counter (next id to hand out).
extern std::atomic<std::uint64_t> g_next_correlation;
}  // namespace detail

/// The per-site fast-path gate: one relaxed load when nothing is armed.
[[nodiscard]] inline bool armed() {
    return detail::g_armed.load(std::memory_order_relaxed);
}

/// True while kernel activities are being recorded (collector enabled and
/// session active). The engine's bank-conflict tracking keys off this.
[[nodiscard]] inline bool collecting() {
    return detail::g_collecting.load(std::memory_order_relaxed);
}

/// True while correlation ids are needed by a consumer other than the
/// profiler (cusim::timeline enables this for its lifetime).
[[nodiscard]] inline bool correlation_tracking() {
    return detail::g_correlation_tracking.load(std::memory_order_relaxed);
}

/// Allocates the next correlation id (1-based). All instrumented entry
/// points run on the host thread, so the sequence is deterministic.
[[nodiscard]] inline std::uint64_t new_correlation_id() {
    return detail::g_next_correlation.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Turns correlation-id allocation on/off independently of the profiler
/// (called by cusim::timeline enable/disable).
void set_correlation_tracking(bool on);
/// Restarts the correlation-id sequence at 1 (test isolation; both
/// prof::reset() and timeline::reset() call this).
void reset_correlation_ids();

// --- the callback API ------------------------------------------------------

/// Runtime entry points the profiler observes. One call counter per api.
enum class Api : std::uint8_t {
    Malloc,
    Free,
    MemcpyH2D,
    MemcpyD2H,
    MemcpyD2D,
    Launch,
    Sync,
    StreamCreate,
    StreamDestroy,
    StreamSynchronize,
    StreamWaitEvent,
    EventCreate,
    EventDestroy,
    EventRecord,
    EventSynchronize,
    LaunchAsync,
    MemcpyH2DAsync,
    MemcpyD2HAsync,
    MemcpyD2DAsync,
    ProfilerStart,
    ProfilerStop,
    StreamBeginCapture,
    StreamEndCapture,
    GraphInstantiate,
    GraphLaunch,
};
inline constexpr std::size_t kApiCount = 25;

/// Stable lower_snake_case api name (report JSON, tests).
[[nodiscard]] const char* api_name(Api api);

enum class Phase : std::uint8_t { Enter, Exit };

/// One callback record. `label` points at caller-owned storage and is only
/// valid for the duration of the callback.
struct ApiRecord {
    Api api = Api::Malloc;
    Phase phase = Phase::Enter;
    int device = -1;            ///< trace ordinal of the device, -1 unknown
    std::uint32_t stream = 0;   ///< stream id (0 = default stream)
    std::uint64_t bytes = 0;    ///< transfer/allocation size when known
    std::string_view label;     ///< kernel or call-site label when known
    bool failed = false;        ///< Exit only: the call unwound via exception
    /// CUPTI-style correlation id linking this call's Enter/Exit pair to
    /// the timeline node(s) it scheduled (0 when tracking is off).
    std::uint64_t correlation = 0;
};

using Callback = std::function<void(const ApiRecord&)>;

/// Registers `cb` for every ApiRecord; returns its subscription id.
/// Callbacks run synchronously on the calling thread of the runtime API —
/// they must not call back into subscribe/unsubscribe.
std::uint64_t subscribe(Callback cb);
/// Drops a subscription; false when the id is unknown.
bool unsubscribe(std::uint64_t id);

/// Fires every subscribed callback (internal: ApiScope and tests).
void dispatch(const ApiRecord& rec);
/// Bumps the per-api call counter (Enter records only; internal).
void note_api_enter(Api api);
/// Enter records seen for one api since reset().
[[nodiscard]] std::uint64_t api_calls(Api api);

/// RAII entry/exit pair around one runtime call. Constructed *before* the
/// fault preflight, so an injected failure is observable as a failed Exit.
/// Costs one relaxed load when the profiler is idle.
class ApiScope {
public:
    ApiScope(Api api, int device, std::uint32_t stream = 0, std::uint64_t bytes = 0,
             std::string_view label = {})
        : armed_(armed()) {
        if (armed_ || correlation_tracking()) corr_ = new_correlation_id();
        if (!armed_) return;
        api_ = api;
        device_ = device;
        stream_ = stream;
        bytes_ = bytes;
        label_ = label;
        exceptions_ = std::uncaught_exceptions();
        note_api_enter(api);
        dispatch(ApiRecord{api, Phase::Enter, device, stream, bytes, label, false,
                           corr_});
    }
    ~ApiScope() {
        if (!armed_) return;
        dispatch(ApiRecord{api_, Phase::Exit, device_, stream_, bytes_, label_,
                           std::uncaught_exceptions() > exceptions_, corr_});
    }
    ApiScope(const ApiScope&) = delete;
    ApiScope& operator=(const ApiScope&) = delete;

    /// The correlation id allocated for this call (0 when nothing needs one).
    [[nodiscard]] std::uint64_t correlation() const { return corr_; }

private:
    bool armed_;
    Api api_ = Api::Malloc;
    int device_ = -1;
    std::uint32_t stream_ = 0;
    std::uint64_t bytes_ = 0;
    std::string_view label_;
    std::uint64_t corr_ = 0;
    int exceptions_ = 0;
};

// --- the activity aggregator ------------------------------------------------

/// Per-lane slice of one kernel's activity ("dev0.device", "dev0.stream2").
struct LaneActivity {
    std::string lane;
    std::uint64_t launches = 0;
    double device_seconds = 0.0;
};

/// Aggregated activity of one kernel name × launch configuration.
struct KernelActivity {
    std::string name;
    dim3 grid{};
    dim3 block{};
    std::uint32_t shared_bytes = 0;
    std::uint32_t regs_per_thread = 16;

    std::uint64_t launches = 0;
    double device_seconds = 0.0;  ///< modelled, summed over launches
    double host_seconds = 0.0;    ///< interpreter wall time (non-deterministic)

    /// Field-wise sums of every launch's LaunchStats. Exceptions:
    /// device_seconds lives in `device_seconds` above, and the per-config
    /// invariants threads_per_block / resident_blocks_per_mp are kept
    /// as-is rather than summed.
    LaunchStats totals{};

    std::vector<LaneActivity> lanes;  ///< first-use order

    // --- derived metrics (what the report prints) ---
    /// Achieved occupancy: resident warps vs. the part's warp capacity.
    [[nodiscard]] double occupancy(unsigned max_warps_per_mp) const;
    /// Charged-bus efficiency: useful payload bytes / charged bytes (1.0
    /// when every access coalesced, or when no traffic at all).
    [[nodiscard]] double coalescing_efficiency() const;
    /// Issue-time inflation from divergence re-issue: compute cycles over
    /// what they would have been without the divergence penalty (>= 1).
    [[nodiscard]] double divergence_serialization(unsigned divergence_penalty) const;
    /// Compute cycles per charged byte (the roofline x-axis).
    [[nodiscard]] double arithmetic_intensity() const;
};

/// Roofline constants snapshotted from the first recorded launch's
/// CostModel (zero/invalid until then).
struct ModelSnapshot {
    bool valid = false;
    double core_clock_hz = 0.0;
    unsigned multiprocessors = 0;
    unsigned max_warps_per_mp = 0;
    unsigned divergence_penalty = 0;
    double mem_bandwidth_bytes_per_s = 0.0;
    /// Cycles per byte at the roofline ridge: a kernel above it is
    /// compute-bound, below it memory-bound.
    [[nodiscard]] double ridge_cycles_per_byte() const {
        if (mem_bandwidth_bytes_per_s <= 0.0) return 0.0;
        return core_clock_hz * multiprocessors / mem_bandwidth_bytes_per_s;
    }
};

/// Aggregate of one transfer direction.
struct TransferTotals {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    double seconds = 0.0;  ///< modelled transfer time
};

/// Records one executed grid (Device::record_op, after run_grid's
/// launch-order reduction — never from pool workers, so insertion order is
/// deterministic). `name` is the activity key as given: the device names an
/// unnamed launch "kernel" when it builds the op. `host_seconds` is
/// interpreter wall time for this launch.
void record_launch(std::string_view name, const LaunchConfig& cfg,
                   const LaunchStats& stats, std::string_view lane, int device,
                   double host_seconds, const CostModel& cm);

/// Records one executed transfer (sync or drained async).
void record_transfer(CopyKind kind, std::uint64_t bytes, double seconds, int device);

// --- sessions ---------------------------------------------------------------

/// Enables the collector, in memory only, and starts a session.
void enable();
/// Enables the collector, starts a session, and arranges for the JSON
/// report to be written to `path` at process exit (and on write_report()).
void enable(std::string path);
/// Ends the session and disarms collection; recorded data is kept.
void disable();
/// disable() + drops activities, api counters, report path (test isolation).
void reset();

/// cusimProfilerStart: resumes collection. A no-op unless the collector is
/// enabled (mirroring cudaProfilerStart without an attached profiler).
void start();
/// cusimProfilerStop: pauses collection; enable()/start() resume it.
void stop();
/// start()/stop() transitions seen since reset().
[[nodiscard]] std::uint64_t session_starts();
[[nodiscard]] std::uint64_t session_stops();

// --- introspection & report --------------------------------------------------

/// Snapshot of every kernel activity, in first-launch order.
[[nodiscard]] std::vector<KernelActivity> kernel_activities();
/// Totals of one transfer direction (HostToHost always empty).
[[nodiscard]] TransferTotals transfer_totals(CopyKind kind);
/// The model constants snapshotted from the first recorded launch.
[[nodiscard]] ModelSnapshot model_snapshot();

/// The configured report file ("" when none).
[[nodiscard]] std::string report_path();
/// The profiler report as a JSON document (schema: see DESIGN.md
/// "Profiling"; kernels sorted by modelled device time, hotspot ranking,
/// roofline summary).
[[nodiscard]] std::string report_json();
/// Writes report_json() to `path` (or the configured path when omitted).
/// Returns false when no path is known or the write failed.
bool write_report(const std::string& path = {});

}  // namespace cusim::prof
