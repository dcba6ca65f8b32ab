// Device — the top-level handle of the simulated GPU.
//
// Owns the global-memory address space and the simulated timeline. Kernel
// launches are asynchronous on that timeline, exactly as in §2.2: the launch
// returns immediately (advancing the host clock only by the launch
// overhead), and the device clock runs ahead; any host access to device
// memory first waits until no kernel is active. This is what makes the
// double-buffering experiment (§6.3.2) measurable.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <source_location>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cupp/trace.hpp"
#include "cusim/accounting.hpp"
#include "cusim/constant_memory.hpp"
#include "cusim/cost_model.hpp"
#include "cusim/device_properties.hpp"
#include "cusim/device_ptr.hpp"
#include "cusim/faults.hpp"
#include "cusim/global_memory.hpp"
#include "cusim/graph.hpp"
#include "cusim/launch.hpp"
#include "cusim/prof.hpp"
#include "cusim/timeline.hpp"

namespace cusim {

namespace detail {
struct StreamTable;  // per-device stream/event state (stream_detail.hpp)
struct StreamState;
struct StreamOp;
struct OpRecord;
struct CaptureState;  // live graph-capture recording state (stream_detail.hpp)
}  // namespace detail

/// Identifies one of a Device's asynchronous work queues. Id 0 is the
/// default stream, which every pre-stream API call uses: its work joins the
/// explicit streams and runs at once. Explicit streams get ids 1, 2, ...
/// from Device::stream_create().
using StreamId = std::uint32_t;
inline constexpr StreamId kDefaultStream = 0;

/// Identifies a recorded event (Device::event_create()). 0 is never valid.
using EventId = std::uint64_t;

/// One entry of the per-device launch history: the kernel's name plus its
/// full stats and its window on the modelled device timeline.
struct LaunchRecord {
    std::string kernel_name;
    LaunchStats stats{};
    double start_seconds = 0.0;  ///< device-clock start of the grid
    double end_seconds = 0.0;    ///< device-clock completion
};

class Device {
public:
    /// Out-of-line (stream.cpp) alongside ~Device(): both need
    /// detail::StreamTable complete for the streams_ unique_ptr.
    explicit Device(DeviceProperties props = g80_properties());

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    /// Out-of-line (stream.cpp): detail::StreamTable is incomplete here.
    /// Pending stream work is dropped, not executed, at destruction.
    ~Device();

    [[nodiscard]] const DeviceProperties& properties() const { return props_; }
    [[nodiscard]] GlobalMemory& memory() { return memory_; }
    [[nodiscard]] const GlobalMemory& memory() const { return memory_; }

    // --- allocation -------------------------------------------------------
    // The caller's source_location rides along so memcheck can attribute
    // every allocation (and any later violation against it) to the user
    // line that made it, through however many framework layers it passed.
    [[nodiscard]] DeviceAddr malloc_bytes(
        std::uint64_t bytes,
        std::source_location loc = std::source_location::current(),
        const char* label = "cusim::Device::malloc_bytes") {
        // Profiler scopes open before the fault preflight throughout this
        // class: an injected fault is observable as a failed Exit callback.
        prof::ApiScope prof_scope(prof::Api::Malloc, trace_ordinal_, 0, bytes, label);
        fault_preflight(faults::Site::Malloc, label);
        return memory_.allocate(bytes, loc, label);
    }
    void free_bytes(DeviceAddr addr,
                    std::source_location loc = std::source_location::current()) {
        prof::ApiScope prof_scope(prof::Api::Free, trace_ordinal_);
        // Pending async ops may still reference this allocation; executing
        // them first keeps a free-after-enqueue well-defined (real CUDA
        // defers the free until queued work using the range completes).
        join_streams();
        memory_.free(addr, loc);
    }

    /// Typed allocation of `count` elements.
    template <typename T>
    [[nodiscard]] DevicePtr<T> malloc_n(
        std::uint64_t count,
        std::source_location loc = std::source_location::current(),
        const char* label = "cusim::Device::malloc_n") {
        const std::uint64_t bytes = size_bytes<T>(count);
        prof::ApiScope prof_scope(prof::Api::Malloc, trace_ordinal_, 0, bytes, label);
        fault_preflight(faults::Site::Malloc, label);
        const DeviceAddr addr = memory_.allocate(bytes, loc, label);
        return DevicePtr<T>(memory_.raw(addr), addr, count, memory_.shadow().alloc_id(addr));
    }

    template <typename T>
    void free(const DevicePtr<T>& p,
              std::source_location loc = std::source_location::current()) {
        if (!p.null()) {
            prof::ApiScope prof_scope(prof::Api::Free, trace_ordinal_);
            join_streams();
            memory_.free(p.addr(), loc);
        }
    }

    /// Re-creates a typed view over an existing allocation (validated).
    template <typename T>
    [[nodiscard]] DevicePtr<T> view(DeviceAddr addr, std::uint64_t count) {
        if (!memory_.range_valid(addr, size_bytes<T>(count))) {
            throw Error(ErrorCode::InvalidDevicePointer, "view outside any allocation");
        }
        return DevicePtr<T>(memory_.raw(addr), addr, count, memory_.shadow().alloc_id(addr));
    }

    // --- host <-> device transfers (default stream, blocking) --------------
    // Each is the matching memcpy_*_async on the default stream: it joins
    // the explicit streams and runs before it returns. A host<->device copy
    // waits for the device and then advances the host clock by the PCIe
    // cost; a device-side copy advances only the device clock.
    void copy_to_device(DeviceAddr dst, const void* src, std::uint64_t bytes) {
        memcpy_to_device_async(dst, src, bytes, kDefaultStream);
    }
    void copy_to_host(void* dst, DeviceAddr src, std::uint64_t bytes) {
        memcpy_to_host_async(dst, src, bytes, kDefaultStream);
    }
    void copy_device_to_device(DeviceAddr dst, DeviceAddr src, std::uint64_t bytes) {
        memcpy_device_to_device_async(dst, src, bytes, kDefaultStream);
    }

    template <typename T>
    void upload(const DevicePtr<T>& dst, std::span<const T> src) {
        if (src.size() > dst.size()) {
            throw Error(ErrorCode::InvalidValue, "upload larger than destination");
        }
        copy_to_device(dst.addr(), src.data(), src.size_bytes());
    }
    template <typename T>
    void download(std::span<T> dst, const DevicePtr<T>& src) {
        if (dst.size() > src.size()) {
            throw Error(ErrorCode::InvalidValue, "download larger than source");
        }
        copy_to_host(dst.data(), src.addr(), dst.size_bytes());
    }

    // --- constant memory & textures (§2.1, future-work §7) ------------------
    [[nodiscard]] ConstantMemory& constant_memory() { return constant_; }

    /// Allocates `count` elements in the 64 KiB constant space.
    template <typename T>
    [[nodiscard]] ConstantPtr<T> malloc_constant(std::uint64_t count) {
        const DeviceAddr addr = constant_.allocate(size_bytes<T>(count));
        return ConstantPtr<T>(constant_.raw(addr), addr, count);
    }

    /// Host upload into constant memory (blocks while a kernel is active,
    /// like any host access to device state). (device.cpp)
    void copy_to_constant(DeviceAddr addr, const void* src, std::uint64_t bytes);

    // --- execution ---------------------------------------------------------
    /// Executes a grid and advances the device timeline by the modelled
    /// time. Asynchronous w.r.t. the host clock (§2.2). `name` labels the
    /// launch in the trace and the launch history. This is launch_async on
    /// the default stream, plus the grid's stats.
    LaunchStats launch(const LaunchConfig& cfg, const KernelEntry& entry,
                       std::string_view name = {});
    /// Dual-form launch: runs the warp form under the warp engine (see
    /// EngineMode in engine.hpp), the thread form otherwise. A spec with no
    /// warp form behaves exactly like the KernelEntry overload.
    LaunchStats launch(const LaunchConfig& cfg, KernelSpec spec,
                       std::string_view name = {});

    // --- the simulated timeline --------------------------------------------
    [[nodiscard]] double host_time() const { return host_time_; }
    /// Modelled host time on the monotonic (reset_clock()-proof) axis the
    /// trace uses. cupp::serve measures request budgets against this clock
    /// because plugin workloads may reset_clock() per run.
    [[nodiscard]] double absolute_host_time() const { return tl_abs(host_time_); }
    [[nodiscard]] double device_free_at() const { return device_free_at_; }
    [[nodiscard]] bool kernel_active() const { return device_free_at_ > host_time_; }

    /// Advances the host clock (CPU work happening between API calls; the
    /// steering library's CPU cost model feeds this).
    void advance_host(double seconds) { host_time_ += seconds; }

    /// cudaThreadSynchronize: host blocks until the device is idle —
    /// including every explicit stream (their pending work executes first).
    void synchronize() { stream_synchronize(kDefaultStream); }

    /// Resets the timeline (a new measurement run). Pending stream work is
    /// executed first — a measurement boundary mid-flight would be
    /// meaningless. The trace keeps its own monotonic base so events from
    /// successive runs do not overlap.
    void reset_clock() {
        join_streams();
        trace_base_ += std::max(host_time_, device_free_at_);
        host_time_ = 0.0;
        device_free_at_ = 0.0;
        if (streams_) reset_stream_clocks();
    }

    // --- streams & async ops (cudaStream_t-style queues, stream.cpp) --------
    // An explicit stream is a FIFO of deferred operations. Enqueueing is a
    // host-side action (fault preflights fire here, so injected failures
    // are atomic and retryable); the queued ops execute at the next sync
    // point — any *_synchronize, or any default-stream operation, which
    // joins with all streams first and then runs at once. Execution drains
    // streams in ascending stream-id, each in enqueue order, waits yielding
    // until their recorded event has executed; that order depends only on
    // the enqueue sequence, so every observable (stats, memcheck, faults,
    // trace) is bit-identical for any engine thread count.

    /// Creates a new asynchronous stream (never id 0).
    [[nodiscard]] StreamId stream_create();
    /// Executes the stream's remaining work, then releases the id.
    void stream_destroy(StreamId stream);
    /// True when the stream has no pending ops and its modelled timeline
    /// has been reached by the host clock. Never executes work.
    [[nodiscard]] bool stream_query(StreamId stream) const;
    /// Executes pending work; host blocks until the stream is idle (the
    /// default stream: until the whole device is, see synchronize()).
    void stream_synchronize(StreamId stream);
    /// All work enqueued on `stream` after this call orders behind
    /// `event`'s most recent record. Never recorded -> no-op (CUDA).
    void stream_wait_event(StreamId stream, EventId event);

    [[nodiscard]] EventId event_create();
    void event_destroy(EventId event);
    /// Marks "after everything enqueued so far on `stream`". On the
    /// default stream: after all currently issued work, device-wide.
    void event_record(EventId event, StreamId stream = kDefaultStream);
    /// True when the last record completed (never recorded counts as
    /// complete, as on CUDA). Never executes work.
    [[nodiscard]] bool event_query(EventId event) const;
    /// Host blocks until the last record's point on the timeline.
    void event_synchronize(EventId event);
    /// Milliseconds between two records (completes both first).
    [[nodiscard]] double event_elapsed_ms(EventId start, EventId stop);

    /// Enqueues a kernel launch. The host pays only the launch overhead;
    /// the grid executes at the next sync point on the stream's modelled
    /// timeline. On the default stream this is launch(): the grid runs
    /// before the call returns.
    void launch_async(const LaunchConfig& cfg, const KernelEntry& entry,
                      std::string_view name, StreamId stream);
    /// Dual-form async launch (see the launch() overload above).
    void launch_async(const LaunchConfig& cfg, KernelSpec spec,
                      std::string_view name, StreamId stream);
    /// Async H2D: the source is snapshotted at enqueue (pageable-memory
    /// semantics — later host writes to `src` don't affect the copy). On
    /// the default stream this is copy_to_device(), which reads `src` in
    /// place.
    void memcpy_to_device_async(DeviceAddr dst, const void* src, std::uint64_t bytes,
                                StreamId stream);
    /// Async D2H: `dst` is written when the op executes; reading it before
    /// the covering synchronize is a race (see note_host_read()). On the
    /// default stream this is copy_to_host().
    void memcpy_to_host_async(void* dst, DeviceAddr src, std::uint64_t bytes,
                              StreamId stream);
    /// On the default stream this is copy_device_to_device().
    void memcpy_device_to_device_async(DeviceAddr dst, DeviceAddr src,
                                       std::uint64_t bytes, StreamId stream);

    // --- graph capture & replay (cusim::graph, graph.cpp) -------------------
    // Capture records enqueues on captured streams into an immutable DAG
    // instead of queueing them: no seq numbers are consumed, no clocks
    // advance, no observables fire. Any operation that would execute
    // pending work (every sync, every default-stream op) during a
    // capture invalidates it and throws StreamCaptureInvalid; the broken
    // capture stays pinned until stream_end_capture() clears it.

    /// Starts capturing on `origin` (must be an explicit live stream).
    void stream_begin_capture(StreamId origin, CaptureMode mode = CaptureMode::Origin);
    /// Ends the capture started on `origin` and returns the recorded DAG.
    /// Throws StreamCaptureInvalid (and clears the capture) when a sync
    /// invalidated it mid-flight.
    [[nodiscard]] Graph stream_end_capture(StreamId origin);
    /// True while a capture is in progress (even an invalidated one).
    [[nodiscard]] bool capturing() const { return capturing_; }
    /// Validates every captured node once (geometry, pointer ranges,
    /// stream/event liveness) and returns a launchable exec. Atomic under
    /// fault injection: a preflight failure leaves no partial state.
    [[nodiscard]] GraphExec graph_instantiate(const Graph& graph);
    /// Replays the whole DAG: every node re-enqueues with fresh seq
    /// numbers for one launch-overhead charge, skipping per-op transform,
    /// validation and preflight. All-or-nothing under fault injection.
    void graph_launch(const GraphExec& exec);

    /// memcheck hook: declares that host code is about to read `bytes` at
    /// `p`. Records a Kind::AsyncHostRace violation when the range overlaps
    /// the destination of an async D2H copy that has not yet completed
    /// (framework containers call this before touching host-side storage;
    /// raw-pointer users can call it directly).
    void note_host_read(const void* p, std::uint64_t bytes);

    /// Pending (enqueued, not yet executed) async ops across all streams.
    [[nodiscard]] std::uint64_t pending_async_ops() const;

    /// The stream's lane name in the exported trace ("devN.streamK").
    [[nodiscard]] std::string stream_track(StreamId stream) const {
        return "dev" + std::to_string(trace_ordinal_) + ".stream" +
               std::to_string(stream);
    }

    // --- statistics ---------------------------------------------------------
    [[nodiscard]] const LaunchStats& last_launch() const { return last_launch_; }
    [[nodiscard]] std::uint64_t launches() const { return launch_count_; }
    [[nodiscard]] std::uint64_t bytes_to_device() const { return bytes_to_device_; }
    [[nodiscard]] std::uint64_t bytes_to_host() const { return bytes_to_host_; }
    void reset_transfer_stats() { bytes_to_device_ = 0; bytes_to_host_ = 0; }

    // --- launch history (ring buffer of recent launches) --------------------
    /// How many launches the history keeps (§6.3.1: being able to look back
    /// at more than the final launch is what makes the counters useful).
    static constexpr std::size_t kLaunchHistoryCapacity = 64;

    /// The most recent launches, oldest first (at most
    /// kLaunchHistoryCapacity; use launches() for the all-time count).
    [[nodiscard]] std::vector<LaunchRecord> recent_launches() const {
        std::vector<LaunchRecord> out;
        out.reserve(history_.size());
        const std::size_t n = history_.size();
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(history_[(history_head_ + i) % n]);
        }
        return out;
    }

    // --- fault state (cusim::faults) ----------------------------------------
    /// True while the device is poisoned by a sticky DeviceLost fault:
    /// every instrumented operation throws until reset_device().
    [[nodiscard]] bool lost() const { return lost_; }

    /// Marks the device lost (cusim::faults injecting DeviceLost, or tests
    /// simulating one directly). Sticky until reset_device().
    void poison();

    /// cudaDeviceReset-style recovery: clears the lost flag and wipes the
    /// contents of global memory. Allocations themselves survive — their
    /// addresses stay valid and their memcheck bookkeeping is replayed
    /// (defined-bits cleared, alloc ids preserved) — so RAII wrappers held
    /// by the host can re-upload instead of dangling.
    void reset_device();

    // --- trace integration ---------------------------------------------------
    /// Identifies this device's timeline lanes in the exported trace.
    [[nodiscard]] std::string host_track() const {
        return "dev" + std::to_string(trace_ordinal_) + ".host";
    }
    [[nodiscard]] std::string device_track() const {
        return "dev" + std::to_string(trace_ordinal_) + ".device";
    }
    /// Maps a simulated-seconds timestamp onto the trace's monotonic
    /// microsecond axis (reset_clock()-proof).
    [[nodiscard]] double trace_time_us(double seconds) const {
        return (trace_base_ + seconds) * 1e6;
    }

private:
    /// The byte size of `count` elements of T, saturated at 2^64 - 1 so that
    /// an oversized count stays oversized instead of wrapping to a small size.
    template <typename T>
    static std::uint64_t size_bytes(std::uint64_t count) {
        constexpr std::uint64_t kMax = ~std::uint64_t{0};
        return count > kMax / sizeof(T) ? kMax : count * sizeof(T);
    }

    /// One relaxed atomic load when no faults are armed and no device was
    /// ever poisoned — the whole cost of the instrumentation by default.
    void fault_preflight(faults::Site site, std::string_view label = {}) {
        if (faults::armed()) faults::preflight(site, label, this);
    }

    /// Maps a simulated-seconds timestamp onto the timeline's absolute
    /// monotonic axis (same base as the trace, but in seconds).
    [[nodiscard]] double tl_abs(double t) const { return trace_base_ + t; }

    /// Appends to the launch-history ring buffer (device.cpp).
    void record_launch(std::string name, const LaunchStats& stats, double start,
                       double end);

    /// The block-execution core of execute_op: validation must already
    /// have happened; runs the grid on the BlockPool (or serially),
    /// reduces everything observable in launch order, and returns the
    /// stats with device_seconds filled in. Does not touch the timeline,
    /// history, or trace. (device.cpp)
    LaunchStats run_grid(const LaunchConfig& cfg, const KernelSpec& spec,
                         const std::string& name);

    /// Default-stream semantics: every default-stream operation joins with
    /// all explicit streams — pending ops execute and the per-stream
    /// clocks fold into the device-wide busy horizon. A no-op until the
    /// first stream_create(), so pre-stream behaviour is untouched.
    void join_streams() {
        if (capturing_) capture_violation("implicit synchronization during stream capture");
        if (streams_) join_streams_slow();
    }
    void join_streams_slow();        // stream.cpp
    void reset_stream_clocks();      // stream.cpp
    void abandon_streams();          // stream.cpp (reset_device path)
    void prune_completed_async();    // stream.cpp: drops completed D2H ranges
    [[nodiscard]] detail::StreamTable& stream_table();  // lazily created

    /// Where an issued op goes (stream.cpp): on the default stream it runs
    /// now, after join_streams(); on an explicit stream it is captured or
    /// queued. Throws "<api>: unknown stream" for a stream that does not
    /// exist. True when the op was queued.
    bool submit(StreamId stream, detail::StreamOp& op, std::uint64_t corr,
                const char* api);
    /// Appends an issued op to its stream's queue, noting a D2H
    /// destination for the async host-race check (stream.cpp).
    void queue_op(StreamId stream, detail::StreamState& st, detail::StreamOp&& op);
    /// Executes every pending stream op in the canonical order (stream.cpp).
    void drain_streams();
    [[nodiscard]] bool op_ready(const detail::StreamOp& op) const;
    /// Runs one op on stream `sid`, whose busy horizon is `free_at`
    /// (device_free_at_ for the default stream). The only code that runs
    /// a grid, moves bytes or advances a clock for an op. (stream.cpp)
    void execute_op(StreamId sid, double& free_at, detail::StreamOp& op);
    /// Reports one executed op to prof, timeline and trace (stream.cpp).
    void record_op(const detail::OpRecord& rec);

    /// Records `op` into the live capture when `stream` is (or joins) the
    /// captured set; true when the op was consumed. Throws when the
    /// capture is already invalidated. (graph.cpp)
    bool capture_op(detail::StreamOp& op, StreamId stream);
    /// Marks the live capture invalidated (first reason wins) and throws
    /// StreamCaptureInvalid. (graph.cpp)
    [[noreturn]] void capture_violation(const char* what);

    DeviceProperties props_;
    GlobalMemory memory_;
    ConstantMemory constant_;
    double host_time_ = 0.0;
    double device_free_at_ = 0.0;
    LaunchStats last_launch_{};
    std::uint64_t launch_count_ = 0;
    std::uint64_t bytes_to_device_ = 0;
    std::uint64_t bytes_to_host_ = 0;
    bool lost_ = false;  ///< sticky DeviceLost state (see poison())

    std::vector<LaunchRecord> history_;  ///< ring buffer, capacity-bounded
    std::size_t history_head_ = 0;       ///< oldest entry once the ring is full
    int trace_ordinal_ = 0;              ///< stable lane id in the exported trace
    double trace_base_ = 0.0;            ///< accumulated pre-reset_clock() time

    /// Stream/event state; null until the first stream or event is
    /// created, so pre-stream code paths never pay for it.
    std::unique_ptr<detail::StreamTable> streams_;

    /// Graph-capture state; non-null exactly while capturing_ is true.
    /// The bool keeps the not-capturing fast path to one flag test.
    bool capturing_ = false;
    std::unique_ptr<detail::CaptureState> capture_;
};

}  // namespace cusim
