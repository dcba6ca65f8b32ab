// cusim::timeline — dependency-aware timeline recording and critical-path
// attribution for the simulated runtime.
//
// cusim::prof answers "which kernels cost the most in aggregate"; this
// module answers "why is the modelled makespan what it is". Every scheduled
// operation — kernel launch (default-stream and stream-bound), H2D/D2H/D2D
// transfer (blocking and async), event record, cross-stream wait_event, and
// host synchronization — is recorded as a node of a DAG with its modelled
// start/end times, lane (devN.host / devN.device / devN.streamK), the
// correlation id its runtime API call carried (shared with the
// cusim::prof callback API), and explicit dependency edges:
//
//   * FIFO edges along each lane (stream queue order, device-lane order,
//     host program order),
//   * event edges from a wait to the record whose completion released it,
//   * host-sync edges from a synchronize to the work it blocked on, and
//   * issue edges from an async op to the host-lane point that enqueued
//     it (an op can never start before it was issued).
//
// Because every constraint that can determine a node's start time is an
// edge to a node ending at exactly that time, walking backwards from the
// makespan node always follows an edge whose source ends where the current
// node starts: the resulting chain tiles [0, makespan] *exactly* — first
// node at 0, each end bitwise-equal to the next start, last end at the
// makespan. That chain is the critical path; everything else the
// report derives (per-lane utilization and bubble intervals, overlap
// efficiency, per-category shares) falls out of the same node set.
//
// Untracked host progress (Device::advance_host, the steering library's
// CPU cost model) is folded into synthetic "host" filler nodes, so the
// host lane is gapless and host compute shows up on the critical path
// when it is the bottleneck.
//
// Activation follows the CUPP_TRACE / CUPP_PROF pattern:
//
//   CUPP_TIMELINE=<report.json>   record for the whole run and write the
//                                 JSON report (cupp_report timeline
//                                 renders and diffs it) at process exit
//
// Recording happens on the host thread only — at enqueue time and inside
// the stream drain / launch-order reduction — so the report is
// bit-identical across CUPP_SIM_THREADS and engine configurations. A
// fault-rejected enqueue is recorded as a `failed` node that contributes
// no edges, no busy time, and never appears on the critical path. The
// disabled fast path is one relaxed atomic load per site.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cusim::timeline {

// --- enablement -------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The per-site fast-path gate: one relaxed load when recording is off.
[[nodiscard]] inline bool enabled() {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Enables recording, in memory only.
void enable();
/// Enables recording and arranges for the JSON report to be written to
/// `path` at process exit (and on write_report()).
void enable(std::string path);
/// Stops recording; the recorded DAG is kept for analysis.
void disable();
/// disable() + drops every node, lane cursor and the report path, and
/// resets the shared prof correlation-id counter (test isolation).
void reset();

// --- the node model ---------------------------------------------------------

/// What kind of scheduled operation a node represents. `Host` covers both
/// real host-side costs (launch issue overhead) and the synthetic filler
/// intervals that keep the host lane gapless across untracked host time.
enum class Category : std::uint8_t {
    Kernel,       ///< a grid executing on the device timeline
    MemcpyH2D,    ///< host-to-device transfer (sync or drained async)
    MemcpyD2H,    ///< device-to-host transfer
    MemcpyD2D,    ///< device-to-device copy
    EventRecord,  ///< an event record completing (zero duration)
    EventWait,    ///< a stream ordering behind a recorded event (zero duration)
    Sync,         ///< a host synchronization point (zero duration)
    Host,         ///< host-side work: issue overhead, untracked host compute
};
inline constexpr std::size_t kCategoryCount = 8;

/// Stable lower-case category name (report JSON, tools, tests).
[[nodiscard]] const char* category_name(Category cat);

/// Which of a device's lanes a node executed on.
enum class Lane : std::uint8_t {
    Host,    ///< "devN.host" — the issuing host thread
    Device,  ///< "devN.device" — the default stream's device timeline
    Stream,  ///< "devN.streamK" — an explicit stream's timeline
};

/// One recorded operation. Times are absolute modelled seconds (monotonic
/// across Device::reset_clock, like the exported trace's time axis).
struct Node {
    std::uint64_t id = 0;           ///< 1-based, in recording (launch) order
    std::uint64_t correlation = 0;  ///< shared with prof::ApiRecord::correlation
    Category cat = Category::Kernel;
    Lane lane = Lane::Host;
    std::string name;               ///< kernel name or op label
    int device = 0;                 ///< trace ordinal of the owning device
    std::uint32_t stream = 0;       ///< stream id when lane == Lane::Stream
    double start = 0.0;
    double end = 0.0;
    std::uint64_t bytes = 0;        ///< transfer size when applicable
    bool failed = false;            ///< fault-rejected enqueue: no edges
    std::vector<std::uint64_t> deps;  ///< node ids this one depended on

    [[nodiscard]] double duration() const { return end - start; }
};

/// The node's lane name as rendered in the report ("dev0.stream2").
[[nodiscard]] std::string lane_name(const Node& n);

// --- recording hooks (Device / stream internals; host thread only) -----------
// All hooks are no-ops unless enabled(). Times are absolute modelled
// seconds (the caller applies its trace_base offset).

/// Returns the id of the host-lane node ending exactly at `t`, creating a
/// synthetic Category::Host filler node over [cursor, t] when untracked
/// host time (advance_host) left a gap. Returns 0 when t == 0 and the
/// host lane is still empty.
std::uint64_t anchor_host(int device, double t);

/// Host-lane op with real duration (blocking transfer, launch issue
/// overhead). When `start` lies beyond the host cursor, the binding
/// constraint is `extra_dep` (a device-side node the host blocked on) if
/// it ends exactly at `start`; otherwise the gap is filled as untracked
/// host compute. Returns the node id.
std::uint64_t host_op(int device, Category cat, std::string_view name,
                      std::uint64_t bytes, std::uint64_t correlation,
                      double start, double end, std::uint64_t extra_dep = 0);

/// Zero-duration host synchronization point at `t` (Device::synchronize,
/// stream/event synchronize). `waited` is the node whose completion set
/// `t` (0 when unknown). Returns the node id.
std::uint64_t host_sync(int device, std::string_view name,
                        std::uint64_t correlation, double t,
                        std::uint64_t waited);

/// Device-lane node (default-stream kernel, D2D copy, or the
/// zero-duration default-stream record/wait marks). FIFO-depends on the
/// current device-lane tail plus `extra_dep`. Returns the node id.
std::uint64_t device_op(int device, Category cat, std::string_view name,
                        std::uint64_t bytes, std::uint64_t correlation,
                        double start, double end, std::uint64_t extra_dep = 0);

/// Stream-lane node (a drained async op). FIFO-depends on the stream's
/// tail plus up to two explicit deps (issue anchor, event-record node).
/// Returns the node id.
std::uint64_t stream_op(int device, std::uint32_t stream, Category cat,
                        std::string_view name, std::uint64_t bytes,
                        std::uint64_t correlation, double start, double end,
                        std::uint64_t dep_a = 0, std::uint64_t dep_b = 0);

/// Records a fault-rejected enqueue: a failed node pinned at `t` with no
/// edges; it never becomes a lane tail and contributes no busy time.
void failed_op(int device, std::uint32_t stream, Category cat,
               std::string_view name, std::uint64_t bytes,
               std::uint64_t correlation, double t);

/// The current device-lane tail node (0 when none) — what a default-stream
/// op or host sync is ordered behind.
[[nodiscard]] std::uint64_t device_tail(int device);
/// The stream's tail node (0 when none).
[[nodiscard]] std::uint64_t stream_tail(int device, std::uint32_t stream);
/// join_streams folding a stream's horizon into the device-wide one: the
/// stream's tail becomes the device-lane tail.
void set_device_tail(int device, std::uint64_t node);

/// Newest-wins registry of each event's last *executed* record node,
/// mirroring EventState::time (waits and event_synchronize edges).
void register_event_record(int device, std::uint64_t event, std::uint64_t node);
[[nodiscard]] std::uint64_t event_record_node(int device, std::uint64_t event);

/// RAII guard that records a failed node when the guarded runtime call
/// unwinds via exception (fault preflight / validation rejection).
/// Constructed after the prof::ApiScope so it can carry the same
/// correlation id. Costs one relaxed load when recording is off.
class FailScope {
public:
    FailScope(int device, std::uint32_t stream, Category cat,
              std::string_view name, std::uint64_t bytes,
              std::uint64_t correlation, double t)
        : armed_(enabled()) {
        if (!armed_) return;
        device_ = device;
        stream_ = stream;
        cat_ = cat;
        name_ = name;
        bytes_ = bytes;
        correlation_ = correlation;
        t_ = t;
        exceptions_ = std::uncaught_exceptions();
    }
    ~FailScope() {
        if (armed_ && std::uncaught_exceptions() > exceptions_) {
            failed_op(device_, stream_, cat_, name_, bytes_, correlation_, t_);
        }
    }
    FailScope(const FailScope&) = delete;
    FailScope& operator=(const FailScope&) = delete;

private:
    bool armed_;
    int device_ = 0;
    std::uint32_t stream_ = 0;
    Category cat_ = Category::Kernel;
    std::string_view name_;
    std::uint64_t bytes_ = 0;
    std::uint64_t correlation_ = 0;
    double t_ = 0.0;
    int exceptions_ = 0;
};

// --- analysis & report -------------------------------------------------------

/// One lane's activity summary.
struct LaneSummary {
    std::string lane;  ///< "dev0.host" / "dev0.device" / "dev0.stream2"
    std::uint64_t nodes = 0;
    double busy_seconds = 0.0;   ///< sum of node durations on the lane
    double first_start = 0.0;
    double last_end = 0.0;
    /// Idle gaps between consecutive nodes on the lane (within
    /// [first_start, last_end]), in time order.
    std::vector<std::pair<double, double>> bubbles;
    double bubble_seconds = 0.0;
};

/// The computed attribution for the recorded DAG.
struct Report {
    double makespan_seconds = 0.0;    ///< max node end (the modelled makespan)
    double serialized_seconds = 0.0;  ///< sum of all successful durations
    /// serialized / makespan: 1.0 when fully serial, >1 when lanes overlap.
    double overlap_efficiency = 0.0;
    /// Node ids of the critical path, in chronological order. The chain
    /// tiles the makespan: the first node starts at 0, each node's end is
    /// exactly the next node's start, and the last node ends at the
    /// makespan (gap_seconds accounts for any untiled remainder).
    std::vector<std::uint64_t> critical_path;
    /// makespan_seconds - gap_seconds: the time the path attributes.
    /// Exactly equal to the makespan when gap_seconds is 0.
    double critical_path_seconds = 0.0;
    /// Unattributed time along the walk (0 in normal operation; non-zero
    /// only if a constraint was not representable as an edge).
    double gap_seconds = 0.0;
    std::vector<LaneSummary> lanes;             ///< first-use order
    std::array<double, kCategoryCount> category_seconds{};
    std::uint64_t total_nodes = 0;
    std::uint64_t failed_nodes = 0;
    std::uint64_t edges = 0;
};

/// Snapshot of every recorded node, in recording order (tests).
[[nodiscard]] std::vector<Node> nodes();
/// Critical path, utilization, bubbles, category shares for the current DAG.
[[nodiscard]] Report analyze();

/// The configured report file ("" when none).
[[nodiscard]] std::string report_path();
/// The timeline report as a JSON document (schema: DESIGN.md §5e).
[[nodiscard]] std::string report_json();
/// Writes report_json() to `path` (or the configured path when omitted).
/// Returns false when no path is known or the write failed.
bool write_report(const std::string& path = {});

}  // namespace cusim::timeline
