// Shared internal representation of device work.
//
// Every launch and copy becomes a StreamOp: the default stream runs it at
// once, an explicit stream queues it, and graph capture/replay (graph.cpp)
// records and re-enqueues it. Everything in cusim::detail is an
// implementation detail: device.hpp only forward-declares these types and
// no public header includes this one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cusim/device.hpp"
#include "cusim/graph.hpp"
#include "cusim/launch.hpp"

namespace cusim::detail {

/// One device operation. `seq` is the global issue index (determinism +
/// wait targeting); `issue_host_time` pins when the host issued it so the
/// op can never start before that.
struct StreamOp {
    enum class Kind { Launch, CopyH2D, CopyD2H, CopyD2D, Record, Wait };

    Kind kind = Kind::Launch;
    std::uint64_t seq = 0;
    double issue_host_time = 0.0;

    // Launch
    LaunchConfig cfg{};
    KernelSpec entry;  ///< dual-form kernel; run_grid picks the engine when it runs
    std::string name;  ///< never empty: an unnamed launch is "kernel"

    // Copies
    DeviceAddr dst = 0;
    DeviceAddr src = 0;
    std::uint64_t bytes = 0;
    const void* host_src = nullptr;  ///< H2D source while not staged (read in place)
    std::vector<std::byte> staged;   ///< queued H2D source snapshot (pageable semantics)
    void* host_dst = nullptr;        ///< D2H destination

    // Events
    EventId event = 0;
    std::uint64_t wait_target_seq = 0;  ///< record op a Wait orders behind
    bool wait_has_target = false;       ///< false: event unrecorded -> no-op

    // Recorders (captured at issue, consumed when the op runs)
    std::uint64_t corr = 0;       ///< correlation id of the issuing API call
    std::uint64_t tl_anchor = 0;  ///< queued ops: host-lane node ending at the issue point
};

/// One executed op as the recorders see it. Device::execute_op fills it in
/// and hands it to Device::record_op, the one place where an executed op
/// reaches prof, timeline and trace.
struct OpRecord {
    const StreamOp& op;
    StreamId stream = kDefaultStream;
    double start = 0.0;  ///< modelled start, after any wait for the device
    double end = 0.0;    ///< modelled end on the op's lane
    double secs = 0.0;   ///< modelled busy time of a grid or copy
    const LaunchStats* stats = nullptr;  ///< grids only
    double wall_s = 0.0;   ///< host interpreter wall time of a grid (profiling only)
    bool newest = false;   ///< records: this record now defines the event's time
};

struct StreamState {
    std::deque<StreamOp> pending;
    double free_at = 0.0;  ///< this stream's modelled busy horizon
};

struct EventState {
    double time = 0.0;                  ///< timeline point of the last executed record
    std::uint64_t last_record_seq = 0;  ///< newest record *issued* (0 = never)
    std::uint64_t completed_seq = 0;    ///< newest record *executed*
};

/// Host range an in-flight async D2H copy will write. Reading it from the
/// host before the covering synchronize is the race memcheck reports.
struct PendingHostWrite {
    const std::byte* begin = nullptr;
    const std::byte* end = nullptr;
    StreamId stream = 0;
    std::uint64_t seq = 0;
    bool drained = false;      ///< op executed (bytes materialized)
    double complete_at = 0.0;  ///< modelled completion (valid once drained)
};

struct StreamTable {
    // std::map: drain() walks streams in ascending id — the contract.
    std::map<StreamId, StreamState> streams;
    std::map<EventId, EventState> events;
    std::vector<PendingHostWrite> host_writes;
    StreamId next_stream = 1;
    EventId next_event = 1;
    std::uint64_t next_seq = 1;
};

// --- graph capture IR ---------------------------------------------------------

/// One captured op. `wait_edge` links a Wait to the index of the captured
/// Record it orders behind (kNoEdge: the wait targets a record from before
/// the capture, or an unrecorded event — replayed as a no-op wait).
struct GraphNode {
    static constexpr std::size_t kNoEdge = static_cast<std::size_t>(-1);

    StreamOp op;
    StreamId stream = 0;
    std::size_t wait_edge = kNoEdge;
};

/// Live recording state while Device::capturing() is true. Seq numbers,
/// clocks and observables are untouched during capture — the recorded ops
/// get real seqs at each graph_launch().
struct CaptureState {
    bool invalidated = false;
    std::string reason;      ///< why the capture was invalidated
    StreamId origin = 0;     ///< stream stream_begin_capture() named
    CaptureMode mode = CaptureMode::Origin;
    std::set<StreamId> captured;             ///< streams pulled into the capture
    std::vector<GraphNode> nodes;            ///< capture order = replay order
    std::map<EventId, std::size_t> recorded; ///< event -> newest captured record
};

/// The immutable DAG a Graph/GraphExec shares. Bound to the Device that
/// captured it: closures and staged bytes reference its address space.
struct GraphIR {
    std::vector<GraphNode> nodes;
    Device* device = nullptr;
};

}  // namespace cusim::detail
