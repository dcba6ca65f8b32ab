// Streams & events: the Device's deferred asynchronous work queues.
//
// An explicit stream is a FIFO of ops captured at enqueue time (kernel
// closures, snapshotted H2D sources, host destinations, event marks).
// Nothing executes until a synchronization point; then drain() runs every
// executable op in the canonical order — streams in ascending id, each in
// enqueue order, an op blocked on a cross-stream event wait yielding to
// the next stream until the record it waits on has executed. The order is
// a pure function of the enqueue sequence: LaunchStats, memcheck reports,
// fault counters and trace output are bit-identical for any engine thread
// count (only the *blocks inside one grid* parallelize, under run_grid's
// existing launch-order reduction).
//
// Deadlock-freedom of drain(): a wait's target record is always an op
// enqueued strictly earlier (the target seq is snapshotted when the wait
// is enqueued). Consider the queue-front op with the smallest global seq:
// were it a blocked wait, its target record — with an even smaller seq —
// would still sit in some queue whose front would then have a smaller seq
// than the minimum. Contradiction, so the minimal front is always
// executable and every pass makes progress.

#include "cusim/stream.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "cusim/memcheck.hpp"
#include "cusim/multiprocessor.hpp"
#include "cusim/prof.hpp"
#include "cusim/report.hpp"
#include "cusim/stream_detail.hpp"
#include "cusim/timeline.hpp"

namespace cusim {

namespace {

using detail::StreamOp;

/// The op's name in the recorders: a queued copy is marked async, a
/// default-stream one keeps the plain name of the blocking call.
const char* op_label(StreamOp::Kind k, bool queued) {
    switch (k) {
        case StreamOp::Kind::Launch: return "launch";
        case StreamOp::Kind::CopyH2D: return queued ? "memcpy H2D async" : "memcpy H2D";
        case StreamOp::Kind::CopyD2H: return queued ? "memcpy D2H async" : "memcpy D2H";
        case StreamOp::Kind::CopyD2D: return queued ? "memcpy D2D async" : "memcpy D2D";
        case StreamOp::Kind::Record: return "event record";
        case StreamOp::Kind::Wait: return "wait event";
    }
    return "?";
}

timeline::Category op_category(StreamOp::Kind k) {
    switch (k) {
        case StreamOp::Kind::Launch: return timeline::Category::Kernel;
        case StreamOp::Kind::CopyH2D: return timeline::Category::MemcpyH2D;
        case StreamOp::Kind::CopyD2H: return timeline::Category::MemcpyD2H;
        case StreamOp::Kind::CopyD2D: return timeline::Category::MemcpyD2D;
        case StreamOp::Kind::Record: return timeline::Category::EventRecord;
        case StreamOp::Kind::Wait: return timeline::Category::EventWait;
    }
    return timeline::Category::Kernel;
}

void count_enqueue() {
    if (cupp::trace::enabled()) {
        static const cupp::trace::counter_handle ops("cusim.stream.ops_enqueued");
        ops.add();
    }
}

/// Rejects cost models no launch can run on, before the arena is allocated:
/// zero multiprocessors leaves the grid model no MP to deal blocks to, and
/// a zero texture-miss period is a modulus of zero.
DeviceProperties checked(DeviceProperties props) {
    if (props.cost.multiprocessors == 0) {
        throw Error(ErrorCode::InvalidValue, "cost model needs at least one multiprocessor");
    }
    if (props.cost.texture_miss_period == 0) {
        throw Error(ErrorCode::InvalidValue, "cost model texture_miss_period must be at least 1");
    }
    return props;
}

}  // namespace

Device::Device(DeviceProperties props)
    : props_(checked(std::move(props))), memory_(props_.total_global_mem) {
    static std::atomic<int> next_ordinal{0};
    trace_ordinal_ = next_ordinal.fetch_add(1, std::memory_order_relaxed);
    memory_.shadow().set_device(trace_ordinal_);
}

Device::~Device() = default;

detail::StreamTable& Device::stream_table() {
    if (!streams_) streams_ = std::make_unique<detail::StreamTable>();
    return *streams_;
}

// --- creation / destruction -------------------------------------------------

StreamId Device::stream_create() {
    prof::ApiScope prof_scope(prof::Api::StreamCreate, trace_ordinal_);
    // Creating a stream allocates runtime resources; the Malloc site with a
    // recognisable label lets fault plans target it.
    fault_preflight(faults::Site::Malloc, "stream_create");
    detail::StreamTable& t = stream_table();
    const StreamId id = t.next_stream++;
    t.streams[id];  // default StreamState: idle, empty queue
    if (cupp::trace::enabled()) {
        static const cupp::trace::counter_handle created("cusim.stream.created");
        created.add();
        cupp::trace::emit_instant(host_track(), "stream create",
                                  trace_time_us(host_time_), {{"stream", id}});
    }
    return id;
}

void Device::stream_destroy(StreamId stream) {
    prof::ApiScope prof_scope(prof::Api::StreamDestroy, trace_ordinal_, stream);
    detail::StreamTable& t = stream_table();
    auto it = t.streams.find(stream);
    if (it == t.streams.end()) {
        throw Error(ErrorCode::InvalidValue, "stream_destroy: unknown stream");
    }
    // cudaStreamDestroy semantics: queued work still completes. Draining is
    // global (the canonical order is device-wide), which executes at least
    // everything this stream needs.
    if (capturing_) capture_violation("stream_destroy during stream capture");
    drain_streams();
    t.streams.erase(stream);
}

EventId Device::event_create() {
    prof::ApiScope prof_scope(prof::Api::EventCreate, trace_ordinal_);
    fault_preflight(faults::Site::Malloc, "event_create");
    detail::StreamTable& t = stream_table();
    const EventId id = t.next_event++;
    t.events[id];
    return id;
}

void Device::event_destroy(EventId event) {
    prof::ApiScope prof_scope(prof::Api::EventDestroy, trace_ordinal_);
    detail::StreamTable& t = stream_table();
    if (t.events.erase(event) == 0) {
        throw Error(ErrorCode::InvalidValue, "event_destroy: unknown event");
    }
    // Pending record/wait ops referencing the id degrade to no-ops at
    // drain; ids are never reused, so no aliasing.
}

// --- issue (each call ends in submit()) -------------------------------------

void Device::launch_async(const LaunchConfig& cfg, const KernelEntry& entry,
                          std::string_view name, StreamId stream) {
    launch_async(cfg, KernelSpec(entry), name, stream);
}

void Device::launch_async(const LaunchConfig& cfg, KernelSpec spec,
                          std::string_view name, StreamId stream) {
    // On the default stream this is launch(): the same API record and
    // fault label as the blocking call.
    const bool queued = stream != kDefaultStream;
    prof::ApiScope prof_scope(queued ? prof::Api::LaunchAsync : prof::Api::Launch,
                              trace_ordinal_, stream, 0, name);
    timeline::FailScope tl_fail(trace_ordinal_, stream, timeline::Category::Kernel,
                                name, 0, prof_scope.correlation(),
                                tl_abs(host_time_));
    const std::string_view label = name.empty() ? std::string_view("kernel") : name;
    // Preflight and validation happen before the grid runs or is queued,
    // so an injected failure (or a poisoned device) rejects the launch
    // atomically and a retry is clean.
    if (!queued) {
        fault_preflight(faults::Site::Launch, name);
    } else if (faults::armed()) {
        // The queued label is built only when a fault plan can match it.
        fault_preflight(faults::Site::Launch, "async " + std::string(label));
    }
    cfg.validate();
    // Occupancy limits are checked before running anything.
    (void)blocks_per_mp(props_.cost, cfg);

    StreamOp op;
    op.kind = StreamOp::Kind::Launch;
    op.cfg = cfg;
    op.entry = std::move(spec);
    op.name = std::string(label);
    if (!submit(stream, op, prof_scope.correlation(), "launch_async")) return;

    // Asynchronous launch semantics (§2.2 "a kernel invocation does not
    // block the host"): the host pays only the issue overhead, exactly
    // like a default-stream launch.
    const double t0 = host_time_;
    host_time_ += props_.cost.launch_overhead_s;
    if (timeline::enabled() || cupp::trace::enabled()) {
        const std::string issue =
            "launch " + std::string(label) + " (s" + std::to_string(stream) + ")";
        if (timeline::enabled()) {
            timeline::host_op(trace_ordinal_, timeline::Category::Host, issue, 0,
                              prof_scope.correlation(), tl_abs(t0), tl_abs(host_time_));
        }
        if (cupp::trace::enabled()) {
            cupp::trace::emit_complete(host_track(), issue, trace_time_us(t0),
                                       props_.cost.launch_overhead_s * 1e6,
                                       {{"stream", stream}});
        }
    }
    count_enqueue();
}

void Device::memcpy_to_device_async(DeviceAddr dst, const void* src,
                                    std::uint64_t bytes, StreamId stream) {
    const bool queued = stream != kDefaultStream;
    prof::ApiScope prof_scope(queued ? prof::Api::MemcpyH2DAsync : prof::Api::MemcpyH2D,
                              trace_ordinal_, stream, bytes);
    timeline::FailScope tl_fail(trace_ordinal_, stream, timeline::Category::MemcpyH2D,
                                op_label(StreamOp::Kind::CopyH2D, queued), bytes,
                                prof_scope.correlation(), tl_abs(host_time_));
    fault_preflight(faults::Site::MemcpyH2D, queued ? "async" : "");
    // A queued copy is checked now, so a rejected one leaves nothing queued;
    // a blocking one is checked when it runs.
    if (queued && src == nullptr) {
        throw Error(ErrorCode::InvalidValue, "null async H2D source");
    }
    if (queued && !memory_.range_valid(dst, bytes)) {
        throw Error(ErrorCode::InvalidDevicePointer, "async H2D outside any allocation");
    }
    StreamOp op;
    op.kind = StreamOp::Kind::CopyH2D;
    op.dst = dst;
    op.bytes = bytes;
    op.host_src = src;
    if (!submit(stream, op, prof_scope.correlation(), "memcpy_to_device_async")) return;
    if (cupp::trace::enabled()) {
        cupp::trace::emit_instant(
            host_track(), "enqueue H2D (s" + std::to_string(stream) + ")",
            trace_time_us(host_time_), {{"bytes", bytes}, {"stream", stream}});
    }
    count_enqueue();
}

void Device::memcpy_to_host_async(void* dst, DeviceAddr src, std::uint64_t bytes,
                                  StreamId stream) {
    const bool queued = stream != kDefaultStream;
    prof::ApiScope prof_scope(queued ? prof::Api::MemcpyD2HAsync : prof::Api::MemcpyD2H,
                              trace_ordinal_, stream, bytes);
    timeline::FailScope tl_fail(trace_ordinal_, stream, timeline::Category::MemcpyD2H,
                                op_label(StreamOp::Kind::CopyD2H, queued), bytes,
                                prof_scope.correlation(), tl_abs(host_time_));
    fault_preflight(faults::Site::MemcpyD2H, queued ? "async" : "");
    if (queued && dst == nullptr) {
        throw Error(ErrorCode::InvalidValue, "null async D2H destination");
    }
    if (queued && !memory_.range_valid(src, bytes)) {
        throw Error(ErrorCode::InvalidDevicePointer, "async D2H outside any allocation");
    }
    StreamOp op;
    op.kind = StreamOp::Kind::CopyD2H;
    op.src = src;
    op.bytes = bytes;
    op.host_dst = dst;
    if (!submit(stream, op, prof_scope.correlation(), "memcpy_to_host_async")) return;
    if (cupp::trace::enabled()) {
        cupp::trace::emit_instant(
            host_track(), "enqueue D2H (s" + std::to_string(stream) + ")",
            trace_time_us(host_time_), {{"bytes", bytes}, {"stream", stream}});
    }
    count_enqueue();
}

void Device::memcpy_device_to_device_async(DeviceAddr dst, DeviceAddr src,
                                           std::uint64_t bytes, StreamId stream) {
    const bool queued = stream != kDefaultStream;
    prof::ApiScope prof_scope(queued ? prof::Api::MemcpyD2DAsync : prof::Api::MemcpyD2D,
                              trace_ordinal_, stream, bytes);
    timeline::FailScope tl_fail(trace_ordinal_, stream, timeline::Category::MemcpyD2D,
                                op_label(StreamOp::Kind::CopyD2D, queued), bytes,
                                prof_scope.correlation(), tl_abs(host_time_));
    fault_preflight(faults::Site::MemcpyD2D, queued ? "async" : "");
    if (queued && (!memory_.range_valid(src, bytes) || !memory_.range_valid(dst, bytes))) {
        throw Error(ErrorCode::InvalidDevicePointer, "async D2D outside any allocation");
    }
    StreamOp op;
    op.kind = StreamOp::Kind::CopyD2D;
    op.dst = dst;
    op.src = src;
    op.bytes = bytes;
    if (!submit(stream, op, prof_scope.correlation(), "memcpy_device_to_device_async")) {
        return;
    }
    count_enqueue();
}

void Device::event_record(EventId event, StreamId stream) {
    prof::ApiScope prof_scope(prof::Api::EventRecord, trace_ordinal_, stream);
    timeline::FailScope tl_fail(trace_ordinal_, stream,
                                timeline::Category::EventRecord, "event record", 0,
                                prof_scope.correlation(), tl_abs(host_time_));
    if (stream_table().events.count(event) == 0) {
        throw Error(ErrorCode::InvalidValue, "event_record: unknown event");
    }
    // On the default stream the record runs at once, after all currently
    // issued work, device-wide. A captured record never touches EventState:
    // the event's live record chain is only updated when the graph replays.
    StreamOp op;
    op.kind = StreamOp::Kind::Record;
    op.event = event;
    if (!submit(stream, op, prof_scope.correlation(), "event_record")) return;
    if (cupp::trace::enabled()) {
        static const cupp::trace::counter_handle recs("cusim.stream.events_recorded");
        recs.add();
    }
    count_enqueue();
}

void Device::stream_wait_event(StreamId stream, EventId event) {
    prof::ApiScope prof_scope(prof::Api::StreamWaitEvent, trace_ordinal_, stream);
    timeline::FailScope tl_fail(trace_ordinal_, stream,
                                timeline::Category::EventWait, "wait event", 0,
                                prof_scope.correlation(), tl_abs(host_time_));
    if (stream_table().events.count(event) == 0) {
        throw Error(ErrorCode::InvalidValue, "stream_wait_event: unknown event");
    }
    // On the default stream the wait runs at once: everything executes,
    // then the device-wide horizon moves past the recorded point. Capture
    // resolves the wait against the *captured* record chain (becoming a
    // graph edge, or a no-op for pre-capture records) and can pull an
    // uncaptured stream into the capture — see capture_op().
    StreamOp op;
    op.kind = StreamOp::Kind::Wait;
    op.event = event;
    if (!submit(stream, op, prof_scope.correlation(), "stream_wait_event")) return;
    if (cupp::trace::enabled()) {
        static const cupp::trace::counter_handle waits("cusim.stream.wait_events");
        waits.add();
    }
    count_enqueue();
}

// --- execution: at once on the default stream, else in canonical drain order -

bool Device::op_ready(const detail::StreamOp& op) const {
    if (op.kind != StreamOp::Kind::Wait || !op.wait_has_target) return true;
    const auto ev = streams_->events.find(op.event);
    if (ev == streams_->events.end()) return true;  // destroyed -> no-op
    return ev->second.completed_seq >= op.wait_target_seq;
}

bool Device::submit(StreamId stream, StreamOp& op, std::uint64_t corr,
                    const char* api) {
    detail::StreamState* queue = nullptr;
    if (stream == kDefaultStream) {
        // Default-stream semantics: the op orders behind every explicit
        // stream's already-enqueued work, then runs at once.
        join_streams();
    } else {
        detail::StreamTable& t = stream_table();
        const auto it = t.streams.find(stream);
        if (it == t.streams.end()) {
            throw Error(ErrorCode::InvalidValue, std::string(api) + ": unknown stream");
        }
        queue = &it->second;
        if (op.host_src != nullptr) {
            // Pageable-memory semantics: snapshot now, so host writes to the
            // source after this call never leak into the copy.
            const auto* p = static_cast<const std::byte*>(op.host_src);
            op.staged.assign(p, p + op.bytes);
            op.host_src = nullptr;
        }
        if (capturing_ && capture_op(op, stream)) return false;
    }
    if (streams_) op.seq = streams_->next_seq++;
    op.issue_host_time = host_time_;
    op.corr = corr;
    if (op.kind == StreamOp::Kind::Record) {
        streams_->events.at(op.event).last_record_seq = op.seq;
    } else if (op.kind == StreamOp::Kind::Wait) {
        // CUDA captures the event's *current* record; a later re-record does
        // not move this wait. An unrecorded event makes the wait a no-op.
        op.wait_target_seq = streams_->events.at(op.event).last_record_seq;
        op.wait_has_target = op.wait_target_seq != 0;
    }
    if (queue == nullptr) {
        execute_op(kDefaultStream, device_free_at_, op);
        return false;
    }
    if (timeline::enabled() && op.kind != StreamOp::Kind::Wait) {
        op.tl_anchor = timeline::anchor_host(trace_ordinal_, tl_abs(host_time_));
    }
    queue_op(stream, *queue, std::move(op));
    return true;
}

void Device::queue_op(StreamId stream, detail::StreamState& st, StreamOp&& op) {
    if (op.kind == StreamOp::Kind::CopyD2H && memcheck::enabled()) {
        detail::PendingHostWrite w;
        w.begin = static_cast<const std::byte*>(op.host_dst);
        w.end = w.begin + op.bytes;
        w.stream = stream;
        w.seq = op.seq;
        streams_->host_writes.push_back(w);
    }
    st.pending.push_back(std::move(op));
}

void Device::execute_op(StreamId sid, double& free_at, StreamOp& op) {
    // An op starts once its stream is free and the host has issued it.
    detail::OpRecord rec{op, sid, std::max(free_at, op.issue_host_time)};
    switch (op.kind) {
        case StreamOp::Kind::Launch: {
            // Host interpreter wall time is the one profiler field that is
            // real (and thus non-deterministic) rather than modelled; only
            // measured while a profiling session is collecting.
            const bool profiling = prof::collecting();
            const double wall0 = profiling ? cupp::trace::wall_clock_us() : 0.0;
            const LaunchStats stats = run_grid(op.cfg, op.entry, op.name);
            if (profiling) rec.wall_s = (cupp::trace::wall_clock_us() - wall0) * 1e-6;
            rec.stats = &stats;
            rec.secs = stats.device_seconds;
            rec.end = free_at = rec.start + stats.device_seconds;
            // A queued launch paid its issue overhead at enqueue.
            if (sid == kDefaultStream) host_time_ += props_.cost.launch_overhead_s;
            last_launch_ = stats;
            ++launch_count_;
            record_op(rec);
            record_launch(std::move(op.name), stats, rec.start, rec.end);
            return;
        }
        case StreamOp::Kind::CopyH2D:
        case StreamOp::Kind::CopyD2H: {
            rec.secs = props_.cost.transfer_latency_s +
                       static_cast<double>(op.bytes) /
                           props_.cost.pcie_bandwidth_bytes_per_s;
            // A default-stream copy blocks the host, which first waits until
            // no kernel is active (§2.2); a queued one occupies its stream.
            double& busy = sid == kDefaultStream ? host_time_ : free_at;
            rec.end = busy = rec.start + rec.secs;
            if (op.kind == StreamOp::Kind::CopyH2D) {
                memory_.write(op.dst,
                              op.host_src != nullptr ? op.host_src : op.staged.data(),
                              op.bytes);
                bytes_to_device_ += op.bytes;
                break;
            }
            memory_.read(op.src, op.host_dst, op.bytes);
            bytes_to_host_ += op.bytes;
            if (sid == kDefaultStream) break;
            for (detail::PendingHostWrite& w : streams_->host_writes) {
                if (w.seq == op.seq) {
                    w.drained = true;
                    w.complete_at = rec.end;
                }
            }
            break;
        }
        case StreamOp::Kind::CopyD2D:
            // Device-side copy: consumes device time, not host time.
            rec.secs =
                static_cast<double>(op.bytes) / props_.cost.mem_bandwidth_bytes_per_s;
            rec.end = free_at = rec.start + rec.secs;
            memory_.copy(op.dst, op.src, op.bytes);
            break;
        case StreamOp::Kind::Record: {
            const auto ev = streams_->events.find(op.event);
            if (ev == streams_->events.end()) return;  // destroyed: a no-op
            // An idle stream completes the record immediately at issue time;
            // a busy one at its current horizon. When one event is recorded
            // on several streams, drain order may execute an *older* record
            // (lower enqueue seq) after a newer one — the newest record must
            // win, or a wait targeting it would spin on a regressed
            // completed_seq.
            rec.end = rec.start;
            rec.newest = op.seq >= ev->second.completed_seq;
            if (rec.newest) {
                ev->second.time = rec.start;
                ev->second.completed_seq = op.seq;
            }
            break;
        }
        case StreamOp::Kind::Wait: {
            const auto ev = streams_->events.find(op.event);
            if (ev == streams_->events.end() || !op.wait_has_target) return;
            free_at = std::max(free_at, ev->second.time);
            rec.start = rec.end = free_at;
            break;
        }
    }
    record_op(rec);
}

void Device::record_op(const detail::OpRecord& rec) {
    const bool profiling = prof::collecting();
    const bool recording = timeline::enabled();
    const bool tracing = cupp::trace::enabled();
    if (!profiling && !recording && !tracing) return;
    const StreamOp& op = rec.op;
    const bool queued = rec.stream != kDefaultStream;
    const bool launch = op.kind == StreamOp::Kind::Launch;
    const bool copy = op.kind == StreamOp::Kind::CopyH2D ||
                      op.kind == StreamOp::Kind::CopyD2H ||
                      op.kind == StreamOp::Kind::CopyD2D;
    // The op's lane: the host for a blocking copy, the device for the other
    // default-stream ops, the op's stream otherwise.
    const bool blocking = !queued && copy && op.kind != StreamOp::Kind::CopyD2D;
    const auto track = [&] {
        return queued ? stream_track(rec.stream) : blocking ? host_track() : device_track();
    };
    const std::string_view name =
        launch ? std::string_view(op.name) : op_label(op.kind, queued);
    const double t0 = op.issue_host_time;
    // A blocking copy spans [t0, end] on the host lane; its first `wait`
    // seconds are spent waiting for the device.
    const double wait = rec.start - t0;

    if (profiling && launch) {
        prof::record_launch(op.name, op.cfg, *rec.stats, track(), trace_ordinal_,
                            rec.wall_s, props_.cost);
    } else if (profiling && copy) {
        const CopyKind kind =
            op.kind == StreamOp::Kind::CopyH2D   ? CopyKind::HostToDevice
            : op.kind == StreamOp::Kind::CopyD2H ? CopyKind::DeviceToHost
                                                 : CopyKind::DeviceToDevice;
        prof::record_transfer(kind, op.bytes, blocking ? rec.end - t0 - wait : rec.secs,
                              trace_ordinal_);
    }

    if (recording && blocking) {
        // The transfer node starts after the wait, which shows as a host-lane
        // bubble bound to the device FIFO tail.
        timeline::host_op(trace_ordinal_, op_category(op.kind), name, op.bytes, op.corr,
                          tl_abs(t0 + wait), tl_abs(rec.end),
                          wait > 0.0 ? timeline::device_tail(trace_ordinal_) : 0);
    } else if (recording) {
        // Besides its lane's FIFO edge, a wait depends on the record it
        // waited for and a queued op on its issue point. A default-stream op
        // that started the moment the host issued it depends on the host
        // lane's point at its start; when the device was still busy, the
        // device FIFO tail already ends there.
        const std::uint64_t dep =
            op.kind == StreamOp::Kind::Wait
                ? timeline::event_record_node(trace_ordinal_, op.event)
            : queued          ? op.tl_anchor
            : rec.start == t0 ? timeline::anchor_host(trace_ordinal_, tl_abs(rec.start))
                              : 0;
        const std::uint64_t node =
            queued ? timeline::stream_op(trace_ordinal_, rec.stream, op_category(op.kind),
                                         name, op.bytes, op.corr, tl_abs(rec.start),
                                         tl_abs(rec.end), dep)
                   : timeline::device_op(trace_ordinal_, op_category(op.kind), name,
                                         op.bytes, op.corr, tl_abs(rec.start),
                                         tl_abs(rec.end), dep);
        // Mirrors EventState::time: waits edge to the record that actually
        // defines the event's completion point.
        if (rec.newest) timeline::register_event_record(trace_ordinal_, op.event, node);
        if (launch && !queued) {
            timeline::host_op(trace_ordinal_, timeline::Category::Host, "launch " + op.name,
                              0, op.corr, tl_abs(t0), tl_abs(host_time_));
        }
    }

    if (!tracing) return;
    if (launch) {
        // The grid actually executing — with the full LaunchStats attached,
        // this is the §6.3.1 profile per launch.
        const LaunchStats& s = *rec.stats;
        std::vector<cupp::trace::arg> args;
        if (queued) args.emplace_back("stream", rec.stream);
        args.insert(args.end(), {{"blocks", s.blocks},
                                 {"threads", s.threads},
                                 {"threads_per_block", s.threads_per_block},
                                 {"warps", s.warps},
                                 {"compute_cycles", s.compute_cycles},
                                 {"stall_cycles", s.stall_cycles},
                                 {"bytes_read", s.bytes_read},
                                 {"bytes_written", s.bytes_written},
                                 {"divergent_events", s.divergent_events},
                                 {"branch_evaluations", s.branch_evaluations},
                                 {"syncthreads", s.syncthreads_count},
                                 {"resident_blocks_per_mp", s.resident_blocks_per_mp},
                                 {"bound_by", to_string(bound_by(s, props_.cost))}});
        cupp::trace::emit_complete(track(), op.name, trace_time_us(rec.start),
                                   s.device_seconds * 1e6, std::move(args));
        // Each counter handle lives in the branch that uses it: the trace
        // lists only the counters of the ops the run did.
        if (queued) {
            static const cupp::trace::counter_handle launches(
                "cusim.stream.kernel_launches");
            launches.add();
            return;
        }
        // The host lane shows only the (tiny) synchronous issue cost — the
        // gap between this span's end and the device span's end is the
        // overlap the asynchronous model buys.
        cupp::trace::emit_complete(host_track(), "launch " + op.name, trace_time_us(t0),
                                   props_.cost.launch_overhead_s * 1e6);
        static const cupp::trace::counter_handle launches("cusim.kernel_launches");
        launches.add();
    } else if (copy && blocking) {
        const bool to_host = op.kind == StreamOp::Kind::CopyD2H;
        cupp::trace::emit_complete(host_track(), name, trace_time_us(t0),
                                   (rec.end - t0) * 1e6,
                                   {{"bytes", op.bytes},
                                    {"kind", to_host ? "D2H" : "H2D"},
                                    {"device_wait_us", wait * 1e6}});
        static const cupp::trace::counter_handle h2d("cusim.bytes_h2d");
        static const cupp::trace::counter_handle d2h("cusim.bytes_d2h");
        static const cupp::trace::counter_handle n_xfers("cusim.transfers");
        (to_host ? d2h : h2d).add(op.bytes);
        n_xfers.add();
    } else if (copy) {
        const char* kind = op.kind == StreamOp::Kind::CopyH2D   ? "H2D"
                           : op.kind == StreamOp::Kind::CopyD2H ? "D2H"
                                                                : "D2D";
        cupp::trace::emit_complete(track(), name, trace_time_us(rec.start), rec.secs * 1e6,
                                   {{"bytes", op.bytes}, {"kind", kind}});
        if (queued && op.kind == StreamOp::Kind::CopyH2D) {
            static const cupp::trace::counter_handle h2d("cusim.stream.bytes_h2d");
            h2d.add(op.bytes);
        } else if (queued && op.kind == StreamOp::Kind::CopyD2H) {
            static const cupp::trace::counter_handle d2h("cusim.stream.bytes_d2h");
            d2h.add(op.bytes);
        }
    } else if (op.kind == StreamOp::Kind::Record && queued) {
        cupp::trace::emit_instant(track(), "event record", trace_time_us(rec.start),
                                  {{"event", op.event}});
    }
}

void Device::drain_streams() {
    if (!streams_) return;
    detail::StreamTable& t = *streams_;
    for (;;) {
        bool progress = false;
        bool remaining = false;
        for (auto& [sid, st] : t.streams) {
            while (!st.pending.empty() && op_ready(st.pending.front())) {
                // Pop before executing: a deferred kernel failure surfaces
                // from the synchronizing call (as on CUDA) and the faulting
                // op is consumed, so the queue stays drainable afterwards.
                StreamOp op = std::move(st.pending.front());
                st.pending.pop_front();
                execute_op(sid, st.free_at, op);
                progress = true;
            }
            if (!st.pending.empty()) remaining = true;
        }
        if (!remaining) return;
        if (!progress) {
            // Unreachable (see the deadlock-freedom argument above) —
            // surfacing a bug beats spinning forever.
            throw Error(ErrorCode::LaunchFailure, "stream drain stalled");
        }
    }
}

void Device::join_streams_slow() {
    drain_streams();
    for (const auto& [sid, st] : streams_->streams) {
        if (st.free_at > device_free_at_) {
            device_free_at_ = st.free_at;
            // The stream that pushed the device-wide horizon becomes the
            // node later default-stream work FIFO-orders behind.
            if (timeline::enabled()) {
                timeline::set_device_tail(
                    trace_ordinal_, timeline::stream_tail(trace_ordinal_, sid));
            }
        }
    }
}

// --- queries & synchronization ----------------------------------------------

bool Device::stream_query(StreamId stream) const {
    if (stream == kDefaultStream) return !kernel_active();
    if (!streams_) {
        throw Error(ErrorCode::InvalidValue, "stream_query: unknown stream");
    }
    const auto it = streams_->streams.find(stream);
    if (it == streams_->streams.end()) {
        throw Error(ErrorCode::InvalidValue, "stream_query: unknown stream");
    }
    return it->second.pending.empty() && it->second.free_at <= host_time_;
}

void Device::stream_synchronize(StreamId stream) {
    // The default stream is device-wide: it joins every stream and waits
    // for the whole device (synchronize()).
    const bool device_wide = stream == kDefaultStream;
    prof::ApiScope prof_scope(device_wide ? prof::Api::Sync : prof::Api::StreamSynchronize,
                              trace_ordinal_, stream);
    const char* name = device_wide ? "synchronize" : "stream synchronize";
    timeline::FailScope tl_fail(trace_ordinal_, stream, timeline::Category::Sync, name, 0,
                                prof_scope.correlation(), tl_abs(host_time_));
    // The device-wide join reports a capture violation itself, after the
    // preflight.
    if (capturing_ && !device_wide) {
        capture_violation("stream_synchronize during stream capture");
    }
    fault_preflight(faults::Site::Sync, device_wide ? "" : "stream");
    const detail::StreamState* st = nullptr;
    if (device_wide) {
        join_streams();
    } else {
        detail::StreamTable& t = stream_table();
        const auto it = t.streams.find(stream);
        if (it == t.streams.end()) {
            throw Error(ErrorCode::InvalidValue, "stream_synchronize: unknown stream");
        }
        st = &it->second;
        drain_streams();
    }
    host_time_ = std::max(host_time_, st != nullptr ? st->free_at : device_free_at_);
    prune_completed_async();
    if (timeline::enabled()) {
        timeline::host_sync(trace_ordinal_, name, prof_scope.correlation(),
                            tl_abs(host_time_),
                            st != nullptr ? timeline::stream_tail(trace_ordinal_, stream)
                                          : timeline::device_tail(trace_ordinal_));
    }
}

bool Device::event_query(EventId event) const {
    if (!streams_) {
        throw Error(ErrorCode::InvalidValue, "event_query: unknown event");
    }
    const auto it = streams_->events.find(event);
    if (it == streams_->events.end()) {
        throw Error(ErrorCode::InvalidValue, "event_query: unknown event");
    }
    const detail::EventState& ev = it->second;
    if (ev.last_record_seq == 0) return true;  // never recorded: complete (CUDA)
    return ev.completed_seq >= ev.last_record_seq && ev.time <= host_time_;
}

void Device::event_synchronize(EventId event) {
    prof::ApiScope prof_scope(prof::Api::EventSynchronize, trace_ordinal_);
    timeline::FailScope tl_fail(trace_ordinal_, 0, timeline::Category::Sync,
                                "event synchronize", 0, prof_scope.correlation(),
                                tl_abs(host_time_));
    if (capturing_) capture_violation("event_synchronize during stream capture");
    fault_preflight(faults::Site::Sync, "event");
    detail::StreamTable& t = stream_table();
    auto it = t.events.find(event);
    if (it == t.events.end()) {
        throw Error(ErrorCode::InvalidValue, "event_synchronize: unknown event");
    }
    drain_streams();
    host_time_ = std::max(host_time_, it->second.time);
    prune_completed_async();
    if (timeline::enabled()) {
        timeline::host_sync(trace_ordinal_, "event synchronize",
                            prof_scope.correlation(), tl_abs(host_time_),
                            timeline::event_record_node(trace_ordinal_, event));
    }
}

double Device::event_elapsed_ms(EventId start, EventId stop) {
    detail::StreamTable& t = stream_table();
    auto a = t.events.find(start);
    auto b = t.events.find(stop);
    if (a == t.events.end() || b == t.events.end()) {
        throw Error(ErrorCode::InvalidValue, "event_elapsed_ms: unknown event");
    }
    if (capturing_) capture_violation("event_elapsed_ms during stream capture");
    drain_streams();
    if (a->second.last_record_seq == 0 || b->second.last_record_seq == 0) {
        throw Error(ErrorCode::InvalidValue, "event_elapsed_ms: event never recorded");
    }
    if (a->second.time > host_time_ || b->second.time > host_time_) {
        throw Error(ErrorCode::NotReady,
                    "event_elapsed_ms: events not yet complete (synchronize first)");
    }
    return (b->second.time - a->second.time) * 1e3;
}

std::uint64_t Device::pending_async_ops() const {
    if (!streams_) return 0;
    std::uint64_t n = 0;
    for (const auto& [sid, st] : streams_->streams) n += st.pending.size();
    return n;
}

// --- async host-race detection (memcheck) ------------------------------------

void Device::note_host_read(const void* p, std::uint64_t bytes) {
    if (!streams_ || !memcheck::enabled()) return;
    const auto* begin = static_cast<const std::byte*>(p);
    const auto* end = begin + bytes;
    for (const detail::PendingHostWrite& w : streams_->host_writes) {
        const bool in_flight = !w.drained || w.complete_at > host_time_;
        if (!in_flight || begin >= w.end || end <= w.begin) continue;
        memcheck::Violation v;
        v.kind = memcheck::Kind::AsyncHostRace;
        v.message = "host read of " + std::to_string(bytes) +
                    " byte(s) races an in-flight async D2H copy on stream " +
                    std::to_string(w.stream) +
                    " (synchronize the stream before touching the destination)";
        v.origin = "stream " + std::to_string(w.stream) + " D2H";
        v.addr = reinterpret_cast<std::uintptr_t>(p);
        v.bytes = bytes;
        v.device = trace_ordinal_;
        memcheck::record(std::move(v));
        if (memcheck::strict()) {
            throw Error(ErrorCode::MemcheckViolation,
                        "async host race (strict memcheck)");
        }
        return;  // one report per touched range is enough
    }
}

void Device::prune_completed_async() {
    if (!streams_) return;
    auto& ws = streams_->host_writes;
    ws.erase(std::remove_if(ws.begin(), ws.end(),
                            [&](const detail::PendingHostWrite& w) {
                                return w.drained && w.complete_at <= host_time_;
                            }),
             ws.end());
}

// --- reset paths --------------------------------------------------------------

void Device::reset_stream_clocks() {
    for (auto& [sid, st] : streams_->streams) st.free_at = 0.0;
}

void Device::abandon_streams() {
    // A device reset kills any live capture outright (as on CUDA, where
    // capture state dies with the context).
    capturing_ = false;
    capture_.reset();
    // Queued work died with the device: drop it unexecuted. Events whose
    // record was still queued complete at the reset point so waits and
    // event_synchronize can't stall on an op that will never run.
    detail::StreamTable& t = *streams_;
    for (auto& [sid, st] : t.streams) {
        for (const StreamOp& op : st.pending) {
            if (op.kind != StreamOp::Kind::Record) continue;
            auto ev = t.events.find(op.event);
            if (ev != t.events.end() && ev->second.completed_seq < op.seq) {
                ev->second.time = host_time_;
                ev->second.completed_seq = op.seq;
            }
        }
        st.pending.clear();
        st.free_at = host_time_;
    }
    t.host_writes.clear();
}

}  // namespace cusim
