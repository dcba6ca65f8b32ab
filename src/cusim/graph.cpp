// cusim::graph implementation: the capture recorder (fed by the enqueue
// paths in stream.cpp via Device::capture_op) and the instantiate/replay
// half of the subsystem.
//
// Replay invariants (DESIGN.md §5g):
//  * replayed ops drain through the exact same canonical order as eager
//    ops — LaunchStats, memcheck, trace, prof and timeline observables
//    are bit-identical to the eager enqueue sequence;
//  * graph_launch() charges the host clock one launch overhead for the
//    whole DAG and runs one fault preflight before mutating anything, so
//    an injected failure aborts the replay atomically;
//  * per-op validation (geometry, pointer ranges) runs once, at
//    graph_instantiate(), never at launch.

#include "cusim/graph.hpp"

#include <string>
#include <utility>
#include <vector>

#include "cusim/multiprocessor.hpp"
#include "cusim/prof.hpp"
#include "cusim/stream_detail.hpp"
#include "cusim/timeline.hpp"

namespace cusim {

using detail::GraphNode;
using detail::StreamOp;

std::size_t Graph::node_count() const { return ir_ ? ir_->nodes.size() : 0; }

std::size_t GraphExec::node_count() const { return ir_ ? ir_->nodes.size() : 0; }

// --- capture ------------------------------------------------------------------

void Device::stream_begin_capture(StreamId origin, CaptureMode mode) {
    prof::ApiScope prof_scope(prof::Api::StreamBeginCapture, trace_ordinal_, origin);
    if (capturing_) {
        throw Error(ErrorCode::StreamCaptureInvalid,
                    "stream_begin_capture: a capture is already in progress");
    }
    detail::StreamTable& t = stream_table();
    if (origin == kDefaultStream || t.streams.find(origin) == t.streams.end()) {
        throw Error(ErrorCode::InvalidValue, "stream_begin_capture: unknown stream");
    }
    capture_ = std::make_unique<detail::CaptureState>();
    capture_->origin = origin;
    capture_->mode = mode;
    capture_->captured.insert(origin);
    capturing_ = true;
    if (cupp::trace::enabled()) {
        cupp::trace::emit_instant(host_track(), "begin capture",
                                  trace_time_us(host_time_), {{"stream", origin}});
    }
}

Graph Device::stream_end_capture(StreamId origin) {
    prof::ApiScope prof_scope(prof::Api::StreamEndCapture, trace_ordinal_, origin);
    if (!capturing_) {
        throw Error(ErrorCode::StreamCaptureInvalid,
                    "stream_end_capture: no capture in progress");
    }
    if (origin != capture_->origin) {
        throw Error(ErrorCode::InvalidValue,
                    "stream_end_capture: not the capture's origin stream");
    }
    const bool bad = capture_->invalidated;
    const std::string reason = std::move(capture_->reason);
    auto ir = std::make_shared<detail::GraphIR>();
    ir->nodes = std::move(capture_->nodes);
    ir->device = this;
    capture_.reset();
    capturing_ = false;
    if (bad) {
        throw Error(ErrorCode::StreamCaptureInvalid,
                    "stream_end_capture: capture was invalidated (" + reason + ")");
    }
    if (cupp::trace::enabled()) {
        cupp::trace::emit_instant(host_track(), "end capture",
                                  trace_time_us(host_time_),
                                  {{"nodes", ir->nodes.size()}});
    }
    return Graph(std::shared_ptr<const detail::GraphIR>(std::move(ir)));
}

void Device::capture_violation(const char* what) {
    detail::CaptureState& c = *capture_;
    if (!c.invalidated) {
        c.invalidated = true;
        c.reason = what ? what : "capture violation";
    }
    throw Error(ErrorCode::StreamCaptureInvalid, c.reason);
}

bool Device::capture_op(detail::StreamOp& op, StreamId stream) {
    detail::CaptureState& c = *capture_;
    if (c.invalidated) capture_violation(nullptr);  // rethrows the first reason
    const bool member =
        c.mode == CaptureMode::AllStreams || c.captured.count(stream) != 0;
    if (op.kind == StreamOp::Kind::Wait) {
        const auto rec = c.recorded.find(op.event);
        // A wait on an event recorded *inside* the capture becomes a graph
        // edge — and, CUDA's propagation rule, pulls an uncaptured stream
        // into the captured set. A member stream's wait on a pre-capture
        // record is captured as a no-op wait (the record's completion is a
        // property of the capture-time state, not of the replayed DAG).
        if (!member && rec == c.recorded.end()) return false;  // unrelated: eager
        GraphNode n;
        n.op = std::move(op);
        n.stream = stream;
        if (rec != c.recorded.end()) n.wait_edge = rec->second;
        c.captured.insert(stream);
        c.nodes.push_back(std::move(n));
        return true;
    }
    if (!member) return false;
    c.captured.insert(stream);
    if (op.kind == StreamOp::Kind::Record) {
        c.recorded[op.event] = c.nodes.size();
    }
    GraphNode n;
    n.op = std::move(op);
    n.stream = stream;
    c.nodes.push_back(std::move(n));
    return true;
}

// --- instantiate --------------------------------------------------------------

GraphExec Device::graph_instantiate(const Graph& graph) {
    prof::ApiScope prof_scope(prof::Api::GraphInstantiate, trace_ordinal_, 0,
                              graph.node_count());
    if (!graph.valid()) {
        throw Error(ErrorCode::InvalidValue, "graph_instantiate: empty graph handle");
    }
    const detail::GraphIR& ir = *graph.ir_;
    if (ir.device != this) {
        throw Error(ErrorCode::InvalidDevice,
                    "graph_instantiate: graph captured on another device");
    }
    // One preflight for the whole validation pass: an injected failure is
    // atomic (no exec handle, no state touched) and retryable.
    fault_preflight(faults::Site::Launch, "graph instantiate");
    detail::StreamTable& t = stream_table();
    for (const GraphNode& n : ir.nodes) {
        if (t.streams.find(n.stream) == t.streams.end()) {
            throw Error(ErrorCode::InvalidValue,
                        "graph_instantiate: captured stream was destroyed");
        }
        const StreamOp& op = n.op;
        switch (op.kind) {
            case StreamOp::Kind::Launch:
                op.cfg.validate();
                (void)blocks_per_mp(props_.cost, op.cfg);
                break;
            case StreamOp::Kind::CopyH2D:
                if (!memory_.range_valid(op.dst, op.bytes)) {
                    throw Error(ErrorCode::InvalidDevicePointer,
                                "graph_instantiate: H2D outside any allocation");
                }
                break;
            case StreamOp::Kind::CopyD2H:
                if (!memory_.range_valid(op.src, op.bytes)) {
                    throw Error(ErrorCode::InvalidDevicePointer,
                                "graph_instantiate: D2H outside any allocation");
                }
                break;
            case StreamOp::Kind::CopyD2D:
                if (!memory_.range_valid(op.src, op.bytes) ||
                    !memory_.range_valid(op.dst, op.bytes)) {
                    throw Error(ErrorCode::InvalidDevicePointer,
                                "graph_instantiate: D2D outside any allocation");
                }
                break;
            case StreamOp::Kind::Record:
            case StreamOp::Kind::Wait:
                if (t.events.find(op.event) == t.events.end()) {
                    throw Error(ErrorCode::InvalidValue,
                                "graph_instantiate: captured event was destroyed");
                }
                break;
        }
    }
    if (cupp::trace::enabled()) {
        cupp::trace::emit_instant(host_track(), "graph instantiate",
                                  trace_time_us(host_time_),
                                  {{"nodes", ir.nodes.size()}});
    }
    return GraphExec(graph.ir_);
}

// --- replay -------------------------------------------------------------------

void Device::graph_launch(const GraphExec& exec) {
    prof::ApiScope prof_scope(prof::Api::GraphLaunch, trace_ordinal_, 0,
                              exec.node_count());
    timeline::FailScope tl_fail(trace_ordinal_, 0, timeline::Category::Host,
                                "graph launch", 0, prof_scope.correlation(),
                                tl_abs(host_time_));
    if (capturing_) capture_violation("graph_launch during stream capture");
    if (!exec.valid()) {
        throw Error(ErrorCode::InvalidValue, "graph_launch: empty exec handle");
    }
    const detail::GraphIR& ir = *exec.ir_;
    if (ir.device != this) {
        throw Error(ErrorCode::InvalidDevice,
                    "graph_launch: graph captured on another device");
    }
    // One preflight, then target-liveness checks, all before any mutation:
    // an injected or real failure leaves every queue untouched.
    fault_preflight(faults::Site::Launch, "graph launch");
    detail::StreamTable& t = stream_table();
    for (const GraphNode& n : ir.nodes) {
        if (t.streams.find(n.stream) == t.streams.end()) {
            throw Error(ErrorCode::InvalidValue,
                        "graph_launch: captured stream was destroyed");
        }
    }

    // Fast path: no per-op ApiScope/preflight/validation/anchor — every
    // node re-enqueues with a fresh seq under one host-lane anchor.
    const double t0 = host_time_;
    std::uint64_t anchor = 0;
    if (timeline::enabled()) {
        anchor = timeline::anchor_host(trace_ordinal_, tl_abs(t0));
    }
    std::vector<std::uint64_t> node_seq(ir.nodes.size(), 0);
    for (std::size_t i = 0; i < ir.nodes.size(); ++i) {
        const GraphNode& n = ir.nodes[i];
        StreamOp op = n.op;  // copy: closures + staged bytes are reused as-is
        op.seq = t.next_seq++;
        op.issue_host_time = t0;
        op.corr = prof_scope.correlation();
        op.tl_anchor = anchor;
        node_seq[i] = op.seq;
        switch (op.kind) {
            case StreamOp::Kind::Record: {
                auto ev = t.events.find(op.event);
                if (ev != t.events.end()) ev->second.last_record_seq = op.seq;
                break;
            }
            case StreamOp::Kind::Wait:
                if (n.wait_edge != GraphNode::kNoEdge) {
                    op.wait_target_seq = node_seq[n.wait_edge];
                    op.wait_has_target = true;
                } else {
                    op.wait_target_seq = 0;
                    op.wait_has_target = false;
                }
                break;
            default:
                break;
        }
        queue_op(n.stream, t.streams.find(n.stream)->second, std::move(op));
    }

    // The amortization: one launch-overhead charge for the whole DAG.
    host_time_ += props_.cost.launch_overhead_s;
    if (timeline::enabled()) {
        timeline::host_op(trace_ordinal_, timeline::Category::Host, "graph launch",
                          0, prof_scope.correlation(), tl_abs(t0),
                          tl_abs(host_time_));
    }
    if (cupp::trace::enabled()) {
        cupp::trace::emit_complete(host_track(), "graph launch", trace_time_us(t0),
                                   props_.cost.launch_overhead_s * 1e6,
                                   {{"nodes", ir.nodes.size()}});
        static const cupp::trace::counter_handle launches("cusim.graph.launches");
        launches.add();
    }
}

}  // namespace cusim
