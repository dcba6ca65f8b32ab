// cusim::Stream / cusim::Event — RAII handles over the Device's
// asynchronous work queues (cudaStream_t / cudaEvent_t, CUDA-1.x flavour).
//
// A stream is a FIFO queue of deferred device operations (kernel launches,
// async transfers, event records, cross-stream event waits). Enqueueing is
// a host-side action that never runs device work; the queued operations
// execute at the next synchronization point — any stream/event synchronize,
// or any default-stream operation, which joins with every stream first.
// Execution order at that point is fixed by the determinism
// contract: streams drain in ascending stream-id, each stream in enqueue
// order, an op blocked on an event wait yielding to the next stream until
// the recorded event it waits on has executed. Because that order is a
// function of the enqueue sequence only, LaunchStats, memcheck reports,
// fault counters and the trace are bit-identical for any engine thread
// count (see DESIGN.md "Streams & events").
//
// The default stream (cusim::kDefaultStream, id 0) is stream work plus an
// implicit device-wide join, as on CUDA: work "enqueued" on it joins with
// every explicit stream and then runs at once, through the same executor
// as stream work (the pre-stream semantics).
#pragma once

#include <utility>

#include "cusim/device.hpp"

namespace cusim {

class Event;

/// RAII stream handle. Move-only; destruction drains the stream's pending
/// work (cudaStreamDestroy completes outstanding operations) and releases
/// the id.
class Stream {
public:
    explicit Stream(Device& dev) : dev_(&dev), id_(dev.stream_create()) {}
    ~Stream() { destroy(); }

    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

    Stream(Stream&& other) noexcept : dev_(other.dev_), id_(other.id_) {
        other.dev_ = nullptr;
        other.id_ = kDefaultStream;
    }
    Stream& operator=(Stream&& other) noexcept {
        if (this != &other) {
            destroy();
            dev_ = other.dev_;
            id_ = other.id_;
            other.dev_ = nullptr;
            other.id_ = kDefaultStream;
        }
        return *this;
    }

    [[nodiscard]] StreamId id() const { return id_; }
    [[nodiscard]] Device& device() const { return *dev_; }

    /// cudaStreamQuery: true when every enqueued op has executed *and* its
    /// modelled completion time has been reached by the host clock.
    [[nodiscard]] bool query() const { return dev_->stream_query(id_); }

    /// cudaStreamSynchronize: executes pending work and blocks the host
    /// clock until this stream's modelled timeline is idle.
    void synchronize() { dev_->stream_synchronize(id_); }

    /// cudaStreamWaitEvent: all work enqueued on this stream after this
    /// call waits for `ev`'s most recent record (a no-op if `ev` was never
    /// recorded). Defined out-of-line below, after Event.
    void wait(const Event& ev);

private:
    void destroy() noexcept {
        if (dev_ != nullptr && id_ != kDefaultStream) {
            try {
                dev_->stream_destroy(id_);
            } catch (...) {
                // Teardown must not throw; a deferred kernel failure
                // surfacing here is dropped like cudaStreamDestroy would.
            }
        }
        dev_ = nullptr;
        id_ = kDefaultStream;
    }

    Device* dev_;
    StreamId id_;
};

/// RAII event handle. Move-only. An event marks a point in a stream's
/// FIFO; recording captures "after everything enqueued so far", and other
/// streams can order behind it with Stream::wait.
class Event {
public:
    explicit Event(Device& dev) : dev_(&dev), id_(dev.event_create()) {}
    ~Event() { destroy(); }

    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

    Event(Event&& other) noexcept : dev_(other.dev_), id_(other.id_) {
        other.dev_ = nullptr;
        other.id_ = 0;
    }
    Event& operator=(Event&& other) noexcept {
        if (this != &other) {
            destroy();
            dev_ = other.dev_;
            id_ = other.id_;
            other.dev_ = nullptr;
            other.id_ = 0;
        }
        return *this;
    }

    [[nodiscard]] EventId id() const { return id_; }
    [[nodiscard]] Device& device() const { return *dev_; }

    /// cudaEventRecord on a stream (or the default stream, which captures
    /// all previously issued work device-wide).
    void record(const Stream& s) { dev_->event_record(id_, s.id()); }
    void record() { dev_->event_record(id_, kDefaultStream); }

    /// cudaEventQuery: true when the recorded point has been reached
    /// (a never-recorded event counts as complete, as on CUDA).
    [[nodiscard]] bool query() const { return dev_->event_query(id_); }

    /// cudaEventSynchronize: blocks the host clock until the recorded
    /// point completes.
    void synchronize() { dev_->event_synchronize(id_); }

    /// cudaEventElapsedTime between two completed records.
    [[nodiscard]] static double elapsed_ms(const Event& start, const Event& stop) {
        return start.dev_->event_elapsed_ms(start.id_, stop.id_);
    }

private:
    void destroy() noexcept {
        if (dev_ != nullptr && id_ != 0) {
            try {
                dev_->event_destroy(id_);
            } catch (...) {
            }
        }
        dev_ = nullptr;
        id_ = 0;
    }

    Device* dev_;
    EventId id_;
};

inline void Stream::wait(const Event& ev) { dev_->stream_wait_event(id_, ev.id()); }

}  // namespace cusim
