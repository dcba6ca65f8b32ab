// Differential stream determinism harness: seeded random DAGs of kernel
// launches, async copies and event waits across 1-4 explicit streams and
// the default stream (the captured-replay twin uses explicit streams only:
// a default-stream op would invalidate its capture), each DAG run
// with the block engine pinned to 1, 2 and 8 worker threads. Every
// observable — final device memory, LaunchStats, memcheck reports, fault
// counters, trace event sequences, the normalized timeline report — must
// be bit-identical to the serial run: the drain order is a pure function
// of the enqueue sequence, and only the blocks *inside* one grid
// parallelize (under run_grid's launch-order reduction).
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cupp/trace.hpp"
#include "cusim/block_pool.hpp"
#include "cusim/cusim.hpp"
#include "cusim/faults.hpp"
#include "cusim/timeline.hpp"

namespace {

using namespace cusim;

/// Masks the process-global device ordinal ("dev3.stream1" -> "dev#.stream1",
/// '"device": 3' -> '"device": #'): each run constructs a fresh Device, so
/// the ordinal is the one legitimately run-dependent token in the report.
std::string mask_device_ordinals(std::string text) {
    for (std::size_t pos = 0; (pos = text.find("dev", pos)) != std::string::npos;) {
        std::size_t i = pos + 3;
        while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
            text.erase(i, 1);
        }
        if (i > pos + 3) text.insert(pos + 3, "#");
        pos += 4;
    }
    const std::string key = "\"device\": ";
    for (std::size_t pos = 0; (pos = text.find(key, pos)) != std::string::npos;) {
        std::size_t i = pos + key.size();
        while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
            text.erase(i, 1);
        }
        text.insert(pos + key.size(), "#");
        pos += key.size();
    }
    return text;
}

struct ThreadsGuard {
    explicit ThreadsGuard(unsigned n) { BlockPool::set_threads(n); }
    ~ThreadsGuard() { BlockPool::set_threads(0); }
};

struct EngineGuard {
    explicit EngineGuard(EngineMode m) { set_engine_mode(m); }
    ~EngineGuard() { clear_engine_mode(); }
};

/// Deterministic 64-bit mixer (splitmix64): the DAG shape, op parameters
/// and kernel payloads all derive from it, so a (seed, op-index) pair
/// fully determines the workload on every run and thread count.
struct Rng {
    std::uint64_t state;
    explicit Rng(std::uint64_t seed) : state(seed) {}
    std::uint64_t next() {
        state += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint32_t below(std::uint32_t n) {
        return static_cast<std::uint32_t>(next() % n);
    }
};

KernelTask mix_kernel(ThreadCtx& ctx, DevicePtr<std::uint32_t> data,
                      std::uint32_t salt) {
    const std::uint64_t gid = ctx.global_id();
    const std::uint32_t v = data.read(ctx, gid);
    std::uint32_t acc = v * 2654435761u + salt;
    if (ctx.branch((gid & 1) == 0)) {
        acc ^= acc >> 7;
    }
    data.write(ctx, gid, acc + static_cast<std::uint32_t>(gid));
    co_return;
}

/// Warp-native twin of mix_kernel: identical charges per lane in identical
/// per-lane order, so every digest below must be bit-identical whichever
/// engine interprets it. memcheck is always on in this harness, which keeps
/// the warp engine on its lane-facade (exact-diagnostics) path throughout.
KernelTask mix_kernel_warp(WarpCtx& w, DevicePtr<std::uint32_t> data,
                           std::uint32_t salt) {
    std::uint64_t idx[kWarpSize];
    std::uint32_t acc[kWarpSize];
    for (unsigned l = 0; l < w.lanes(); ++l) idx[l] = w.global_id(l);
    w.read(data, idx, acc);
    std::uint32_t even = 0;
    for (unsigned l = 0; l < w.lanes(); ++l) {
        acc[l] = acc[l] * 2654435761u + salt;
        if ((idx[l] & 1) == 0) even |= 1u << l;
    }
    w.push_active(w.ballot(even));
    for (std::uint32_t m = w.active(); m != 0; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        acc[l] ^= acc[l] >> 7;
    }
    w.pop_active();
    for (unsigned l = 0; l < w.lanes(); ++l) {
        acc[l] += static_cast<std::uint32_t>(idx[l]);
    }
    w.write(data, idx, acc);
    co_return;
}

/// Everything observable about one DAG execution, serialised for an exact
/// string comparison (memory bytes, launch stats, memcheck, faults, and a
/// trace signature for a subset of seeds).
struct RunResult {
    std::string digest;
};

constexpr std::uint32_t kElems = 64;  // per-buffer elements (2 blocks of 32)

RunResult run_dag(std::uint64_t seed, unsigned threads, bool with_trace,
                  EngineMode engine = EngineMode::Thread) {
    ThreadsGuard guard(threads);
    EngineGuard engine_guard(engine);
    memcheck::enable();
    memcheck::reset();
    // Timeline recording runs on every DAG: the normalized report (all
    // modelled times, no wall clocks) must be part of the bit-identical
    // observable set. reset() also restarts the shared correlation counter.
    timeline::reset();
    timeline::enable();
    if (with_trace) {
        cupp::trace::enable();
        cupp::trace::clear();
        cupp::trace::metrics().reset();
    }

    std::ostringstream out;
    {
        Rng rng(seed);
        Device dev(tiny_properties());
        const LaunchConfig cfg{dim3{2}, dim3{32}};

        const unsigned n_streams = 1 + rng.below(4);
        std::vector<StreamId> streams;
        for (unsigned i = 0; i < n_streams; ++i) streams.push_back(dev.stream_create());

        const unsigned n_buffers = 2 + rng.below(3);
        std::vector<DevicePtr<std::uint32_t>> buffers;
        std::vector<std::vector<std::uint32_t>> downloads;  // D2H destinations, kept alive
        for (unsigned i = 0; i < n_buffers; ++i) {
            buffers.push_back(dev.malloc_n<std::uint32_t>(kElems));
            std::vector<std::uint32_t> init(kElems);
            for (std::uint32_t j = 0; j < kElems; ++j) {
                init[j] = static_cast<std::uint32_t>(rng.next());
            }
            dev.upload(buffers.back(), std::span<const std::uint32_t>(init));
        }

        // One transient fault every few ops at the async launch/copy sites:
        // the injection counters (host-side, at enqueue) must tick
        // identically for every thread count, and every throw is caught and
        // counted. Armed only for the DAG itself — setup uploads above and
        // the result downloads below stay fault-free.
        std::vector<faults::Rule> rules;
        for (faults::Site site :
             {faults::Site::Launch, faults::Site::MemcpyH2D, faults::Site::MemcpyD2H}) {
            faults::Rule r;
            r.site = site;
            r.code = site == faults::Site::Launch ? ErrorCode::LaunchFailure
                                                  : ErrorCode::TransferFailure;
            r.every = 5;
            rules.push_back(r);
        }
        faults::configure(rules);

        std::vector<EventId> events;
        std::vector<bool> recorded;
        unsigned faults_caught = 0;

        const unsigned n_ops = 12 + rng.below(20);
        for (unsigned i = 0; i < n_ops; ++i) {
            // The default stream is one more choice: its ops join the
            // explicit streams and run at once, interleaved with queued work.
            const unsigned pick = rng.below(n_streams + 1);
            const StreamId s = pick == n_streams ? kDefaultStream : streams[pick];
            const auto buf = rng.below(n_buffers);
            try {
                switch (rng.below(8)) {
                    case 0:
                    case 1:
                    case 2: {  // kernel launch (most common)
                        const auto salt = static_cast<std::uint32_t>(rng.next());
                        dev.launch_async(
                            cfg,
                            KernelSpec(
                                [&, buf, salt](ThreadCtx& ctx) {
                                    return mix_kernel(ctx, buffers[buf], salt);
                                },
                                [&, buf, salt](WarpCtx& w) {
                                    return mix_kernel_warp(w, buffers[buf], salt);
                                }),
                            "mix", s);
                        break;
                    }
                    case 3: {  // async H2D of a fresh pattern
                        std::vector<std::uint32_t> src(kElems);
                        for (auto& v : src) v = static_cast<std::uint32_t>(rng.next());
                        // Staged at enqueue (or copied at once on the default
                        // stream): the source dies right here.
                        dev.memcpy_to_device_async(buffers[buf].addr(), src.data(),
                                                   kElems * sizeof(std::uint32_t), s);
                        break;
                    }
                    case 4: {  // async D2H into a kept-alive destination
                        downloads.emplace_back(kElems, 0u);
                        dev.memcpy_to_host_async(downloads.back().data(),
                                                 buffers[buf].addr(),
                                                 kElems * sizeof(std::uint32_t), s);
                        break;
                    }
                    case 5: {  // record a (possibly new) event
                        if (events.empty() || rng.below(2) == 0) {
                            events.push_back(dev.event_create());
                            recorded.push_back(false);
                        }
                        const auto e = rng.below(static_cast<std::uint32_t>(events.size()));
                        dev.event_record(events[e], s);
                        recorded[e] = true;
                        break;
                    }
                    case 6: {  // cross-stream wait on a previously seen event
                        if (!events.empty()) {
                            const auto e =
                                rng.below(static_cast<std::uint32_t>(events.size()));
                            dev.stream_wait_event(s, events[e]);
                        }
                        break;
                    }
                    case 7: {  // occasional mid-DAG synchronization
                        switch (rng.below(3)) {
                            case 0: dev.stream_synchronize(s); break;
                            case 1:
                                if (!events.empty() && recorded[0]) {
                                    dev.event_synchronize(events[0]);
                                }
                                break;
                            default: dev.synchronize(); break;
                        }
                        break;
                    }
                }
            } catch (const Error&) {
                ++faults_caught;  // injected transient: counted, not retried
            }
        }
        dev.synchronize();

        out << "seed=" << seed << " streams=" << n_streams << " ops=" << n_ops
            << " faults_caught=" << faults_caught << "\n";
        out << "launches=" << dev.launches() << " h2d=" << dev.bytes_to_device()
            << " d2h=" << dev.bytes_to_host() << "\n";
        out << "stats=" << describe_json(dev.last_launch(), dev.properties().cost)
            << "\n";
        out << "injected=" << faults::injections(faults::Site::Launch) << ","
            << faults::injections(faults::Site::MemcpyH2D) << ","
            << faults::injections(faults::Site::MemcpyD2H) << "\n";
        faults::disable();  // result downloads below must not fault

        for (unsigned i = 0; i < n_buffers; ++i) {
            std::vector<std::uint32_t> host(kElems);
            dev.download(std::span<std::uint32_t>(host), buffers[i]);
            out << "buf" << i << "=";
            for (std::uint32_t v : host) out << v << ",";
            out << "\n";
        }
        for (std::size_t i = 0; i < downloads.size(); ++i) {
            out << "dl" << i << "=";
            for (std::uint32_t v : downloads[i]) out << v << ",";
            out << "\n";
        }
        out << "memcheck=" << memcheck::report_json() << "\n";
        out << "timeline=" << mask_device_ordinals(timeline::report_json());

        if (with_trace) {
            // Everything except wall-clock timestamps. Each run constructs a
            // fresh Device, so the process-global ordinal in "devN..." track
            // names is masked before comparing.
            for (const auto& e : cupp::trace::events()) {
                std::string track = e.track;
                if (track.rfind("dev", 0) == 0) {
                    std::size_t i = 3;
                    while (i < track.size() &&
                           std::isdigit(static_cast<unsigned char>(track[i]))) {
                        track.erase(i, 1);
                    }
                    track.insert(3, "#");
                }
                out << static_cast<char>(e.phase) << "|" << track << "|" << e.name;
                for (const auto& a : e.args) out << "|" << a.key << "=" << a.json;
                out << "\n";
            }
        }
        for (EventId e : events) dev.event_destroy(e);
        for (StreamId s : streams) dev.stream_destroy(s);
    }

    faults::disable();
    faults::reset();
    memcheck::disable();
    memcheck::reset();
    timeline::reset();
    if (with_trace) {
        cupp::trace::disable();
        cupp::trace::clear();
        cupp::trace::metrics().reset();
    }
    RunResult r;
    r.digest = out.str();
    return r;
}

TEST(StreamDiff, FiftyRandomDagsAreBitIdenticalAcrossThreadCounts) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        // Trace comparison is heavyweight; sample it on every fifth seed.
        const bool with_trace = seed % 5 == 0;
        const RunResult serial = run_dag(seed, 1, with_trace);
        for (unsigned threads : {2u, 8u}) {
            const RunResult par = run_dag(seed, threads, with_trace);
            ASSERT_EQ(par.digest, serial.digest)
                << "seed " << seed << ", " << threads << " threads";
        }
        // The warp-vectorized engine against the serial per-thread oracle:
        // one coroutine per warp must leave every observable bit-identical,
        // at any worker count.
        for (unsigned threads : {1u, 2u, 8u}) {
            const RunResult warp =
                run_dag(seed, threads, with_trace, EngineMode::Warp);
            ASSERT_EQ(warp.digest, serial.digest)
                << "seed " << seed << ", " << threads << " threads, warp engine";
        }
    }
}

// The same DAG re-run under the same seed and thread count must also be
// identical to itself (no hidden global state leaks between runs).
TEST(StreamDiff, RunsAreReproducibleUnderOneSeed) {
    const RunResult a = run_dag(99, 2, true);
    const RunResult b = run_dag(99, 2, true);
    EXPECT_EQ(a.digest, b.digest);
}

// --- captured-vs-eager differential ----------------------------------------

/// One recorded non-sync op of the replay batch. H2D sources and D2H
/// destinations live in the harness (sources re-staged per eager enqueue,
/// destinations shared by both replays so final contents are comparable).
struct LoggedOp {
    enum class Kind { Launch, H2D, D2H, Record, Wait } kind;
    StreamId stream = 0;
    unsigned buf = 0;
    std::uint32_t salt = 0;     // Launch
    std::size_t payload = 0;    // H2D: source index; D2H: destination index
    std::size_t event = 0;      // Record/Wait: event index
};

/// Runs the seeded DAG eagerly (identical RNG consumption in both modes),
/// logging every successfully enqueued non-sync op, then replays the log
/// twice — either by plain re-enqueue (`captured == false`, the oracle) or
/// through capture -> instantiate -> graph_launch. Digested observables are
/// the time-independent set: final device memory, download contents,
/// launch/transfer totals, the launch history (kernel, grid), fault
/// counters and the memcheck report. Host-side *times* legitimately differ
/// — replay charges one launch overhead for the whole DAG, which is the
/// point of the graph path — so modelled clocks stay out of this digest
/// (the timeline parity gate for a fixed workload lives in
/// bench_graph_replay + cupp_report timeline --diff).
RunResult run_replay_dag(std::uint64_t seed, unsigned threads, EngineMode engine,
                         bool captured) {
    ThreadsGuard guard(threads);
    EngineGuard engine_guard(engine);
    memcheck::enable();
    memcheck::reset();

    std::ostringstream out;
    {
        Rng rng(seed);
        Device dev(tiny_properties());
        const LaunchConfig cfg{dim3{2}, dim3{32}};

        const unsigned n_streams = 1 + rng.below(4);
        std::vector<StreamId> streams;
        for (unsigned i = 0; i < n_streams; ++i) streams.push_back(dev.stream_create());

        const unsigned n_buffers = 2 + rng.below(3);
        std::vector<DevicePtr<std::uint32_t>> buffers;
        std::vector<std::vector<std::uint32_t>> downloads;
        for (unsigned i = 0; i < n_buffers; ++i) {
            buffers.push_back(dev.malloc_n<std::uint32_t>(kElems));
            std::vector<std::uint32_t> init(kElems);
            for (std::uint32_t j = 0; j < kElems; ++j) {
                init[j] = static_cast<std::uint32_t>(rng.next());
            }
            dev.upload(buffers.back(), std::span<const std::uint32_t>(init));
        }

        std::vector<faults::Rule> rules;
        for (faults::Site site :
             {faults::Site::Launch, faults::Site::MemcpyH2D, faults::Site::MemcpyD2H}) {
            faults::Rule r;
            r.site = site;
            r.code = site == faults::Site::Launch ? ErrorCode::LaunchFailure
                                                  : ErrorCode::TransferFailure;
            r.every = 5;
            rules.push_back(r);
        }
        faults::configure(rules);

        std::vector<EventId> events;
        std::vector<bool> recorded;
        unsigned faults_caught = 0;

        std::vector<LoggedOp> log;
        std::vector<std::vector<std::uint32_t>> h2d_sources;  // kept alive

        const unsigned n_ops = 12 + rng.below(20);
        for (unsigned i = 0; i < n_ops; ++i) {
            const StreamId s = streams[rng.below(n_streams)];
            const auto buf = rng.below(n_buffers);
            try {
                switch (rng.below(8)) {
                    case 0:
                    case 1:
                    case 2: {  // kernel launch (most common)
                        const auto salt = static_cast<std::uint32_t>(rng.next());
                        dev.launch_async(
                            cfg,
                            KernelSpec(
                                [&, buf, salt](ThreadCtx& ctx) {
                                    return mix_kernel(ctx, buffers[buf], salt);
                                },
                                [&, buf, salt](WarpCtx& w) {
                                    return mix_kernel_warp(w, buffers[buf], salt);
                                }),
                            "mix", s);
                        log.push_back({LoggedOp::Kind::Launch, s, buf, salt, 0, 0});
                        break;
                    }
                    case 3: {  // async H2D of a fresh pattern
                        std::vector<std::uint32_t> src(kElems);
                        for (auto& v : src) v = static_cast<std::uint32_t>(rng.next());
                        dev.memcpy_to_device_async(buffers[buf].addr(), src.data(),
                                                   kElems * sizeof(std::uint32_t), s);
                        // Enqueue succeeded: keep the pattern for the replays.
                        h2d_sources.push_back(std::move(src));
                        log.push_back({LoggedOp::Kind::H2D, s, buf, 0,
                                       h2d_sources.size() - 1, 0});
                        break;
                    }
                    case 4: {  // async D2H into a kept-alive destination
                        downloads.emplace_back(kElems, 0u);
                        dev.memcpy_to_host_async(downloads.back().data(),
                                                 buffers[buf].addr(),
                                                 kElems * sizeof(std::uint32_t), s);
                        log.push_back({LoggedOp::Kind::D2H, s, buf, 0, 0, 0});
                        break;
                    }
                    case 5: {  // record a (possibly new) event
                        if (events.empty() || rng.below(2) == 0) {
                            events.push_back(dev.event_create());
                            recorded.push_back(false);
                        }
                        const auto e = rng.below(static_cast<std::uint32_t>(events.size()));
                        dev.event_record(events[e], s);
                        recorded[e] = true;
                        log.push_back({LoggedOp::Kind::Record, s, 0, 0, 0, e});
                        break;
                    }
                    case 6: {  // cross-stream wait on a previously seen event
                        if (!events.empty()) {
                            const auto e =
                                rng.below(static_cast<std::uint32_t>(events.size()));
                            dev.stream_wait_event(s, events[e]);
                            log.push_back({LoggedOp::Kind::Wait, s, 0, 0, 0, e});
                        }
                        break;
                    }
                    case 7: {  // mid-DAG sync: executed eagerly, never logged
                        switch (rng.below(3)) {
                            case 0: dev.stream_synchronize(s); break;
                            case 1:
                                if (!events.empty() && recorded[0]) {
                                    dev.event_synchronize(events[0]);
                                }
                                break;
                            default: dev.synchronize(); break;
                        }
                        break;
                    }
                }
            } catch (const Error&) {
                ++faults_caught;
            }
        }
        dev.synchronize();
        faults::disable();  // the replay phase itself runs fault-free

        // Replay D2H ops land in buffers shared by both replays (a captured
        // op re-targets the same host pointer on every launch, so the eager
        // oracle re-enqueues into the same destination too).
        std::vector<std::vector<std::uint32_t>> replay_dst;
        for (auto& op : log) {
            if (op.kind == LoggedOp::Kind::D2H) {
                replay_dst.emplace_back(kElems, 0u);
                op.payload = replay_dst.size() - 1;
            }
        }

        const auto enqueue_log = [&] {
            for (const LoggedOp& op : log) {
                switch (op.kind) {
                    case LoggedOp::Kind::Launch: {
                        const auto buf = op.buf;
                        const auto salt = op.salt;
                        dev.launch_async(
                            cfg,
                            KernelSpec(
                                [&, buf, salt](ThreadCtx& ctx) {
                                    return mix_kernel(ctx, buffers[buf], salt);
                                },
                                [&, buf, salt](WarpCtx& w) {
                                    return mix_kernel_warp(w, buffers[buf], salt);
                                }),
                            "mix", op.stream);
                        break;
                    }
                    case LoggedOp::Kind::H2D:
                        dev.memcpy_to_device_async(buffers[op.buf].addr(),
                                                   h2d_sources[op.payload].data(),
                                                   kElems * sizeof(std::uint32_t),
                                                   op.stream);
                        break;
                    case LoggedOp::Kind::D2H:
                        dev.memcpy_to_host_async(replay_dst[op.payload].data(),
                                                 buffers[op.buf].addr(),
                                                 kElems * sizeof(std::uint32_t),
                                                 op.stream);
                        break;
                    case LoggedOp::Kind::Record:
                        dev.event_record(events[op.event], op.stream);
                        break;
                    case LoggedOp::Kind::Wait:
                        dev.stream_wait_event(op.stream, events[op.event]);
                        break;
                }
            }
        };

        if (captured) {
            // AllStreams: the logged DAG spans streams that need not be
            // event-connected to the origin.
            dev.stream_begin_capture(streams[0], CaptureMode::AllStreams);
            enqueue_log();
            Graph g = dev.stream_end_capture(streams[0]);
            GraphExec exec = dev.graph_instantiate(g);
            dev.graph_launch(exec);
            dev.synchronize();
            dev.graph_launch(exec);
            dev.synchronize();
        } else {
            enqueue_log();
            dev.synchronize();
            enqueue_log();
            dev.synchronize();
        }

        out << "seed=" << seed << " streams=" << n_streams << " ops=" << n_ops
            << " logged=" << log.size() << " faults_caught=" << faults_caught
            << "\n";
        out << "launches=" << dev.launches() << " h2d=" << dev.bytes_to_device()
            << " d2h=" << dev.bytes_to_host() << "\n";
        out << "injected=" << faults::injections(faults::Site::Launch) << ","
            << faults::injections(faults::Site::MemcpyH2D) << ","
            << faults::injections(faults::Site::MemcpyD2H) << "\n";
        for (const LaunchRecord& rec : dev.recent_launches()) {
            out << "launch=" << rec.kernel_name << "/" << rec.stats.blocks << "/"
                << rec.stats.threads << "\n";
        }
        for (unsigned i = 0; i < n_buffers; ++i) {
            std::vector<std::uint32_t> host(kElems);
            dev.download(std::span<std::uint32_t>(host), buffers[i]);
            out << "buf" << i << "=";
            for (std::uint32_t v : host) out << v << ",";
            out << "\n";
        }
        for (std::size_t i = 0; i < downloads.size(); ++i) {
            out << "dl" << i << "=";
            for (std::uint32_t v : downloads[i]) out << v << ",";
            out << "\n";
        }
        for (std::size_t i = 0; i < replay_dst.size(); ++i) {
            out << "replay_dl" << i << "=";
            for (std::uint32_t v : replay_dst[i]) out << v << ",";
            out << "\n";
        }
        out << "memcheck=" << memcheck::report_json() << "\n";

        for (EventId e : events) dev.event_destroy(e);
        for (StreamId s : streams) dev.stream_destroy(s);
    }

    faults::disable();
    faults::reset();
    memcheck::disable();
    memcheck::reset();
    RunResult r;
    r.digest = out.str();
    return r;
}

// Every seeded DAG, captured and replayed twice, must leave exactly the
// observables of the eagerly re-enqueued oracle — at every engine thread
// count and under both execution engines. This is the differential proof
// that replay's skipped per-op work (argument re-validation, per-launch
// overhead charges) was pure overhead, never semantics.
TEST(StreamDiff, CapturedReplayIsBitIdenticalToEagerReEnqueue) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const RunResult eager = run_replay_dag(seed, 1, EngineMode::Thread, false);
        for (unsigned threads : {1u, 2u, 8u}) {
            for (EngineMode engine : {EngineMode::Thread, EngineMode::Warp}) {
                const RunResult replayed = run_replay_dag(seed, threads, engine, true);
                ASSERT_EQ(replayed.digest, eager.digest)
                    << "seed " << seed << ", " << threads << " threads, "
                    << (engine == EngineMode::Warp ? "warp" : "thread") << " engine";
            }
        }
    }
}

}  // namespace
