// Workload kernel_calls: launch-bound cupp::kernel calls on grids of one or
// two blocks, where the framework and the cusim device/stream/graph API do
// most of the work rather than the block engine.
//
// One op is one of five steps, cycled in a fixed order:
//   lazy        call with every argument already current on the device;
//   host_write  one host element write, then a call (the call uploads);
//   host_read   a call, then a const host read (the read downloads);
//   stream      prefetch + stream-bound call + stream synchronize;
//   graph       replay of a graph captured at set-up + its stream sync.
// Every result is checked exactly against host-computed values.
#include <memory>

#include "common.hpp"
#include "cupp/cupp.hpp"
#include "cupp/graph.hpp"
#include "cusim/registry.hpp"

namespace perfbench {

namespace {

using U32 = std::uint32_t;
using Vec = cupp::vector<U32>;
using AxpyK = cusim::KernelTask (*)(cusim::ThreadCtx&, cupp::deviceT::vector<U32>&,
                                    const cupp::deviceT::vector<U32>&, U32);

/// y = a * x + y in wrapping 32-bit integer arithmetic, so the host can
/// check every element exactly.
cusim::KernelTask axpy(cusim::ThreadCtx& ctx, cupp::deviceT::vector<U32>& y,
                       const cupp::deviceT::vector<U32>& x, U32 a) {
    const std::uint64_t gid = ctx.global_id();
    if (gid < y.size()) {
        ctx.charge(cusim::Op::FMad);
        y.write(ctx, gid, a * x.read(ctx, gid) + y.read(ctx, gid));
    }
    co_return;
}

constexpr int kSetupTrials = 5;
constexpr U32 kBlock = 32;
constexpr U32 kN = 2 * kBlock;     ///< the four call modes: a two-block grid
constexpr U32 kGraphN = kBlock;    ///< the captured graph: a one-block grid
constexpr std::size_t kTable = 64; ///< seeded per-op inputs, cycled
constexpr std::size_t kReferenceOps = 10;
constexpr std::size_t kOpSampleEvery = 8;  ///< latency samples: every 8th op (all modes)
constexpr std::size_t kTraceWindow = 500;

enum Mode { Lazy, HostWrite, HostRead, Stream, Graph, kModes };
constexpr const char* kOpSpan[kModes] = {"op.lazy", "op.host_write", "op.host_read",
                                         "op.stream", "op.graph"};
constexpr const char* kKernelName[kModes] = {"calls.lazy", "calls.host_write",
                                             "calls.host_read", "calls.stream",
                                             "calls.graph"};

struct Inputs {
    std::vector<U32> x, y, gx, gy;
    std::vector<U32> a, write_index, write_value;
    U32 graph_a = 0;

    explicit Inputs(std::uint64_t seed) {
        std::uint64_t state = seed;
        auto next = [&state] {
            std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            return static_cast<U32>((z ^ (z >> 31)) >> 32);
        };
        for (U32 i = 0; i < kN; ++i) x.push_back(next());
        for (U32 i = 0; i < kN; ++i) y.push_back(next());
        for (U32 i = 0; i < kGraphN; ++i) gx.push_back(next());
        for (U32 i = 0; i < kGraphN; ++i) gy.push_back(next());
        for (std::size_t i = 0; i < kTable; ++i) {
            a.push_back(next() | 1u);
            write_index.push_back(next() % kN);
            write_value.push_back(next());
        }
        graph_a = next() | 1u;
    }
};

/// Everything the measured loop uses: vectors resident on the device,
/// their handles cached, one kernel functor per mode (so cusim::prof
/// attributes interpreter time per mode), two streams and the graph.
struct Fixture {
    cupp::device d;
    Vec x, y, gx, gy;
    cupp::kernel<AxpyK> k[kModes];
    cupp::stream s, gs;
    cupp::graph_exec replay;

    explicit Fixture(const Inputs& in)
        : x(in.x.begin(), in.x.end()),
          y(in.y.begin(), in.y.end()),
          gx(in.gx.begin(), in.gx.end()),
          gy(in.gy.begin(), in.gy.end()),
          k{cupp::kernel<AxpyK>(axpy, cusim::dim3{2}, cusim::dim3{kBlock}),
            cupp::kernel<AxpyK>(axpy, cusim::dim3{2}, cusim::dim3{kBlock}),
            cupp::kernel<AxpyK>(axpy, cusim::dim3{2}, cusim::dim3{kBlock}),
            cupp::kernel<AxpyK>(axpy, cusim::dim3{2}, cusim::dim3{kBlock}),
            cupp::kernel<AxpyK>(axpy, cusim::dim3{1}, cusim::dim3{kBlock})},
          s(d),
          gs(d) {
        for (int m = 0; m < kModes; ++m) k[m].set_name(kKernelName[m]);
        (void)x.get_device_reference(d);
        (void)y.get_device_reference(d);
        // A capture must not synchronize: make the graph's inputs resident
        // and their handles cached first.
        gx.prefetch_to_device(d, gs);
        gy.prefetch_to_device(d, gs);
        gs.synchronize();
        (void)gx.get_device_reference(d);
        (void)gy.get_device_reference(d);
        const cupp::graph g =
            cupp::graph::capture(gs, [&] { k[Graph](d, gs, gy, gx, in.graph_a); });
        replay = g.instantiate();
    }
};

void axpy_host(std::vector<U32>& y, const std::vector<U32>& x, U32 a) {
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = a * x[i] + y[i];
}

}  // namespace

Result run_kernel_calls(const Options& opt) {
    Result r;
    const Inputs in(opt.seed);

    // --- set-up: device creation, then vectors, kernels, streams, graph ---
    const int trials = opt.record ? 1 : kSetupTrials;
    const double device_s = time_device_creation(trials);
    (void)cusim::Registry::instance().device(0);
    std::unique_ptr<Fixture> f;
    const double open_s = time_trials(
        trials, [&] { f.reset(); }, [&] { f = std::make_unique<Fixture>(in); });
    cusim::Device& sim = f->d.sim();

    // --- measurement --------------------------------------------------------
    Recorders rec;
    Spans& sp = rec.spans;
    std::vector<U32> xh = in.x, yh = in.y, gxh = in.gx, gyh = in.gy;
    std::vector<double> untraced_ns, traced_ns;
    SimCounts ref_sim;
    // The modelled clock restarts here, so the pinned prefix does not depend
    // on how many set-up trials ran before it.
    sim.reset_clock();
    double ref_model_s = 0.0;
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
    std::size_t ops = 0, traced_ops = 0;
    std::uint64_t checks = 0;
    SpeedTracker speed;
    Timings timings;
    speed.maybe_sample(/*force=*/true);
    for (;;) {
        const bool in_reference = ops < kReferenceOps;
        if (!in_reference && (opt.record || now_ns() >= deadline)) break;
        const bool traced = opt.trace && (ops / kTraceWindow) % 2 == 1;
        if (traced && ops % kTraceWindow == 0) rec.begin_window();
        const std::uint64_t launches_before = sim.launches();
        const auto mode = static_cast<Mode>(ops % kModes);
        const U32 a = in.a[ops % kTable];
        const U32 wi = in.write_index[ops % kTable];
        const U32 wv = in.write_value[ops % kTable];
        const U32* read_back = nullptr;
        speed.maybe_sample();
        const double factor = speed.factor();

        const std::int64_t t0 = now_ns();
        {
            Span op(sp, kOpSpan[mode]);
            switch (mode) {
                case Lazy: {
                    Span c(sp, "cupp.call");
                    f->k[Lazy](f->d, f->y, f->x, a);
                    break;
                }
                case HostWrite: {
                    {
                        Span w(sp, "cupp.vector.host_write");
                        f->x[wi] = wv;
                    }
                    Span c(sp, "cupp.call");
                    f->k[HostWrite](f->d, f->y, f->x, a);
                    break;
                }
                case HostRead: {
                    {
                        Span c(sp, "cupp.call");
                        f->k[HostRead](f->d, f->y, f->x, a);
                    }
                    Span rd(sp, "cupp.vector.host_read");
                    const Vec& cy = f->y;
                    read_back = &cy[0];
                    break;
                }
                case Stream: {
                    {
                        Span p(sp, "cupp.vector.prefetch");
                        f->x.prefetch_to_device(f->d, f->s);
                        f->y.prefetch_to_device(f->d, f->s);
                    }
                    {
                        Span c(sp, "cupp.call");
                        f->k[Stream](f->d, f->s, f->y, f->x, a);
                    }
                    Span sy(sp, "cusim.stream.sync");
                    f->s.synchronize();
                    break;
                }
                case Graph: {
                    {
                        Span l(sp, "cusim.graph.launch");
                        f->replay.launch();
                    }
                    Span sy(sp, "cusim.graph.sync");
                    f->gs.synchronize();
                    break;
                }
                case kModes:
                    break;
            }
        }
        const auto ns = static_cast<double>(now_ns() - t0);

        ++ops;
        if (traced) ++traced_ops;
        if (traced && ops % kTraceWindow == 0) rec.end_window();
        if (opt.trace && ops % kOpSampleEvery == 0) (traced ? traced_ns : untraced_ns).push_back(ns);
        if (!traced) {
            if (ops % kOpSampleEvery == 0) timings.add_op(ns, factor);
            timings.add_time(1.0, ns, factor);
        }

        // The host mirror of every op, and the exact check of each read.
        if (mode == HostWrite) xh[wi] = wv;
        if (mode == Graph) {
            axpy_host(gyh, gxh, in.graph_a);
        } else {
            axpy_host(yh, xh, a);
        }
        if (read_back != nullptr) {
            ++checks;
            for (U32 i = 0; i < kN; ++i) {
                if (read_back[i] != yh[i]) {
                    r.fail("host_read op " + std::to_string(ops) + ": element " +
                           std::to_string(i) + " differs from the host result");
                    break;
                }
            }
        }
        if (in_reference) {
            ref_sim.add_since(sim, launches_before);
            if (ops == kReferenceOps) ref_model_s = sim.host_time();
        }
    }
    if (rec.on()) rec.end_window();
    r.attempted = ops;

    // --- final checks: y through the vector, the graph's output raw ----------
    {
        const Vec& cy = f->y;
        for (U32 i = 0; i < kN; ++i) {
            if (cy[i] != yh[i]) {
                r.fail("final y element " + std::to_string(i) + " differs from the host result");
                break;
            }
        }
        // Replays bypass the vector's bookkeeping, so read the buffer itself.
        std::vector<U32> g(kGraphN);
        sim.copy_to_host(g.data(), f->gy.transform(f->d).data.addr(), kGraphN * sizeof(U32));
        if (g != gyh) r.fail("graph replay output differs from the host result");
    }
    r.counts["host_read_checks"] = static_cast<double>(checks);
    ref_sim.to_reference(r);
    r.reference["model.host_s"] = ref_model_s;

    if (!opt.trace) {
        report_end_to_end(r, timings, speed, device_s + open_s);
        return r;
    }

    // --- per-layer attribution from the traced windows ---------------------
    const auto n = static_cast<double>(traced_ops);
    double wall_s = 0.0;
    for (const char* name : kOpSpan) wall_s += sp.total_ms(name) * 1e-3;
    auto engine_of = [](std::initializer_list<Mode> modes) {
        return engine_totals([modes](const std::string& name) {
                   for (const Mode m : modes) {
                       if (name == kKernelName[m]) return true;
                   }
                   return false;
               })
            .host_s;
    };
    const EngineTotals engine = engine_totals();
    report_common_layers(r, rec.spans, n, wall_s, engine, device_s, open_s, traced_ns,
                         untraced_ns, ref_sim);
    // Synchronous calls run their grid inside the call; the stream and graph
    // grids run at the synchronize that drains them.
    const double call_self =
        sp.total_ms("cupp.call") * 1e-3 - engine_of({Lazy, HostWrite, HostRead});
    const double vector_self = (sp.total_ms("cupp.vector.host_write") +
                                sp.total_ms("cupp.vector.host_read") +
                                sp.total_ms("cupp.vector.prefetch")) *
                               1e-3;
    const double stream_self = sp.total_ms("cusim.stream.sync") * 1e-3 - engine_of({Stream});
    const double graph_self =
        (sp.total_ms("cusim.graph.launch") + sp.total_ms("cusim.graph.sync")) * 1e-3 -
        engine_of({Graph});
    const auto median_us = [&](const char* span) { return median(sp.agg(span).durations_ns) * 1e-3; };

    r.metric("cupp.call.self_us",
             call_self / static_cast<double>(std::max<std::uint64_t>(1, sp.count("cupp.call"))) *
                 1e6,
             "us");
    r.metric("cupp.call_us.lazy", median_us(kOpSpan[Lazy]), "us");
    r.metric("cupp.call_us.host_write", median_us(kOpSpan[HostWrite]), "us");
    r.metric("cupp.call_us.host_read", median_us(kOpSpan[HostRead]), "us");
    r.metric("cupp.call_us.stream", median_us(kOpSpan[Stream]), "us");
    r.metric("cupp.vector.self_us", vector_self / n * 1e6, "us");
    r.metric("cusim.stream.sync_us", median_us("cusim.stream.sync"), "us");
    r.metric("cusim.stream.self_us", stream_self / n * 1e6, "us");
    r.metric("cusim.graph.replay_us_per_node",
             median_us(kOpSpan[Graph]) / static_cast<double>(f->replay.node_count()), "us");
    r.metric("cusim.graph.self_us", graph_self / n * 1e6, "us");
    r.metric("layers.self_sum_frac",
             self_sum_frac({engine.host_s, call_self, vector_self, stream_self, graph_self},
                           wall_s),
             "ratio");
    return r;
}

}  // namespace perfbench
