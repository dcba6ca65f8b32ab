#include "common.hpp"

#include <sys/resource.h>

#include <memory>
#include <unordered_map>
#include <stdexcept>

#include "cupp/trace.hpp"
#include "cusim/device.hpp"
#include "cusim/device_properties.hpp"
#include "cusim/prof.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KB
}

// --- spans ----------------------------------------------------------------------

std::uint16_t Spans::intern(const char* name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint16_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(name, id);
    aggs_.emplace_back();
    return id;
}

int Spans::open(const char* name) {
    if (!enabled_) return -1;
    const std::uint16_t id = intern(name);
    std::int32_t raw_index = -1;
    if (raw_.size() < kMaxRawSpans) {
        raw_index = static_cast<std::int32_t>(raw_.size());
        Raw r;
        r.name = id;
        r.parent = stack_.empty() ? -1 : stack_.back().raw_index;
        raw_.push_back(r);
    }
    stack_.push_back(Open{id, raw_index, now_ns(), 0});
    return static_cast<int>(stack_.size());
}

void Spans::close(int token) {
    if (token < 0) return;
    if (static_cast<std::size_t>(token) != stack_.size()) {
        throw std::logic_error("perfbench: spans closed out of order");
    }
    const std::int64_t t1 = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t1 - o.t0;
    Aggregate& a = aggs_[o.name];
    ++a.count;
    a.total_ns += static_cast<double>(dur);
    a.child_ns += static_cast<double>(o.child_ns);
    a.durations_ns.push_back(static_cast<double>(dur));
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (o.raw_index >= 0) {
        raw_[static_cast<std::size_t>(o.raw_index)].t0 = o.t0;
        raw_[static_cast<std::size_t>(o.raw_index)].t1 = t1;
    }
}

const Spans::Aggregate& Spans::agg(const std::string& name) const {
    static const Aggregate empty;
    const auto it = ids_.find(name);
    return it == ids_.end() ? empty : aggs_[it->second];
}

std::string Spans::to_json() const {
    std::string out = "{\"aggregates\": {";
    for (std::size_t i = 0; i < names_.size(); ++i) {
        const Aggregate& a = aggs_[i];
        out += cupp::trace::format(
            "%s%s: {\"count\": %llu, \"total_ms\": %.6f, \"self_ms\": %.6f, "
            "\"p50_us\": %.3f}",
            i == 0 ? "" : ", ", cupp::trace::json_quote(names_[i]).c_str(),
            static_cast<unsigned long long>(a.count), a.total_ns * 1e-6,
            (a.total_ns - a.child_ns) * 1e-6, median(a.durations_ns) * 1e-3);
    }
    out += "}, \"raw\": [";
    const std::int64_t base = raw_.empty() ? 0 : raw_.front().t0;
    for (std::size_t i = 0; i < raw_.size(); ++i) {
        const Raw& r = raw_[i];
        out += cupp::trace::format("%s[%s, %d, %.3f, %.3f]", i == 0 ? "" : ", ",
                                   cupp::trace::json_quote(names_[r.name]).c_str(),
                                   r.parent, static_cast<double>(r.t0 - base) * 1e-3,
                                   static_cast<double>(r.t1 - r.t0) * 1e-3);
    }
    out += "]}";
    return out;
}

// --- recorders ------------------------------------------------------------------

void Recorders::begin_window() {
    cusim::prof::enable();
    cupp::trace::enable();
    spans.set_enabled(true);
}

void Recorders::end_window() {
    spans.set_enabled(false);
    cupp::trace::disable();
    cupp::trace::clear();
    cusim::prof::disable();
}

EngineTotals engine_totals(const std::function<bool(const std::string&)>& keep) {
    EngineTotals t;
    for (const cusim::prof::KernelActivity& k : cusim::prof::kernel_activities()) {
        if (keep && !keep(k.name)) continue;
        t.host_s += k.host_seconds;
        cusim::LaunchStats s = k.totals;
        s.device_seconds = k.device_seconds;
        t.sim.add(s, k.launches);
    }
    return t;
}

std::pair<double, std::uint64_t> call_wall() {
    const auto h = cupp::trace::metrics().histogram("cusim.prof.call_host_us");
    if (!h) return {0.0, 0};
    return {h->mean * static_cast<double>(h->count) * 1e-6, h->count};
}

std::uint64_t counter(const char* name) { return cupp::trace::metrics().counter(name); }

void SimCounts::add(const cusim::LaunchStats& x, std::uint64_t n) {
    launches += n;
    s.blocks += x.blocks;
    s.threads += x.threads;
    s.compute_cycles += x.compute_cycles;
    s.bytes_read += x.bytes_read;
    s.bytes_written += x.bytes_written;
    s.syncthreads_count += x.syncthreads_count;
    s.divergent_events += x.divergent_events;
    s.device_seconds += x.device_seconds;
}

void SimCounts::add_since(const cusim::Device& dev, std::uint64_t before) {
    const std::uint64_t n = dev.launches() - before;
    if (n == 0) return;
    if (n > cusim::Device::kLaunchHistoryCapacity) {
        throw std::logic_error("perfbench: more launches than the device history keeps");
    }
    const std::vector<cusim::LaunchRecord> recent = dev.recent_launches();
    for (std::size_t i = recent.size() - n; i < recent.size(); ++i) add(recent[i].stats);
}

std::map<std::string, double> SimCounts::values() const {
    return {
        {"sim.launches", static_cast<double>(launches)},
        {"sim.blocks", static_cast<double>(s.blocks)},
        {"sim.threads", static_cast<double>(s.threads)},
        {"sim.syncthreads", static_cast<double>(s.syncthreads_count)},
        {"sim.compute_cycles", static_cast<double>(s.compute_cycles)},
        {"sim.bytes_read", static_cast<double>(s.bytes_read)},
        {"sim.bytes_written", static_cast<double>(s.bytes_written)},
        {"sim.divergent_events", static_cast<double>(s.divergent_events)},
        {"sim.device_s", s.device_seconds},
    };
}

void SimCounts::to_reference(Result& r) const {
    for (const auto& [key, value] : values()) r.reference[key] = value;
}

void SimCounts::to_metrics(Result& r) const {
    r.metric("sim.launches", static_cast<double>(launches), "count");
    r.metric("sim.blocks", static_cast<double>(s.blocks), "count");
    r.metric("sim.threads", static_cast<double>(s.threads), "count");
    r.metric("sim.syncthreads", static_cast<double>(s.syncthreads_count), "count");
    r.metric("sim.compute_cycles", static_cast<double>(s.compute_cycles), "count");
    r.metric("sim.bytes_read", static_cast<double>(s.bytes_read), "B");
    r.metric("sim.bytes_written", static_cast<double>(s.bytes_written), "B");
    r.metric("sim.device_s", s.device_seconds, "s");
}

// --- results --------------------------------------------------------------------

namespace {

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    return cupp::trace::format("%.17g", v);
}

/// `"key": {...}` for a string-keyed map, values rendered by `render`.
template <typename Map, typename Render>
std::string json_object(const char* key, const Map& map, Render render) {
    std::string out = cupp::trace::format("\"%s\": {", key);
    const char* sep = "";
    for (const auto& [name, value] : map) {
        out += sep + cupp::trace::json_quote(name) + ": " + render(value);
        sep = ", ";
    }
    return out + "}";
}

}  // namespace

std::string Result::to_json() const {
    std::string out = cupp::trace::format(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
        failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    out += json_object("metrics", metrics, [](const std::pair<double, std::string>& vu) {
        return "{\"value\": " + num(vu.first) + ", \"unit\": " +
               cupp::trace::json_quote(vu.second) + "}";
    });
    out += ", " + json_object("reference", reference, num);
    out += ", " + json_object("counts", counts, num);
    out += ", " + json_object("info", info, [](const std::string& v) {
        return cupp::trace::json_quote(v);
    });
    out += ", \"failures\": [";
    const char* sep = "";
    for (const std::string& f : failures) {
        out += sep + cupp::trace::json_quote(f);
        sep = ", ";
    }
    return out + "]}";
}

// --- shared measurement helpers -----------------------------------------------

double time_trials(int trials, const std::function<void()>& teardown,
                   const std::function<void()>& setup) {
    std::vector<double> s;
    for (int i = 0; i < trials; ++i) {
        teardown();
        const std::int64_t t0 = now_ns();
        setup();
        s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    return median(s);
}

double time_device_creation(int trials) {
    std::vector<double> s;
    for (int i = 0; i < trials; ++i) {
        const std::int64_t t0 = now_ns();
        auto dev = std::make_unique<cusim::Device>(cusim::g80_properties());
        s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        dev.reset();  // release the arena before the next trial
    }
    return median(s);
}

namespace {

volatile std::uint64_t g_calibration_sink = 0;

struct Shape {
    virtual ~Shape() = default;
    [[nodiscard]] virtual std::uint64_t f(std::uint64_t x) const = 0;
};
struct Affine final : Shape {
    [[nodiscard]] std::uint64_t f(std::uint64_t x) const override { return x * 3 + 1; }
};
struct Shift final : Shape {
    [[nodiscard]] std::uint64_t f(std::uint64_t x) const override { return x ^ (x >> 3); }
};

}  // namespace

void SpeedTracker::maybe_sample(bool force) {
    const std::int64_t t = now_ns();
    if (!force && !samples_.empty() && t - last_ns_ < kPeriodNs) return;
    static const Affine affine;
    static const Shift shift;
    const Shape* shapes[2] = {&affine, &shift};
    // Two passes, keeping the faster: the first may still be paying for
    // whatever the workload left behind (cold caches, freed memory).
    double best = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        std::unordered_map<std::string, std::uint64_t> map;
        std::uint64_t acc = 0;
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < 40000; ++i) {
            const std::string key = "launch kernel." + std::to_string(i % 1531);
            const std::function<std::uint64_t(std::uint64_t)> fn = [&](std::uint64_t x) {
                return shapes[x % 2]->f(x);
            };
            std::uint64_t& slot = map[key];
            slot += fn(static_cast<std::uint64_t>(i));
            const std::vector<std::uint32_t> small(static_cast<std::size_t>(4 + i % 13), 1u);
            acc += slot + small.size();
        }
        const auto ns = static_cast<double>(now_ns() - t0);
        g_calibration_sink = acc;
        best = pass == 0 ? ns : std::min(best, ns);
    }
    last_ns_ = now_ns();
    samples_.push_back(best);
    const auto k = static_cast<std::ptrdiff_t>(std::min<std::size_t>(3, samples_.size()));
    factor_ = kNominalCalibrationNs / median(std::vector<double>(samples_.end() - k, samples_.end()));
}

void report_end_to_end(Result& r, const Timings& t, const SpeedTracker& speed, double setup_s) {
    const std::vector<double> op(t.op_ns.begin(), t.op_ns.end());
    const std::vector<double> op_raw(t.op_ns_raw.begin(), t.op_ns_raw.end());
    r.metric("ops_per_s", t.ops / (t.ns * 1e-9), "1/s");
    r.metric("op_ms.p50", quantile(op, 0.5) * 1e-6, "ms");
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.counts["op_samples"] = static_cast<double>(op.size());
    r.counts["ops_timed"] = t.ops;
    // The tail is reported in the record only: on a shared host it is set
    // by other tenants' bursts, not by the program.
    if (percentile_supported(op.size(), 0.9)) r.counts["op_ms.p90"] = quantile(op, 0.9) * 1e-6;
    r.counts["raw.ops_per_s"] = t.ops / (t.ns_raw * 1e-9);
    r.counts["raw.op_ms.p50"] = quantile(op_raw, 0.5) * 1e-6;
    r.counts["calibration_ms.p50"] = median(speed.samples_ns()) * 1e-6;
    r.counts["calibration_samples"] = static_cast<double>(speed.samples_ns().size());
}

double self_sum_frac(std::initializer_list<double> self_s, double wall_s) {
    double total = 0.0;
    for (const double s : self_s) total += std::max(0.0, s);
    return wall_s > 0.0 ? total / wall_s : 0.0;
}

namespace {
void zero_per_layer(Result& r) {
    static const std::pair<const char*, const char*> kPerLayer[] = {
        {"cusim.engine.self_ms", "ms"},
        {"cusim.engine.ns_per_thread", "ns"},
        {"cusim.engine.share", "ratio"},
        {"cupp.call.self_us", "us"},
        {"cupp.call_us.lazy", "us"},
        {"cupp.call_us.host_write", "us"},
        {"cupp.call_us.host_read", "us"},
        {"cupp.call_us.stream", "us"},
        {"cupp.vector.self_us", "us"},
        {"cupp.vector.lazy_avoided_ratio", "ratio"},
        {"cupp.vector.uploads", "count"},
        {"cupp.vector.downloads", "count"},
        {"cupp.vector.uploads_avoided", "count"},
        {"cupp.vector.downloads_avoided", "count"},
        {"cusim.xfer.bytes_h2d", "B"},
        {"cusim.xfer.bytes_d2h", "B"},
        {"cusim.xfer.count", "count"},
        {"cusim.stream.sync_us", "us"},
        {"cusim.stream.self_us", "us"},
        {"cusim.graph.replay_us_per_node", "us"},
        {"cusim.graph.self_us", "us"},
        {"gpusteer.self_ms", "ms"},
        {"steer.cpu_step_ms.p50", "ms"},
        {"sim_over_native", "ratio"},
        {"sim_over_native.step_ms", "ms"},
        {"serve.handler_ms.p50", "ms"},
        {"serve.handler_ms.p90", "ms"},
        {"serve.self_ms", "ms"},
        {"serve.attempts", "count"},
        {"serve.retried", "count"},
        {"serve.breaker_trips", "count"},
        {"serve.device_resets", "count"},
        {"faults.injected", "count"},
        {"cusim.api.malloc_per_request", "count"},
        {"setup.device_ms", "ms"},
        {"setup.open_ms", "ms"},
        {"recorders.overhead_frac", "ratio"},
        {"recorders.peak_rss_mb", "MB"},
        {"layers.self_sum_frac", "ratio"},
        {"sim.launches", "count"},
        {"sim.blocks", "count"},
        {"sim.threads", "count"},
        {"sim.syncthreads", "count"},
        {"sim.compute_cycles", "count"},
        {"sim.bytes_read", "B"},
        {"sim.bytes_written", "B"},
        {"sim.device_s", "s"},
    };
    for (const auto& [name, unit] : kPerLayer) r.metric(name, 0.0, unit);
}
}  // namespace

void report_common_layers(Result& r, const Spans& spans, double ops, double wall_s,
                          const EngineTotals& engine,
                          double device_s, double open_s, const std::vector<double>& traced_ns,
                          const std::vector<double>& untraced_ns, const SimCounts& pinned) {
    zero_per_layer(r);
    r.spans_json = spans.to_json();
    const double threads = static_cast<double>(std::max<std::uint64_t>(1, engine.sim.s.threads));
    r.metric("cusim.engine.self_ms", engine.host_s / ops * 1e3, "ms");
    r.metric("cusim.engine.ns_per_thread", engine.host_s * 1e9 / threads, "ns");
    r.metric("cusim.engine.share", engine.host_s / wall_s, "ratio");

    const auto h2d = cusim::prof::transfer_totals(cusim::CopyKind::HostToDevice);
    const auto d2h = cusim::prof::transfer_totals(cusim::CopyKind::DeviceToHost);
    r.metric("cusim.xfer.bytes_h2d", static_cast<double>(h2d.bytes) / ops, "B");
    r.metric("cusim.xfer.bytes_d2h", static_cast<double>(d2h.bytes) / ops, "B");
    r.metric("cusim.xfer.count", static_cast<double>(h2d.count + d2h.count) / ops, "count");

    const auto up = static_cast<double>(counter("cupp.vector.lazy.upload"));
    const auto down = static_cast<double>(counter("cupp.vector.lazy.download"));
    const auto up_av = static_cast<double>(counter("cupp.vector.lazy.upload_avoided"));
    const auto down_av = static_cast<double>(counter("cupp.vector.lazy.download_avoided"));
    r.metric("cupp.vector.uploads", up / ops, "count");
    r.metric("cupp.vector.downloads", down / ops, "count");
    r.metric("cupp.vector.uploads_avoided", up_av / ops, "count");
    r.metric("cupp.vector.downloads_avoided", down_av / ops, "count");
    const double all = up + down + up_av + down_av;
    r.metric("cupp.vector.lazy_avoided_ratio", all > 0.0 ? (up_av + down_av) / all : 0.0,
             "ratio");

    r.metric("setup.device_ms", device_s * 1e3, "ms");
    r.metric("setup.open_ms", open_s * 1e3, "ms");
    r.metric("recorders.overhead_frac", median(traced_ns) / median(untraced_ns) - 1.0, "ratio");
    r.metric("recorders.peak_rss_mb", peak_rss_mb(), "MB");
    pinned.to_metrics(r);
    r.counts["traced_ops"] = ops;
    r.counts["untraced_ops"] = static_cast<double>(untraced_ns.size());
}

}  // namespace perfbench
