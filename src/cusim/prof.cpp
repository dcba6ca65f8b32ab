#include "cusim/prof.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <utility>

#include "cupp/trace.hpp"

namespace cusim::prof {

namespace detail {
std::atomic<bool> g_armed{false};
std::atomic<bool> g_collecting{false};
std::atomic<bool> g_correlation_tracking{false};
std::atomic<std::uint64_t> g_next_correlation{0};
}  // namespace detail

void set_correlation_tracking(bool on) {
    detail::g_correlation_tracking.store(on, std::memory_order_relaxed);
}

void reset_correlation_ids() {
    detail::g_next_correlation.store(0, std::memory_order_relaxed);
}

namespace {

using cupp::trace::format;
using cupp::trace::json_quote;

struct Subscriber {
    std::uint64_t id = 0;
    Callback cb;
};

/// Process-wide profiler state. Intentionally leaked (like the trace,
/// memcheck and faults registries) so the atexit report still sees it.
class State {
public:
    static State& instance() {
        static State* s = new State();
        return *s;
    }

    // --- subscriptions ---

    std::uint64_t subscribe(Callback cb) {
        std::lock_guard<std::mutex> lock(mu_);
        const std::uint64_t id = ++next_sub_id_;
        subs_.push_back(Subscriber{id, std::move(cb)});
        recompute_gates_locked();
        return id;
    }

    bool unsubscribe(std::uint64_t id) {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < subs_.size(); ++i) {
            if (subs_[i].id == id) {
                subs_.erase(subs_.begin() + static_cast<std::ptrdiff_t>(i));
                recompute_gates_locked();
                return true;
            }
        }
        return false;
    }

    void dispatch(const ApiRecord& rec) {
        // Copy the callbacks out so a callback throwing or a concurrent
        // runtime call never runs user code under the registry lock.
        std::vector<Callback> cbs;
        {
            std::lock_guard<std::mutex> lock(mu_);
            cbs.reserve(subs_.size());
            for (const Subscriber& s : subs_) cbs.push_back(s.cb);
        }
        for (const Callback& cb : cbs) cb(rec);
    }

    void note_api_enter(Api api) {
        api_calls_[static_cast<std::size_t>(api)].fetch_add(1,
                                                            std::memory_order_relaxed);
    }

    std::uint64_t api_calls(Api api) const {
        return api_calls_[static_cast<std::size_t>(api)].load(
            std::memory_order_relaxed);
    }

    // --- sessions ---

    void enable(std::string path) {
        std::lock_guard<std::mutex> lock(mu_);
        collector_enabled_ = true;
        in_session_ = true;
        ++session_starts_;
        if (!path.empty()) report_path_ = std::move(path);
        recompute_gates_locked();
    }

    void disable() {
        std::lock_guard<std::mutex> lock(mu_);
        if (collector_enabled_ && in_session_) ++session_stops_;
        collector_enabled_ = false;
        in_session_ = false;
        recompute_gates_locked();
    }

    void clear() {
        std::lock_guard<std::mutex> lock(mu_);
        collector_enabled_ = false;
        in_session_ = false;
        session_starts_ = 0;
        session_stops_ = 0;
        report_path_.clear();
        kernels_.clear();
        transfers_ = {};
        model_ = {};
        for (auto& c : api_calls_) c.store(0, std::memory_order_relaxed);
        recompute_gates_locked();
    }

    /// cusimProfilerStart: a no-op unless the collector is enabled.
    void start() {
        bool started = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (collector_enabled_ && !in_session_) {
                in_session_ = true;
                ++session_starts_;
                started = true;
            }
            recompute_gates_locked();
        }
        if (started) note_session_edge("profiler start");
    }

    void stop() {
        bool stopped = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (collector_enabled_ && in_session_) {
                in_session_ = false;
                ++session_stops_;
                stopped = true;
            }
            recompute_gates_locked();
        }
        if (stopped) note_session_edge("profiler stop");
    }

    std::uint64_t session_starts() const {
        std::lock_guard<std::mutex> lock(mu_);
        return session_starts_;
    }
    std::uint64_t session_stops() const {
        std::lock_guard<std::mutex> lock(mu_);
        return session_stops_;
    }

    // --- activities ---

    void record_launch(std::string_view name, const LaunchConfig& cfg,
                       const LaunchStats& stats, std::string_view lane, int device,
                       double host_seconds, const CostModel& cm) {
        (void)device;
        std::lock_guard<std::mutex> lock(mu_);
        if (!model_.valid) {
            model_.valid = true;
            model_.core_clock_hz = cm.core_clock_hz;
            model_.multiprocessors = cm.multiprocessors;
            model_.max_warps_per_mp = cm.max_warps_per_mp;
            model_.divergence_penalty = cm.divergence_penalty;
            model_.mem_bandwidth_bytes_per_s = cm.mem_bandwidth_bytes_per_s;
        }
        KernelActivity& k = find_or_add_locked(name, cfg);
        ++k.launches;
        k.device_seconds += stats.device_seconds;
        k.host_seconds += host_seconds;
        LaunchStats& t = k.totals;
        t.blocks += stats.blocks;
        t.warps += stats.warps;
        t.threads += stats.threads;
        t.threads_per_block = stats.threads_per_block;
        t.compute_cycles += stats.compute_cycles;
        t.stall_cycles += stats.stall_cycles;
        t.bytes_read += stats.bytes_read;
        t.bytes_written += stats.bytes_written;
        t.useful_bytes_read += stats.useful_bytes_read;
        t.useful_bytes_written += stats.useful_bytes_written;
        t.divergent_events += stats.divergent_events;
        t.branch_evaluations += stats.branch_evaluations;
        t.shared_accesses += stats.shared_accesses;
        t.shared_bank_conflicts += stats.shared_bank_conflicts;
        t.syncthreads_count += stats.syncthreads_count;
        t.resident_blocks_per_mp = stats.resident_blocks_per_mp;
        for (LaneActivity& l : k.lanes) {
            if (l.lane == lane) {
                ++l.launches;
                l.device_seconds += stats.device_seconds;
                return;
            }
        }
        LaneActivity l;
        l.lane = std::string(lane);
        l.launches = 1;
        l.device_seconds = stats.device_seconds;
        k.lanes.push_back(std::move(l));
    }

    void record_transfer(CopyKind kind, std::uint64_t bytes, double seconds) {
        std::lock_guard<std::mutex> lock(mu_);
        TransferTotals& t = transfers_[static_cast<std::size_t>(kind)];
        ++t.count;
        t.bytes += bytes;
        t.seconds += seconds;
    }

    std::vector<KernelActivity> kernels() const {
        std::lock_guard<std::mutex> lock(mu_);
        return kernels_;
    }
    TransferTotals transfers(CopyKind kind) const {
        std::lock_guard<std::mutex> lock(mu_);
        return transfers_[static_cast<std::size_t>(kind)];
    }
    ModelSnapshot model() const {
        std::lock_guard<std::mutex> lock(mu_);
        return model_;
    }
    std::string report_path() const {
        std::lock_guard<std::mutex> lock(mu_);
        return report_path_;
    }

private:
    State() = default;

    /// g_armed = any subscriber or an enabled collector; g_collecting =
    /// enabled collector inside a session. Both derived here, under mu_.
    void recompute_gates_locked() {
        detail::g_collecting.store(collector_enabled_ && in_session_,
                                   std::memory_order_relaxed);
        detail::g_armed.store(!subs_.empty() || collector_enabled_,
                              std::memory_order_relaxed);
    }

    KernelActivity& find_or_add_locked(std::string_view name,
                                       const LaunchConfig& cfg) {
        for (KernelActivity& k : kernels_) {
            if (k.name == name && k.grid == cfg.grid && k.block == cfg.block &&
                k.shared_bytes == cfg.shared_bytes &&
                k.regs_per_thread == cfg.regs_per_thread) {
                return k;
            }
        }
        KernelActivity k;
        k.name = std::string(name);
        k.grid = cfg.grid;
        k.block = cfg.block;
        k.shared_bytes = cfg.shared_bytes;
        k.regs_per_thread = cfg.regs_per_thread;
        kernels_.push_back(std::move(k));
        return kernels_.back();
    }

    static void note_session_edge(const char* what) {
        if (cupp::trace::enabled()) {
            cupp::trace::emit_instant("prof", what, cupp::trace::wall_clock_us());
        }
    }

    mutable std::mutex mu_;
    std::vector<Subscriber> subs_;
    std::uint64_t next_sub_id_ = 0;
    std::array<std::atomic<std::uint64_t>, kApiCount> api_calls_{};

    bool collector_enabled_ = false;
    bool in_session_ = false;
    std::uint64_t session_starts_ = 0;
    std::uint64_t session_stops_ = 0;
    std::string report_path_;

    std::vector<KernelActivity> kernels_;
    std::array<TransferTotals, 4> transfers_{};
    ModelSnapshot model_;
};

void atexit_report() {
    if (!report_path().empty()) write_report();
}

void register_atexit_once() {
    static const bool registered = [] {
        std::atexit(atexit_report);
        return true;
    }();
    (void)registered;
}

/// Reads CUPP_PROF once at static-init: its value is the report path, and
/// collection runs for the whole process.
struct EnvGate {
    EnvGate() {
        if (const char* env = std::getenv("CUPP_PROF");
            env != nullptr && *env != '\0') {
            enable(std::string(env));
        }
    }
};
const EnvGate g_env_gate;

const char* copy_kind_key(CopyKind kind) {
    switch (kind) {
        case CopyKind::HostToDevice: return "h2d";
        case CopyKind::DeviceToHost: return "d2h";
        case CopyKind::DeviceToDevice: return "d2d";
        case CopyKind::HostToHost: return "h2h";
    }
    return "unknown";
}

std::string dim3_json(const dim3& d) {
    return format("[%u, %u, %u]", d.x, d.y, d.z);
}

}  // namespace

const char* api_name(Api api) {
    switch (api) {
        case Api::Malloc: return "malloc";
        case Api::Free: return "free";
        case Api::MemcpyH2D: return "memcpy_h2d";
        case Api::MemcpyD2H: return "memcpy_d2h";
        case Api::MemcpyD2D: return "memcpy_d2d";
        case Api::Launch: return "launch";
        case Api::Sync: return "sync";
        case Api::StreamCreate: return "stream_create";
        case Api::StreamDestroy: return "stream_destroy";
        case Api::StreamSynchronize: return "stream_synchronize";
        case Api::StreamWaitEvent: return "stream_wait_event";
        case Api::EventCreate: return "event_create";
        case Api::EventDestroy: return "event_destroy";
        case Api::EventRecord: return "event_record";
        case Api::EventSynchronize: return "event_synchronize";
        case Api::LaunchAsync: return "launch_async";
        case Api::MemcpyH2DAsync: return "memcpy_h2d_async";
        case Api::MemcpyD2HAsync: return "memcpy_d2h_async";
        case Api::MemcpyD2DAsync: return "memcpy_d2d_async";
        case Api::ProfilerStart: return "profiler_start";
        case Api::ProfilerStop: return "profiler_stop";
        case Api::StreamBeginCapture: return "stream_begin_capture";
        case Api::StreamEndCapture: return "stream_end_capture";
        case Api::GraphInstantiate: return "graph_instantiate";
        case Api::GraphLaunch: return "graph_launch";
    }
    return "unknown";
}

std::uint64_t subscribe(Callback cb) {
    return State::instance().subscribe(std::move(cb));
}

bool unsubscribe(std::uint64_t id) { return State::instance().unsubscribe(id); }

void dispatch(const ApiRecord& rec) { State::instance().dispatch(rec); }

void note_api_enter(Api api) {
    State::instance().note_api_enter(api);
    cupp::trace::metrics().add("cusim.prof.api_calls");
}

std::uint64_t api_calls(Api api) { return State::instance().api_calls(api); }

// --- derived metrics ---------------------------------------------------------

double KernelActivity::occupancy(unsigned max_warps_per_mp) const {
    if (max_warps_per_mp == 0) return 0.0;
    const unsigned warps_per_block = static_cast<unsigned>(
        (std::uint64_t{block.count()} + kWarpSize - 1) / kWarpSize);
    const unsigned resident =
        std::min(totals.resident_blocks_per_mp * warps_per_block, max_warps_per_mp);
    return static_cast<double>(resident) / max_warps_per_mp;
}

double KernelActivity::coalescing_efficiency() const {
    const std::uint64_t charged = totals.bytes_read + totals.bytes_written;
    if (charged == 0) return 1.0;
    const std::uint64_t useful = totals.useful_bytes_read + totals.useful_bytes_written;
    const double eff = static_cast<double>(useful) / static_cast<double>(charged);
    return eff > 1.0 ? 1.0 : eff;
}

double KernelActivity::divergence_serialization(unsigned divergence_penalty) const {
    // BlockCost::from folds the divergence penalty into compute_cycles, so
    // the factor is compute over what compute would have been without it.
    const std::uint64_t penalty =
        std::uint64_t{divergence_penalty} * totals.divergent_events;
    if (totals.compute_cycles == 0 || penalty >= totals.compute_cycles) return 1.0;
    return static_cast<double>(totals.compute_cycles) /
           static_cast<double>(totals.compute_cycles - penalty);
}

double KernelActivity::arithmetic_intensity() const {
    const std::uint64_t bytes = totals.bytes_read + totals.bytes_written;
    if (bytes == 0) return 0.0;
    return static_cast<double>(totals.compute_cycles) / static_cast<double>(bytes);
}

// --- activities & sessions ---------------------------------------------------

void record_launch(std::string_view name, const LaunchConfig& cfg,
                   const LaunchStats& stats, std::string_view lane, int device,
                   double host_seconds, const CostModel& cm) {
    if (!collecting()) return;
    State::instance().record_launch(name, cfg, stats, lane, device, host_seconds, cm);
    cupp::trace::metrics().add("cusim.prof.launches");
    cupp::trace::metrics().record("cusim.prof.launch_host_us", host_seconds * 1e6);
}

void record_transfer(CopyKind kind, std::uint64_t bytes, double seconds, int device) {
    (void)device;
    if (!collecting()) return;
    State::instance().record_transfer(kind, bytes, seconds);
    cupp::trace::metrics().add("cusim.prof.transfers");
}

void enable() {
    register_atexit_once();
    State::instance().enable({});
}

void enable(std::string path) {
    register_atexit_once();
    State::instance().enable(std::move(path));
}

void disable() { State::instance().disable(); }

void reset() {
    State::instance().clear();
    reset_correlation_ids();
}

void start() { State::instance().start(); }

void stop() { State::instance().stop(); }

std::uint64_t session_starts() { return State::instance().session_starts(); }

std::uint64_t session_stops() { return State::instance().session_stops(); }

std::vector<KernelActivity> kernel_activities() { return State::instance().kernels(); }

TransferTotals transfer_totals(CopyKind kind) {
    return State::instance().transfers(kind);
}

ModelSnapshot model_snapshot() { return State::instance().model(); }

std::string report_path() { return State::instance().report_path(); }

// --- report ------------------------------------------------------------------

std::string report_json() {
    const ModelSnapshot model = model_snapshot();
    std::vector<KernelActivity> kernels = kernel_activities();
    std::sort(kernels.begin(), kernels.end(),
              [](const KernelActivity& a, const KernelActivity& b) {
                  if (a.device_seconds != b.device_seconds) {
                      return a.device_seconds > b.device_seconds;
                  }
                  return a.name < b.name;
              });
    double total_device = 0.0;
    for (const KernelActivity& k : kernels) total_device += k.device_seconds;

    std::string out = "{\n  \"prof\": {\n    \"version\": 1,\n";
    out += format(
        "    \"model\": {\"core_clock_hz\": %g, \"multiprocessors\": %u, "
        "\"max_warps_per_mp\": %u, \"divergence_penalty\": %u, "
        "\"mem_bandwidth_bytes_per_s\": %g, \"ridge_cycles_per_byte\": %g},\n",
        model.core_clock_hz, model.multiprocessors, model.max_warps_per_mp,
        model.divergence_penalty, model.mem_bandwidth_bytes_per_s,
        model.ridge_cycles_per_byte());
    out += format(
        "    \"sessions\": {\"starts\": %llu, \"stops\": %llu},\n",
        static_cast<unsigned long long>(session_starts()),
        static_cast<unsigned long long>(session_stops()));

    out += "    \"api_calls\": {";
    bool first = true;
    for (std::size_t a = 0; a < kApiCount; ++a) {
        const std::uint64_t n = api_calls(static_cast<Api>(a));
        if (n == 0) continue;
        if (!first) out += ", ";
        first = false;
        out += format("\"%s\": %llu", api_name(static_cast<Api>(a)),
                      static_cast<unsigned long long>(n));
    }
    out += "},\n";

    out += "    \"kernels\": [";
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const KernelActivity& k = kernels[i];
        const LaunchStats& t = k.totals;
        const char* bound =
            model.valid && k.arithmetic_intensity() > model.ridge_cycles_per_byte()
                ? "compute"
                : "memory";
        out += i == 0 ? "\n" : ",\n";
        out += format(
            "      {\"name\": %s, \"grid\": %s, \"block\": %s, "
            "\"shared_bytes\": %u, \"regs_per_thread\": %u,\n"
            "       \"launches\": %llu, \"device_seconds\": %.9g, "
            "\"host_seconds\": %.9g,\n"
            "       \"blocks\": %llu, \"warps\": %llu, \"threads\": %llu, "
            "\"compute_cycles\": %llu, \"stall_cycles\": %llu,\n"
            "       \"bytes_read\": %llu, \"bytes_written\": %llu, "
            "\"useful_bytes_read\": %llu, \"useful_bytes_written\": %llu,\n"
            "       \"branch_evaluations\": %llu, \"divergent_events\": %llu, "
            "\"shared_accesses\": %llu, \"shared_bank_conflicts\": %llu,\n"
            "       \"syncthreads\": %llu, \"resident_blocks_per_mp\": %u,\n"
            "       \"occupancy\": %.6g, \"coalescing_efficiency\": %.6g, "
            "\"divergence_serialization\": %.6g,\n"
            "       \"arithmetic_intensity_cycles_per_byte\": %.6g, "
            "\"roofline_bound\": \"%s\",\n"
            "       \"lanes\": [",
            json_quote(k.name).c_str(), dim3_json(k.grid).c_str(),
            dim3_json(k.block).c_str(), k.shared_bytes, k.regs_per_thread,
            static_cast<unsigned long long>(k.launches), k.device_seconds,
            k.host_seconds, static_cast<unsigned long long>(t.blocks),
            static_cast<unsigned long long>(t.warps),
            static_cast<unsigned long long>(t.threads),
            static_cast<unsigned long long>(t.compute_cycles),
            static_cast<unsigned long long>(t.stall_cycles),
            static_cast<unsigned long long>(t.bytes_read),
            static_cast<unsigned long long>(t.bytes_written),
            static_cast<unsigned long long>(t.useful_bytes_read),
            static_cast<unsigned long long>(t.useful_bytes_written),
            static_cast<unsigned long long>(t.branch_evaluations),
            static_cast<unsigned long long>(t.divergent_events),
            static_cast<unsigned long long>(t.shared_accesses),
            static_cast<unsigned long long>(t.shared_bank_conflicts),
            static_cast<unsigned long long>(t.syncthreads_count),
            t.resident_blocks_per_mp, k.occupancy(model.max_warps_per_mp),
            k.coalescing_efficiency(),
            k.divergence_serialization(model.divergence_penalty),
            k.arithmetic_intensity(), bound);
        for (std::size_t l = 0; l < k.lanes.size(); ++l) {
            const LaneActivity& lane = k.lanes[l];
            out += format(
                "%s{\"lane\": %s, \"launches\": %llu, \"device_seconds\": %.9g}",
                l == 0 ? "" : ", ", json_quote(lane.lane).c_str(),
                static_cast<unsigned long long>(lane.launches),
                lane.device_seconds);
        }
        out += "]}";
    }
    out += kernels.empty() ? "],\n" : "\n    ],\n";

    out += "    \"hotspots\": [";
    const std::size_t top = std::min<std::size_t>(kernels.size(), 10);
    for (std::size_t i = 0; i < top; ++i) {
        const KernelActivity& k = kernels[i];
        out += format(
            "%s\n      {\"rank\": %zu, \"name\": %s, \"device_seconds\": %.9g, "
            "\"share\": %.6g}",
            i == 0 ? "" : ",", i + 1, json_quote(k.name).c_str(), k.device_seconds,
            total_device > 0.0 ? k.device_seconds / total_device : 0.0);
    }
    out += top == 0 ? "],\n" : "\n    ],\n";

    out += "    \"transfers\": {";
    first = true;
    for (const CopyKind kind : {CopyKind::HostToDevice, CopyKind::DeviceToHost,
                                CopyKind::DeviceToDevice}) {
        const TransferTotals t = transfer_totals(kind);
        if (!first) out += ", ";
        first = false;
        out += format(
            "\"%s\": {\"count\": %llu, \"bytes\": %llu, \"seconds\": %.9g}",
            copy_kind_key(kind), static_cast<unsigned long long>(t.count),
            static_cast<unsigned long long>(t.bytes), t.seconds);
    }
    out += format("},\n    \"total_device_seconds\": %.9g\n  }\n}\n", total_device);
    return out;
}

bool write_report(const std::string& path) {
    const std::string target = path.empty() ? report_path() : path;
    if (target.empty()) return false;
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << report_json();
    return static_cast<bool>(out);
}

}  // namespace cusim::prof
