// Shared plumbing for the perfbench workloads: wall-clock timing, sample
// statistics, in-memory spans, process memory figures, the modelled-value
// reference record and the result document printed at exit.
//
// Everything here lives in the benchmark; nothing is added to src/. Layer
// attribution comes from spans the benchmark opens around public calls plus
// the recorders the stack already has (cusim::prof, cupp::trace metrics).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cusim/accounting.hpp"

namespace cusim {
class Device;
}

namespace perfbench {

struct Result;

// --- clocks -------------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --- statistics ---------------------------------------------------------------

/// Linear-interpolated quantile of `v` (p in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// True when at least ten samples lie beyond the p-quantile, the rule for
/// reporting a tail percentile at all.
[[nodiscard]] inline bool percentile_supported(std::size_t n, double p) {
    return static_cast<double>(n) * (1.0 - p) >= 10.0;
}
[[nodiscard]] double sum(const std::vector<double>& v);

// --- machine speed ----------------------------------------------------------
//
// The host this benchmark runs on is shared: its speed drifts by tens of
// percent over seconds, most for code with a large footprint. Timed ops are
// therefore reported normalized to a fixed, benchmark-owned calibration
// loop of framework-like work (string formatting, hash-map lookups,
// std::function and virtual calls, small allocations) timed interleaved with
// them: normalized = wall x kNominalCalibrationNs / (local calibration
// wall). On a quiet 2.1 GHz host the factor is about 1. Raw wall figures
// stay in the record's counts.

class SpeedTracker {
public:
    /// The calibration loop's wall time at reference speed.
    static constexpr double kNominalCalibrationNs = 4.0e6;

    /// Times one calibration loop when the last one is older than the
    /// sampling period (always when `force`).
    void maybe_sample(bool force = false);
    /// Maps wall time measured now to reference speed: nominal over the
    /// median of the last three samples (1 before the first sample).
    [[nodiscard]] double factor() const { return factor_; }
    [[nodiscard]] const std::vector<double>& samples_ns() const { return samples_; }

private:
    static constexpr std::int64_t kPeriodNs = 200'000'000;
    std::int64_t last_ns_ = 0;
    double factor_ = 1.0;
    std::vector<double> samples_;
};

/// The untraced timings behind the end-to-end metrics, raw and normalized.
struct Timings {
    std::vector<float> op_ns, op_ns_raw;  ///< latency samples (every op or every k-th)
    double ops = 0.0, ns = 0.0, ns_raw = 0.0;  ///< totals behind the throughput

    void add_op(double raw_ns, double factor) {
        op_ns_raw.push_back(static_cast<float>(raw_ns));
        op_ns.push_back(static_cast<float>(raw_ns * factor));
    }
    void add_time(double done, double raw_ns, double factor) {
        ops += done;
        ns_raw += raw_ns;
        ns += raw_ns * factor;
    }
};

// --- process memory -----------------------------------------------------------

/// Peak resident set size of this process so far, in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

// --- spans ----------------------------------------------------------------------
//
// Spans are kept in memory while a traced window is open and written out at
// exit. A span's self time is its duration minus the time covered by its
// direct children. Aggregates per name are exact for the whole run; the raw
// span list keeps the first kMaxRawSpans for inspection.

class Spans {
public:
    static constexpr std::size_t kMaxRawSpans = 20000;

    struct Raw {
        std::uint16_t name = 0;
        std::int32_t parent = -1;
        std::int64_t t0 = 0;
        std::int64_t t1 = 0;
    };
    struct Aggregate {
        std::uint64_t count = 0;
        double total_ns = 0.0;
        double child_ns = 0.0;
        std::vector<double> durations_ns;  ///< every closed span's duration
    };

    void set_enabled(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Opens a span; returns a token for close(). No-op (token -1) while
    /// disabled.
    int open(const char* name);
    void close(int token);

    [[nodiscard]] const Aggregate& agg(const std::string& name) const;
    [[nodiscard]] double total_ms(const std::string& name) const { return agg(name).total_ns * 1e-6; }
    [[nodiscard]] std::uint64_t count(const std::string& name) const { return agg(name).count; }

    /// JSON object: per-name aggregates plus the retained raw spans.
    [[nodiscard]] std::string to_json() const;

private:
    struct Open {
        std::uint16_t name;
        std::int32_t raw_index;
        std::int64_t t0;
        std::int64_t child_ns;
    };
    std::uint16_t intern(const char* name);

    bool enabled_ = false;
    std::vector<std::string> names_;
    std::map<std::string, std::uint16_t> ids_;
    std::vector<Aggregate> aggs_;
    std::vector<Open> stack_;
    std::vector<Raw> raw_;
};

/// RAII span over a Spans recorder.
class Span {
public:
    Span(Spans& s, const char* name) : spans_(s), token_(s.open(name)) {}
    ~Span() { spans_.close(token_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Spans& spans_;
    int token_;
};

// --- recorders ------------------------------------------------------------------

/// What a traced window turns on: the cusim::prof collector, cupp::trace
/// recording (which also gates the lazy-copy counters) and the benchmark's
/// own spans. Trace events are dropped at the end of each window so their
/// memory stays bounded by one window; prof aggregates and metrics persist.
class Recorders {
public:
    Spans spans;

    void begin_window();
    void end_window();
    [[nodiscard]] bool on() const { return spans.enabled(); }
};

/// Simulated statistics summed over launches (the counts that must repeat
/// exactly for a seed).
struct SimCounts {
    cusim::LaunchStats s{};
    std::uint64_t launches = 0;

    /// Adds `n` launches whose summed statistics are `x`.
    void add(const cusim::LaunchStats& x, std::uint64_t n = 1);
    /// Adds the launches `dev` ran since its launch counter read `before`
    /// (from the device's launch history; at most its capacity).
    void add_since(const cusim::Device& dev, std::uint64_t before);
    /// The counts by reference key ("sim.*").
    [[nodiscard]] std::map<std::string, double> values() const;
    void to_reference(Result& r) const;
    void to_metrics(Result& r) const;
};

/// Summed cusim::prof activities: interpreter wall time and LaunchStats.
struct EngineTotals {
    double host_s = 0.0;
    SimCounts sim;
};
/// Activities of kernels whose name passes `keep` (every kernel when empty).
[[nodiscard]] EngineTotals engine_totals(
    const std::function<bool(const std::string&)>& keep = {});

/// Summed wall time (s) and count of the cusim.prof.call_host_us samples:
/// the host cost of every cupp::kernel call made while prof collected.
[[nodiscard]] std::pair<double, std::uint64_t> call_wall();

/// A cupp::trace counter's current value.
[[nodiscard]] std::uint64_t counter(const char* name);

// --- the run -------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Reference recording: one set-up trial, stop after the pinned prefix.
    bool record = false;
    std::string spans_out;  ///< where traced runs write their spans ("" = nowhere)
};

/// Everything one workload process reports. `metrics` are the contract
/// metrics for this mode; `reference` holds the modelled values that must
/// repeat exactly for a seed; `info` is the run record.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< one line per failed check
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::map<std::string, double> reference;
    std::map<std::string, std::string> info;
    std::map<std::string, double> counts;  ///< sample counts behind timings
    std::string spans_json;                ///< traced runs: the spans, written at exit

    void metric(const std::string& name, double value, const std::string& unit) {
        metrics[name] = {value, unit};
    }
    void fail(const std::string& what) {
        ++failed;
        failures.push_back(what);
    }
    [[nodiscard]] std::string to_json() const;
};

/// The per-workload entry points (one process runs exactly one).
Result run_boids(const Options& opt, bool grid_version);
Result run_kernel_calls(const Options& opt);
Result run_serve_soak(const Options& opt);

/// Median of `trials` timings of `setup`, in seconds; `teardown` runs
/// untimed before each trial. The last trial's state is what the workload
/// goes on to measure.
double time_trials(int trials, const std::function<void()>& teardown,
                   const std::function<void()>& setup);

/// Times `trials` creations of a standalone G80 device (the set-up cost a
/// workload's first device pays: the arena is zero-filled eagerly). Must run
/// before the Registry creates its devices so that no two arenas are
/// resident at once. Returns the median in seconds.
double time_device_creation(int trials);

/// Fills the contract's end-to-end metrics: throughput (ops over summed
/// time) and the median op latency, normalized; set-up time and peak memory
/// as measured. Raw wall figures and the p90 go to the record's counts.
void report_end_to_end(Result& r, const Timings& t, const SpeedTracker& speed, double setup_s);

/// Sum of the layers' self times over the op wall they should cover. A
/// negative self time (a recorder seeing more than the span around it)
/// counts as zero, so any gap or overlap moves the result away from 1.
[[nodiscard]] double self_sum_frac(std::initializer_list<double> self_s, double wall_s);

/// Zeroes every per-layer metric (a workload reports 0 for layers it does
/// not reach), then fills those every traced workload derives the same way:
/// engine totals per op, transfers and lazy-copy counts per op, the set-up
/// split, the recorders' own cost and the pinned simulated counts. `ops` and
/// `wall_s` cover the traced windows; the op samples are per-op wall times.
void report_common_layers(Result& r, const Spans& spans, double ops, double wall_s,
                          const EngineTotals& engine,
                          double device_s, double open_s, const std::vector<double>& traced_ns,
                          const std::vector<double>& untraced_ns, const SimCounts& pinned);

}  // namespace perfbench
