// cupp_report — validates, renders and diffs the reports the CuPP stack
// writes: one driver in front of one checker per report kind. The command
// lines are in kUsage below.
//
// Every mode validates each report against its kind's schema first; the
// table views and --diff share one validator per kind, so rendering a
// report is also its schema gate. A value flag is written --flag=value or
// --flag value; numeric values must parse whole and finite.
//
//   trace     Chrome trace-event file (CUPP_TRACE). The --require-* flags
//             ask for kernel spans, transfer spans with byte counts,
//             lazy-copy counters, host and device tracks, per-stream lanes,
//             or counter samples whose name starts with <prefix>.
//   memcheck  violation report (CUPP_MEMCHECK). --require-clean demands
//             zero violations; --expect KIND at least one of that kind.
//   faults    injection report (CUPP_FAULTS_REPORT). --min-injections,
//             and a site or code that must have injected at least once.
//             --plan checks a fault plan with the rules the runtime loads.
//   prof      profiler report (CUPP_PROF): per-kernel hot-spot table.
//   timeline  timeline report (CUPP_TIMELINE): makespan, critical path
//             (which must tile [0, makespan]), categories and lanes.
//
// --diff compares two reports of one kind metric by metric and fails when
// any (lower-is-better) metric regressed by more than --threshold percent:
// modelled device and transfer time for prof (host wall seconds are real
// time and would flake any threshold), makespan, critical path, serialized
// time and bubbles for timeline. --device-only keeps the two a host-side
// change such as graph replay must not move: makespan and critical path.
//
// Exit status: 0 when every report is well-formed and passes every check,
// 1 when one is not (the reason on stderr), 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cupp/detail/minijson.hpp"
#include "cusim/faults.hpp"

namespace {

using cupp::minijson::Value;

constexpr const char* kUsage =
    "usage: cupp_report trace <trace.json> [--require-kernels] [--require-transfers]\n"
    "           [--require-lazy-counters] [--require-device-track]\n"
    "           [--require-stream-lanes] [--require-counters=<prefix>]\n"
    "       cupp_report memcheck <report.json> [--require-clean] [--expect KIND]...\n"
    "       cupp_report faults <report.json> [--min-injections N]\n"
    "           [--expect-site SITE]... [--expect-code CODE]...\n"
    "       cupp_report faults --plan <plan.json>\n"
    "       cupp_report prof|timeline <report.json> [--top=N]\n"
    "       cupp_report prof|timeline --diff <old.json> <new.json> --threshold <pct>\n"
    "           [--device-only]   (timeline only)\n";

/// A report that is malformed or fails a requested check (exit 1).
struct Failure : std::runtime_error {
    using std::runtime_error::runtime_error;
};
/// A command line the subcommand cannot run (exit 2).
struct UsageError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

[[noreturn]] void fail(const std::string& what) { throw Failure(what); }

// --- JSON field helpers: each fails with `what` unless `obj` is an object
// --- whose member `key` has the expected type.

const Value& member(const Value* obj, const char* key, bool (Value::*is)() const,
                    const std::string& what) {
    const Value* v = obj != nullptr ? obj->find(key) : nullptr;
    if (v == nullptr || !(v->*is)()) fail(what);
    return *v;
}
double num(const Value& obj, const char* key, const std::string& what) {
    return member(&obj, key, &Value::is_number, what).number();
}
const std::string& str(const Value& obj, const char* key, const std::string& what) {
    return member(&obj, key, &Value::is_string, what).str();
}
const cupp::minijson::Array& arr(const Value& obj, const char* key,
                                 const std::string& what) {
    return member(&obj, key, &Value::is_array, what).array();
}
const Value& obj(const Value& parent, const char* key, const std::string& what) {
    return member(&parent, key, &Value::is_object, what);
}

/// Reads and parses the report at `path`.
Value load(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) fail("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (buf.str().empty()) fail(path + " is empty");
    try {
        return cupp::minijson::parse(buf.str());
    } catch (const cupp::minijson::parse_error& e) {
        fail(path + ": invalid JSON: " + e.what());
    }
}

// --- command line ------------------------------------------------------

/// One subcommand's command line: the report files in order, and every
/// value given for each flag (a bare flag holds one empty value).
struct Args {
    std::vector<std::string> files;
    std::map<std::string, std::vector<std::string>, std::less<>> flags;

    [[nodiscard]] bool has(std::string_view flag) const { return flags.contains(flag); }

    [[nodiscard]] std::vector<std::string> values(std::string_view flag) const {
        const auto it = flags.find(flag);
        return it == flags.end() ? std::vector<std::string>{} : it->second;
    }

    /// The flag's last value as a finite number >= `min` (a whole one when
    /// `integral`), or `fallback` when the flag is absent.
    [[nodiscard]] double number(std::string_view flag, double fallback, double min,
                                bool integral = false) const {
        const auto it = flags.find(flag);
        if (it == flags.end()) return fallback;
        const std::string& text = it->second.back();
        char* end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0' || !std::isfinite(v) || v < min ||
            (integral && v != std::floor(v))) {
            throw UsageError(format("%.*s needs a finite %s >= %g, got '%s'",
                                    static_cast<int>(flag.size()), flag.data(),
                                    integral ? "integer" : "number", min, text.c_str()));
        }
        return v;
    }
};

/// Parses argv against `spec`, the subcommand's flags; a trailing '=' in a
/// spec entry marks a flag that takes a value.
Args parse_args(int argc, char** argv, const std::vector<std::string_view>& spec) {
    Args args;
    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (!arg.starts_with("--")) {
            args.files.emplace_back(arg);
            continue;
        }
        const auto eq = arg.find('=');
        const std::string name(arg.substr(0, eq));
        const bool valued = std::find(spec.begin(), spec.end(), name + "=") != spec.end();
        if (!valued && std::find(spec.begin(), spec.end(), name) == spec.end()) {
            throw UsageError("unknown flag " + name);
        }
        std::string value;
        if (!valued) {
            if (eq != std::string_view::npos) throw UsageError(name + " takes no value");
        } else if (eq != std::string_view::npos) {
            value = arg.substr(eq + 1);
        } else if (i + 1 < argc) {
            value = argv[++i];
        }
        if (valued && value.empty()) throw UsageError(name + " needs a value");
        args.flags[name].push_back(std::move(value));
    }
    return args;
}

/// The single report file of a subcommand that takes exactly one.
const std::string& one_file(const Args& args) {
    if (args.files.size() != 1) throw UsageError("expects exactly one report file");
    return args.files[0];
}

// --- diff --------------------------------------------------------------

/// One compared metric. All metrics are lower-is-better (times, bubbles).
struct Metric {
    std::string name;
    double old_value = 0.0;
    double new_value = 0.0;
};

/// Seconds-scale absolute floor below which a delta is noise, not a
/// regression — keeps a 0 -> 1e-15 rounding wiggle from failing a build.
constexpr double kAbsoluteFloor = 1e-12;

/// Prints the comparison table; fails when any metric regressed by more
/// than `threshold_pct` percent (and by more than the absolute floor).
void diff_metrics(const char* kind, const std::vector<Metric>& metrics,
                  double threshold_pct) {
    int regressions = 0;
    std::printf("%-34s %16s %16s %9s\n", "metric", "old", "new", "delta");
    for (const Metric& m : metrics) {
        const double delta = m.new_value - m.old_value;
        const double pct = m.old_value != 0.0 ? delta / m.old_value * 100.0
                                              : (m.new_value != 0.0 ? INFINITY : 0.0);
        const bool bad = delta > kAbsoluteFloor &&
                         m.new_value > m.old_value * (1.0 + threshold_pct / 100.0);
        if (bad) ++regressions;
        std::printf("%-34s %16.9g %16.9g %+8.2f%%%s\n", m.name.c_str(), m.old_value,
                    m.new_value, pct, bad ? "  REGRESSED" : "");
    }
    if (regressions > 0) {
        fail(format("%d metric(s) regressed by more than %g%%", regressions,
                    threshold_pct));
    }
    std::printf("cupp_report %s: OK: no metric regressed by more than %g%%\n", kind,
                threshold_pct);
}

/// Shared driver of prof and timeline: validates with `read`, then renders
/// one report with `render` or diffs two with `metrics`.
template <typename Report, typename Read, typename Render, typename Metrics>
int table_or_diff(const char* kind, const Args& args, Read read, Render render,
                  Metrics metrics) {
    const bool diff = args.has("--diff");
    if (diff != args.has("--threshold") || (!diff && args.has("--device-only"))) {
        throw UsageError("--threshold and --device-only go with --diff");
    }
    const auto top = static_cast<std::size_t>(args.number("--top", 10, 1, true));
    const double threshold = args.number("--threshold", 0, 0);
    if (!diff) {
        const Value root = load(one_file(args));
        render(read(root), top);
        return 0;
    }
    if (args.files.size() != 2) throw UsageError("--diff expects two report files");
    const Value old_root = load(args.files[0]);
    const Value new_root = load(args.files[1]);
    const Report a = read(old_root);
    const Report b = read(new_root);
    std::printf("cupp_report %s: diff %s -> %s (threshold %g%%%s)\n", kind,
                args.files[0].c_str(), args.files[1].c_str(), threshold,
                args.has("--device-only") ? ", device schedule only" : "");
    diff_metrics(kind, metrics(a, b), threshold);
    return 0;
}

// --- trace -------------------------------------------------------------

int run_trace(const Args& args) {
    const std::vector<std::string> prefixes = args.values("--require-counters");
    const Value root = load(one_file(args));
    const auto& events = arr(root, "traceEvents", "no traceEvents array");
    if (events.empty()) fail("traceEvents is empty");

    std::size_t kernel_spans = 0, transfers = 0;
    std::set<std::string> unseen(prefixes.begin(), prefixes.end());  // no sample yet
    std::set<std::string> tracks;  // resolved via thread_name metadata
    bool lazy_counters = false;
    for (const Value& ev : events) {
        if (!ev.is_object()) fail("traceEvents entry is not an object");
        const std::string& phase = str(ev, "ph", "event without ph");
        const std::string& label = str(ev, "name", "event without name");
        if (phase == "M" && label == "thread_name") {
            const Value* a = ev.find("args");
            if (const Value* name = a != nullptr ? a->find("name") : nullptr;
                name != nullptr && name->is_string()) {
                tracks.insert(name->str());
            }
            continue;
        }
        if (phase == "X") {
            num(ev, "ts", "X event without ts");
            if (num(ev, "dur", "X event without dur") < 0) {
                fail("X event with negative dur");
            }
            // Retry backoff spans name the retried site ("cupp::retry
            // vector upload (failure 1)") but move no data themselves —
            // they are not transfers and carry no byte count.
            const bool is_transfer =
                !label.starts_with("cupp::retry") &&
                (label.starts_with("memcpy ") ||
                 (label.starts_with("cupp::") &&
                  (label.find("upload") != std::string::npos ||
                   label.find("download") != std::string::npos)));
            if (is_transfer) {
                member(ev.find("args"), "bytes", &Value::is_number,
                       "transfer span without byte count");
                ++transfers;
            }
            if (label.starts_with("cupp::call") || label.starts_with("launch ")) {
                ++kernel_spans;
            }
        }
        if (phase == "C") {
            lazy_counters = lazy_counters || label.starts_with("cupp.vector.lazy.");
            std::erase_if(unseen, [&](const std::string& p) { return label.starts_with(p); });
        }
    }

    const auto has_track = [&](const char* part) {
        return std::any_of(tracks.begin(), tracks.end(), [&](const std::string& t) {
            return t.find(part) != std::string::npos;
        });
    };
    if (args.has("--require-kernels") && kernel_spans == 0) fail("no kernel-launch spans");
    if (args.has("--require-transfers") && transfers == 0) {
        fail("no transfer events with bytes");
    }
    if (args.has("--require-lazy-counters") && !lazy_counters) {
        fail("no lazy-copy counter samples");
    }
    if (args.has("--require-device-track") &&
        !(has_track(".device") && has_track(".host"))) {
        fail("host and device tracks not both present");
    }
    if (args.has("--require-stream-lanes") && !has_track(".stream")) {
        fail("no per-stream trace lanes");
    }
    if (!unseen.empty()) fail("no counter samples with prefix " + *unseen.begin());
    std::printf("cupp_report trace: OK: %zu events, %zu kernel spans, %zu transfers, "
                "%zu named tracks\n",
                events.size(), kernel_spans, transfers, tracks.size());
    return 0;
}

// --- memcheck ----------------------------------------------------------

int run_memcheck(const Args& args) {
    const Value root = load(one_file(args));
    const Value& mc = obj(root, "memcheck", "no memcheck object");
    const double total = num(mc, "total_violations", "no total_violations");
    const auto& list = arr(mc, "violations", "no violations array");

    double counted = 0;
    std::string messages;
    std::set<std::string> kinds;
    for (const Value& v : list) {
        kinds.insert(str(v, "kind", "violation without kind"));
        const std::string& message = str(v, "message", "violation without message");
        const double count = num(v, "count", "violation without occurrence count");
        if (message.empty()) fail("violation without message");
        if (count < 1) fail("violation without occurrence count");
        counted += count;
        messages += "\n  " + message;
    }
    if (counted > total) fail("violation counts exceed total_violations");

    if (args.has("--require-clean") && total != 0) {
        fail(format("%g violation(s) reported:", total) + messages);
    }
    for (const std::string& kind : args.values("--expect")) {
        if (!kinds.contains(kind)) fail("expected a " + kind + " violation, none found");
    }
    std::printf("cupp_report memcheck: OK: %g total violation(s), %zu distinct\n", total,
                list.size());
    return 0;
}

// --- faults ------------------------------------------------------------

int faults_plan(const std::string& path) {
    try {
        cusim::faults::enable_from_plan(path);
    } catch (const cusim::Error& e) {
        cusim::faults::reset();
        fail(e.what());
    }
    const std::size_t rules = cusim::faults::rules().size();
    cusim::faults::reset();
    std::printf("cupp_report faults: OK: plan %s loads (%zu rule(s))\n", path.c_str(),
                rules);
    return 0;
}

int run_faults(const Args& args) {
    if (args.has("--plan")) {
        if (!args.files.empty() || args.flags.size() != 1) {
            throw UsageError("--plan takes exactly one file and no other flag");
        }
        return faults_plan(args.values("--plan").back());
    }
    const double min_injections = args.number("--min-injections", 0, 0);
    const Value root = load(one_file(args));
    const Value& f = obj(root, "faults", "no faults object");
    const double total = num(f, "total_injections", "no total_injections");
    const auto& rules = arr(f, "rules", "no rules array");

    double per_rule = 0;
    std::set<std::string> sites, codes;  // of rules that injected
    for (const Value& r : rules) {
        const std::string& site = str(r, "site", "rule without a valid site");
        const std::string& code = str(r, "code", "rule without a valid code");
        cusim::faults::Site parsed_site{};
        cusim::ErrorCode parsed_code{};
        if (!cusim::faults::parse_site(site, &parsed_site)) {
            fail("rule without a valid site");
        }
        if (!cusim::faults::parse_code(code, &parsed_code)) {
            fail("rule without a valid code");
        }
        const double injected = num(r, "injected", "rule without an injection count");
        if (injected < 0) fail("rule without an injection count");
        per_rule += injected;
        if (injected > 0) {
            sites.insert(site);
            codes.insert(code);
        }
    }
    if (per_rule != total) fail("per-rule injection counts do not sum to total_injections");

    if (total < min_injections) {
        fail(format("%g injection(s), expected at least %g", total, min_injections));
    }
    for (const std::string& site : args.values("--expect-site")) {
        if (!sites.contains(site)) fail("no injection at site " + site);
    }
    for (const std::string& code : args.values("--expect-code")) {
        if (!codes.contains(code)) fail("no injected " + code + " fault");
    }
    std::printf("cupp_report faults: OK: %g injection(s) across %zu rule(s)\n", total,
                rules.size());
    return 0;
}

// --- prof --------------------------------------------------------------

struct ProfKernel {
    std::string name;
    std::string config;  ///< "<<<blocks,threads>>>"
    std::string bound;   ///< roofline bound: "compute" or "memory"
    double launches = 0;
    double device_seconds = 0;
    double host_seconds = 0;
    double occupancy = 0;
    double coalescing = 0;
    double divergence = 0;
    double bank_conflicts = 0;
};

struct ProfTransfers {
    const char* kind;
    double count;
    double bytes;
    double seconds;
};

struct Prof {
    double ridge = 0;
    std::vector<ProfKernel> kernels;  ///< by device time, then name
    std::vector<ProfTransfers> transfers;
    // The diffable slice: modelled (deterministic) times only.
    double device_seconds = 0;
    double transfer_seconds = 0;
    std::map<std::string, double> kernel_seconds;  ///< by name, summed
};

/// Product of a [x, y, z] dimension array.
double dim_count(const Value& k, const char* key, const std::string& what) {
    const auto& d = arr(k, key, what);
    if (d.size() != 3 || !std::all_of(d.begin(), d.end(), [](const Value& v) {
            return v.is_number();
        })) {
        fail(what);
    }
    return d[0].number() * d[1].number() * d[2].number();
}

Prof read_prof(const Value& root) {
    const Value& prof = obj(root, "prof", "no prof object");
    Prof p;
    p.ridge = num(obj(prof, "model", "no model object"), "ridge_cycles_per_byte",
                  "model without ridge_cycles_per_byte");
    for (const Value& k : arr(prof, "kernels", "no kernels array")) {
        ProfKernel r;
        r.name = str(k, "name", "kernel without name");
        // Every numeric field the table renders must be present and numeric;
        // a report missing one is malformed, not partially printable.
        const auto field = [&](const char* key) {
            return num(k, key, "kernel " + r.name + ": missing " + key);
        };
        r.launches = field("launches");
        r.device_seconds = field("device_seconds");
        r.host_seconds = field("host_seconds");
        r.occupancy = field("occupancy");
        r.coalescing = field("coalescing_efficiency");
        r.divergence = field("divergence_serialization");
        r.bank_conflicts = field("shared_bank_conflicts");
        field("bytes_read");
        field("bytes_written");
        r.bound = str(k, "roofline_bound", "kernel " + r.name + ": missing roofline_bound");
        r.config = format("<<<%g,%g>>>",
                          dim_count(k, "grid", "kernel " + r.name + ": bad grid"),
                          dim_count(k, "block", "kernel " + r.name + ": bad block"));
        p.device_seconds += r.device_seconds;
        p.kernel_seconds[r.name] += r.device_seconds;
        p.kernels.push_back(std::move(r));
    }
    std::sort(p.kernels.begin(), p.kernels.end(),
              [](const ProfKernel& a, const ProfKernel& b) {
                  if (a.device_seconds != b.device_seconds) {
                      return a.device_seconds > b.device_seconds;
                  }
                  return a.name < b.name;
              });
    for (const Value& h : arr(prof, "hotspots", "no hotspots array")) {
        str(h, "name", "malformed hotspots entry");
        num(h, "device_seconds", "malformed hotspots entry");
    }
    const Value& transfers = obj(prof, "transfers", "no transfers object");
    for (const char* kind : {"h2d", "d2h", "d2d"}) {
        const std::string what = std::string("malformed transfers entry ") + kind;
        const Value& t = obj(transfers, kind, what);
        p.transfers.push_back(
            {kind, num(t, "count", what), num(t, "bytes", what), num(t, "seconds", what)});
        p.transfer_seconds += p.transfers.back().seconds;
    }
    return p;
}

void render_prof(const Prof& p, std::size_t top) {
    const double total_device = p.device_seconds;
    std::printf("cupp_report prof: %zu kernel(s), %.3f ms modelled device time, "
                "roofline ridge %.3f cycles/byte\n",
                p.kernels.size(), total_device * 1e3, p.ridge);
    std::printf("%-26s %8s %12s %12s %7s %6s %6s %6s %10s %8s\n", "kernel", "launches",
                "device_ms", "host_ms", "time%", "occ", "coal", "div", "bankconf", "bound");
    const std::size_t n = std::min(top, p.kernels.size());
    for (std::size_t i = 0; i < n; ++i) {
        const ProfKernel& r = p.kernels[i];
        std::printf("%-26s %8.0f %12.4f %12.4f %6.1f%% %5.0f%% %5.0f%% %6.2f %10.0f %8s\n",
                    (r.name + " " + r.config).c_str(), r.launches, r.device_seconds * 1e3,
                    r.host_seconds * 1e3,
                    total_device > 0 ? 100.0 * r.device_seconds / total_device : 0.0,
                    r.occupancy * 100.0, r.coalescing * 100.0, r.divergence,
                    r.bank_conflicts, r.bound.c_str());
    }
    if (p.kernels.size() > n) {
        std::printf("  ... %zu more kernel(s); raise --top to see them\n",
                    p.kernels.size() - n);
    }
    // Transfer footer: what moved over the bus around those kernels.
    for (const ProfTransfers& t : p.transfers) {
        if (t.count == 0) continue;
        std::printf("transfers %s: %.0f op(s), %.1f KiB, %.4f ms\n", t.kind, t.count,
                    t.bytes / 1024.0, t.seconds * 1e3);
    }
}

std::vector<Metric> prof_metrics(const Prof& a, const Prof& b) {
    std::vector<Metric> metrics = {
        {"total_device_seconds", a.device_seconds, b.device_seconds},
        {"transfer_seconds", a.transfer_seconds, b.transfer_seconds},
    };
    // Per-kernel times for kernels present in both reports (an added or
    // removed kernel changes the totals, which the first metric catches).
    for (const auto& [name, secs] : a.kernel_seconds) {
        if (const auto it = b.kernel_seconds.find(name); it != b.kernel_seconds.end()) {
            metrics.push_back({"kernel " + name, secs, it->second});
        }
    }
    return metrics;
}

// --- timeline ----------------------------------------------------------

struct Timeline {
    const Value* tl = nullptr;  ///< the validated "timeline" object, for rendering
    double makespan = 0;
    double serialized = 0;
    double overlap = 0;
    double critical = 0;
    double gap = 0;
    double bubble_total = 0;
    double nodes = 0;
    double failed = 0;
    double edges = 0;
};

/// Validates the full schema, including the critical-path tiling
/// invariant: first node at 0, each end exactly the next start, and the
/// last end exactly the makespan when the recorded gap is 0.
Timeline read_timeline(const Value& root) {
    Timeline s;
    const Value& tl = obj(root, "timeline", "no timeline object");
    s.tl = &tl;
    if (num(tl, "version", "missing or unsupported version") != 1) {
        fail("missing or unsupported version");
    }
    const char* summary = "missing summary field";
    s.makespan = num(tl, "makespan_seconds", summary);
    s.serialized = num(tl, "serialized_seconds", summary);
    s.overlap = num(tl, "overlap_efficiency", summary);
    s.critical = num(tl, "critical_path_seconds", summary);
    s.gap = num(tl, "critical_path_gap_seconds", summary);
    const Value& counts = obj(tl, "counts", "missing counts");
    s.nodes = num(counts, "nodes", "missing counts");
    s.failed = num(counts, "failed", "missing counts");
    s.edges = num(counts, "edges", "missing counts");

    for (const Value& c : arr(tl, "categories", "no categories array")) {
        const char* what = "malformed categories entry";
        str(c, "category", what);
        num(c, "seconds", what);
        num(c, "share", what);
    }
    for (const Value& l : arr(tl, "lanes", "no lanes array")) {
        const char* what = "malformed lanes entry";
        str(l, "lane", what);
        for (const char* key :
             {"nodes", "busy_seconds", "utilization", "first_start", "last_end"}) {
            num(l, key, what);
        }
        s.bubble_total += num(l, "bubble_seconds", "lane without bubble_seconds");
        for (const Value& b : arr(l, "bubbles", "lane without bubbles array")) {
            if (num(b, "end", "malformed bubble interval") <
                num(b, "start", "malformed bubble interval")) {
                fail("malformed bubble interval");
            }
        }
    }

    const auto& path = arr(tl, "critical_path", "no critical_path array");
    double prev_end = 0.0;
    for (std::size_t i = 0; i < path.size(); ++i) {
        const Value& n = path[i];
        const char* what = "malformed critical_path entry";
        num(n, "id", what);
        for (const char* key : {"category", "name", "lane"}) str(n, key, what);
        for (const char* key : {"duration", "share"}) num(n, key, what);
        const double start = num(n, "start", what);
        // %.17g round-trips doubles, so the chain must be exact, not
        // approximately contiguous.
        if (i == 0 && start != 0.0) fail("critical path does not start at 0");
        if (i > 0 && start != prev_end) fail("critical path is not contiguous");
        prev_end = num(n, "end", what);
    }
    if (!path.empty() && s.gap == 0.0) {
        if (prev_end != s.makespan) fail("critical path does not end at the makespan");
        if (s.critical != s.makespan) {
            fail("critical_path_seconds != makespan with zero gap");
        }
    }

    const auto& nodes = arr(tl, "nodes", "no nodes array");
    for (const Value& n : nodes) {
        const char* what = "malformed nodes entry";
        const double id = num(n, "id", what);
        num(n, "correlation", what);
        for (const char* key : {"category", "name", "lane"}) str(n, key, what);
        if (num(n, "end", what) < num(n, "start", what)) fail(what);
        for (const Value& d : arr(n, "deps", "node without deps array")) {
            if (!d.is_number() || d.number() < 1 || d.number() >= id) {
                fail("dep does not reference an earlier node");
            }
        }
    }
    if (nodes.size() != static_cast<std::size_t>(s.nodes)) {
        fail("counts.nodes does not match the nodes array");
    }
    return s;
}

void render_timeline(const Timeline& s, std::size_t top) {
    const Value& tl = *s.tl;
    std::printf("cupp_report timeline: makespan %.4f ms, serialized %.4f ms, overlap "
                "efficiency %.2fx, %.0f node(s), %.0f failed, %.0f edge(s)\n",
                s.makespan * 1e3, s.serialized * 1e3, s.overlap, s.nodes, s.failed,
                s.edges);
    std::printf("\ncategories:\n");
    for (const Value& c : tl.find("categories")->array()) {
        std::printf("  %-8s %12.4f ms %6.1f%%\n", c.find("category")->str().c_str(),
                    c.find("seconds")->number() * 1e3, c.find("share")->number() * 100.0);
    }

    const auto& path = tl.find("critical_path")->array();
    std::printf("\ncritical path: %zu node(s), %.4f ms (gap %.3g s)\n", path.size(),
                s.critical * 1e3, s.gap);
    const std::size_t n = std::min(top, path.size());
    for (std::size_t i = 0; i < n; ++i) {
        const Value& nd = path[i];
        std::printf("  %-8s %-26s %-14s %12.4f ms %6.1f%%\n",
                    nd.find("category")->str().c_str(), nd.find("name")->str().c_str(),
                    nd.find("lane")->str().c_str(), nd.find("duration")->number() * 1e3,
                    nd.find("share")->number() * 100.0);
    }
    if (path.size() > n) {
        std::printf("  ... %zu more node(s); raise --top to see them\n", path.size() - n);
    }

    // Per-lane Gantt summary: busy vs. idle inside each lane's active span.
    std::printf("\nlanes:\n");
    for (const Value& l : tl.find("lanes")->array()) {
        std::printf("  %-14s %5.0f node(s) %12.4f ms busy %6.1f%% util %10.4f ms "
                    "bubble (%zu gap(s))\n",
                    l.find("lane")->str().c_str(), l.find("nodes")->number(),
                    l.find("busy_seconds")->number() * 1e3,
                    l.find("utilization")->number() * 100.0,
                    l.find("bubble_seconds")->number() * 1e3,
                    l.find("bubbles")->array().size());
    }
}

int run_timeline(const Args& args) {
    const bool device_only = args.has("--device-only");
    return table_or_diff<Timeline>(
        "timeline", args, read_timeline, render_timeline,
        [&](const Timeline& a, const Timeline& b) {
            // serialized/bubble totals include the host lane, so a run that
            // only shifts host-side cost (e.g. graph replay amortising
            // launch overhead) moves them in opposite directions.
            std::vector<Metric> metrics = {
                {"makespan_seconds", a.makespan, b.makespan},
                {"critical_path_seconds", a.critical, b.critical},
            };
            if (!device_only) {
                metrics.push_back({"serialized_seconds", a.serialized, b.serialized});
                metrics.push_back({"bubble_seconds_total", a.bubble_total, b.bubble_total});
            }
            return metrics;
        });
}

int run_prof(const Args& args) {
    return table_or_diff<Prof>("prof", args, read_prof, render_prof, prof_metrics);
}

}  // namespace

int main(int argc, char** argv) {
    struct Kind {
        const char* name;
        int (*run)(const Args&);
        std::vector<std::string_view> flags;
    };
    const Kind kinds[] = {
        {"trace", run_trace,
         {"--require-kernels", "--require-transfers", "--require-lazy-counters",
          "--require-device-track", "--require-stream-lanes", "--require-counters="}},
        {"memcheck", run_memcheck, {"--require-clean", "--expect="}},
        {"faults", run_faults,
         {"--plan=", "--min-injections=", "--expect-site=", "--expect-code="}},
        {"prof", run_prof, {"--top=", "--diff", "--threshold="}},
        {"timeline", run_timeline, {"--top=", "--diff", "--threshold=", "--device-only"}},
    };
    const std::string_view name = argc > 1 ? argv[1] : "";
    const Kind* kind = std::find_if(std::begin(kinds), std::end(kinds),
                                    [&](const Kind& k) { return name == k.name; });
    if (kind == std::end(kinds)) {
        std::fputs(kUsage, stderr);
        return 2;
    }
    try {
        return kind->run(parse_args(argc - 2, argv + 2, kind->flags));
    } catch (const UsageError& e) {
        std::fprintf(stderr, "cupp_report %s: %s\n%s", kind->name, e.what(), kUsage);
        return 2;
    } catch (const Failure& e) {
        std::fprintf(stderr, "cupp_report %s: FAIL: %s\n", kind->name, e.what());
        return 1;
    }
}
