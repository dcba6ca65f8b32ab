// cusim::faults — deterministic fault injection for the simulated device.
//
// The thesis' first claim for CuPP over raw CUDA (§4.2) is that "exceptions
// are thrown when an error occurs instead of returning an error code" — but
// error paths that never fire are error paths that never get tested. Because
// the device is simulated, failures can be injected *deterministically*:
// the same plan and seed produce the same faults at the same call sites,
// every run. That is what lets the resilience layer above (cupp::retry,
// device::reset(), the Boids CPU fallback) be exercised by ordinary tests.
//
// Activation follows the CUPP_TRACE / CUPP_MEMCHECK pattern:
//
//   CUPP_FAULTS=<plan.json>   load an explicit fault plan (schema below)
//   CUPP_FAULTS=seed:<n>      a default low-probability transient-only plan
//   CUPP_FAULTS_REPORT=<f>    write the end-of-run injection report to <f>
//                             (a plan's "report" key does the same)
//
// A fault plan is a JSON object:
//
//   {
//     "seed": 42,                      // optional, PRNG seed (default 0)
//     "report": "faults_report.json",  // optional, end-of-run report path
//     "rules": [
//       { "site": "launch",            // malloc | memcpy_h2d | memcpy_d2h |
//                                      // memcpy_d2d | launch | sync
//         "code": "launch_failure",    // which ErrorCode to inject
//         "nth": 3,                    // fire on the nth call to the site
//         "every": 7,                  // ... or on every 7th call
//         "probability": 0.01,         // ... or per call with probability p
//         "max": 1,                    // cap on injections (default: no cap)
//         "filter": "modify" }         // substring match on the call label
//     ]
//   }
//
// A rule fires when any of its triggers (nth / every / probability) matches,
// its filter (if any) matches the call-site label, and its injection cap is
// not exhausted. Injected faults throw cusim::Error *before* the operation
// mutates any state, so every injected failure is atomic and retryable.
// Injecting ErrorCode::DeviceLost additionally poisons the device: every
// subsequent operation on it fails with DeviceLost until
// Device::reset_device() (cupp: device::reset()).
//
// Every injection is mirrored into cupp::trace as an instant on the
// "faults" track plus cusim.faults.* counters, and an injection report
// (JSON) can be written at process exit for `cupp_report faults`.
//
// The disabled fast path is a single relaxed atomic load per site.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cusim/error.hpp"

namespace cusim {
class Device;
}  // namespace cusim

namespace cusim::faults {

// --- enablement -----------------------------------------------------------

namespace detail {
/// True while injection rules are active *or* any device is poisoned —
/// the one gate instrumented sites check (the poisoned-device check must
/// stay live even after the rules are disabled, or sticky semantics die
/// with the plan).
extern std::atomic<bool> g_armed;
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The per-site fast-path gate: one relaxed load when nothing is armed.
[[nodiscard]] inline bool armed() {
    return detail::g_armed.load(std::memory_order_relaxed);
}

/// True while injection rules are being evaluated.
[[nodiscard]] inline bool enabled() {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

// --- injection sites and rules --------------------------------------------

/// Where faults can be injected. One call counter is kept per site.
enum class Site {
    Malloc,     ///< Device::malloc_bytes / cusimMalloc
    MemcpyH2D,  ///< host -> device transfers (incl. constant memory)
    MemcpyD2H,  ///< device -> host transfers
    MemcpyD2D,  ///< device -> device copies
    Launch,     ///< kernel launches
    Sync,       ///< cusimThreadSynchronize / Device::synchronize
};
inline constexpr std::size_t kSiteCount = 6;

/// Stable lower_snake_case site name (plan keys, report JSON, metrics).
[[nodiscard]] const char* site_name(Site site);
/// Parses a plan's site name; false when unknown.
[[nodiscard]] bool parse_site(std::string_view name, Site* out);

/// Stable lower_snake_case error-code name (plan keys, report JSON).
[[nodiscard]] const char* code_name(ErrorCode code);
/// Parses a plan's error-code name; false when unknown.
[[nodiscard]] bool parse_code(std::string_view name, ErrorCode* out);

/// One injection rule. Triggers combine with OR; `injected` counts how
/// often the rule has fired (snapshot value in rules()).
struct Rule {
    Site site = Site::Malloc;
    ErrorCode code = ErrorCode::MemoryAllocation;
    double probability = 0.0;        ///< per-call chance via the seeded PRNG
    std::uint64_t nth = 0;           ///< fire on exactly the nth site call (1-based)
    std::uint64_t every = 0;         ///< fire on every k-th site call
    std::uint64_t max_injections = ~std::uint64_t{0};
    std::string filter;              ///< substring match on the call label
    std::uint64_t injected = 0;
};

// --- configuration ---------------------------------------------------------

/// Installs `rules` and arms injection. Resets all call counters and the
/// PRNG (seeded with `seed`). `report_path` (optional) receives the
/// injection report at process exit.
void configure(std::vector<Rule> rules, std::uint64_t seed = 0,
               std::string report_path = {});

/// Loads a plan file (schema above); throws Error(InvalidValue) on
/// malformed JSON or an invalid rule.
void enable_from_plan(const std::string& path);

/// Arms the default plan: low-probability *transient* faults (spurious
/// allocation, transfer and launch failures) — never DeviceLost.
void enable_with_seed(std::uint64_t seed);

/// Stops evaluating rules. Poisoned devices stay poisoned.
void disable();

/// disable() + drops rules, counters, report path (between test cases).
void reset();

// --- the injection point ---------------------------------------------------

/// Called by Device at each instrumented site when armed(): throws
/// Error(DeviceLost) if `dev` is poisoned, then evaluates the rules and
/// throws the matched rule's code (poisoning `dev` first when the code is
/// DeviceLost). `label` names the call site for filters and the trace.
void preflight(Site site, std::string_view label, Device* dev);

/// Device::poison() calls this so the armed() gate covers sticky state
/// even when no plan was ever loaded (programmatic poisoning in tests).
void note_device_poisoned();

// --- introspection & report ------------------------------------------------

/// Snapshot of the installed rules with their injection counts.
[[nodiscard]] std::vector<Rule> rules();
/// Total injections so far / injections at one site.
[[nodiscard]] std::uint64_t injections();
[[nodiscard]] std::uint64_t injections(Site site);
/// Calls seen at a site since configure().
[[nodiscard]] std::uint64_t site_calls(Site site);
/// Where the active plan came from ("<path>", "seed:<n>", "api" or "").
[[nodiscard]] std::string plan_source();

/// The configured report file ("" when none).
[[nodiscard]] std::string report_path();
/// The injection report as a JSON document / human-readable text.
[[nodiscard]] std::string report_json();
[[nodiscard]] std::string report_text();
/// Writes report_json() to `path` (or the configured path when omitted).
/// Returns false when no path is known or the write failed.
bool write_report(const std::string& path = {});

}  // namespace cusim::faults
