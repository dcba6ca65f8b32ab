// Workload serve_soak: cupp::serve::server::run() with 2 workers/devices,
// 8 tenants and the 16-entry boids catalog, under a seeded fault plan armed
// through the faults API: low-rate transient launch/memcpy faults plus one
// sticky device loss per batch.
//
// Arrivals are an open loop on the *modelled* clock (seeded exponential
// gaps); run() processes each batch on the host as one call. One batch is
// one timed run() call on a fresh server, so every batch starts from the
// same breaker state and fault-plan position. An op is one request.
#include <cmath>
#include <memory>

#include "common.hpp"
#include "cusim/faults.hpp"
#include "cusim/registry.hpp"
#include "serve/boids_service.hpp"
#include "serve/serve.hpp"

namespace perfbench {

namespace {

namespace serve = cupp::serve;
namespace faults = cusim::faults;

constexpr int kSetupTrials = 5;
constexpr int kWorkers = 2;
constexpr std::uint64_t kPerEntry = 12;  ///< requests per catalog entry and batch
constexpr std::uint64_t kTenants = 8;
constexpr std::uint64_t kCatalog = 16;
constexpr std::size_t kBatch = kCatalog * kPerEntry;
constexpr double kMeanGapS = 0.3e-3;  ///< modelled mean inter-arrival gap
constexpr std::uint64_t kPayloadShift = 8;  ///< payload = catalog | request index << 8

struct Rng {
    std::uint64_t state;
    std::uint64_t next() {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    double uniform() { return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0); }
};

/// One batch: every catalog entry kPerEntry times in seeded order (so every
/// seed offers the same work), seeded tenants and modelled arrival gaps.
std::vector<serve::request> make_requests(std::uint64_t seed) {
    Rng rng{seed};
    std::vector<std::uint64_t> entries;
    for (std::uint64_t p = 0; p < kCatalog; ++p) entries.insert(entries.end(), kPerEntry, p);
    for (std::size_t i = entries.size() - 1; i > 0; --i) {
        std::swap(entries[i], entries[rng.next() % (i + 1)]);
    }
    std::vector<serve::request> reqs;
    double t = 0.0;
    for (std::size_t i = 0; i < kBatch; ++i) {
        serve::request r;
        r.tenant = "tenant-" + std::to_string(rng.next() % kTenants);
        t += -std::log(1.0 - rng.uniform()) * kMeanGapS;
        r.arrival_s = t;
        r.payload = entries[i] | (static_cast<std::uint64_t>(i) << kPayloadShift);
        reqs.push_back(std::move(r));
    }
    return reqs;
}

std::vector<faults::Rule> fault_plan(std::uint64_t seed) {
    std::vector<faults::Rule> rules(4);
    rules[0].site = faults::Site::Launch;
    rules[0].code = cusim::ErrorCode::LaunchFailure;
    rules[0].probability = 0.002;
    rules[1].site = faults::Site::MemcpyH2D;
    rules[1].code = cusim::ErrorCode::TransferFailure;
    rules[1].probability = 0.002;
    rules[2].site = faults::Site::MemcpyD2H;
    rules[2].code = cusim::ErrorCode::TransferFailure;
    rules[2].probability = 0.002;
    rules[3].site = faults::Site::Malloc;
    rules[3].code = cusim::ErrorCode::DeviceLost;
    rules[3].nth = 40 + seed % 160;
    rules[3].max_injections = 1;
    return rules;
}

serve::config server_config() {
    serve::config cfg;
    cfg.workers = kWorkers;
    cfg.queue_capacity = kBatch;
    cfg.default_quota = {/*max_queued=*/kBatch, /*max_in_flight=*/2};
    cfg.breaker_threshold = 1;
    cfg.retry.initial_backoff_s = 10e-6;
    return cfg;
}

}  // namespace

Result run_serve_soak(const Options& opt) {
    Result r;
    const std::vector<serve::request> reqs = make_requests(opt.seed);
    const std::vector<faults::Rule> rules = fault_plan(opt.seed);
    std::vector<std::uint64_t> oracle;
    for (std::uint64_t p = 0; p < kCatalog; ++p) {
        oracle.push_back(serve::boids_oracle_digest(serve::boids_catalog_entry(p)));
    }

    // --- set-up: one device per worker, then server construction -----------
    const int trials = opt.record ? 1 : kSetupTrials;
    const double device_s = time_device_creation(trials);
    auto& registry = cusim::Registry::instance();
    while (registry.device_count() < kWorkers) registry.add_device(cusim::g80_properties());

    Recorders rec;
    Spans& sp = rec.spans;
    std::vector<double> attempt_ns;   // every handler execution (traced batches)
    std::vector<double> request_ns;   // per request of the current batch: wall
    std::vector<double> request_scaled_ns;  // ... and normalized
    double calibration_ns = 0.0;      // calibration time inside the current run()
    SpeedTracker speed;
    SimCounts batch_sim;
    const serve::handler_fn boids = serve::make_boids_handler();
    const serve::handler_fn handler = [&](serve::worker_context& ctx,
                                          const serve::request& req) -> std::uint64_t {
        serve::request inner = req;
        inner.payload = req.payload % (std::uint64_t{1} << kPayloadShift);
        const std::size_t index = req.payload >> kPayloadShift;
        // run() is one host call per batch: the speed is sampled between
        // handlers, and that time is taken out of the batch's wall time.
        const std::int64_t c0 = now_ns();
        speed.maybe_sample();
        calibration_ns += static_cast<double>(now_ns() - c0);
        const double factor = speed.factor();
        cusim::Device& dev = ctx.sim();
        const std::uint64_t before = dev.launches();
        Span span(sp, "serve.handler");
        const std::int64_t t0 = now_ns();
        auto note = [&] {
            const auto ns = static_cast<double>(now_ns() - t0);
            request_ns[index] += ns;
            request_scaled_ns[index] += ns * factor;
            if (rec.on()) attempt_ns.push_back(ns);
            batch_sim.add_since(dev, before);
        };
        try {
            const std::uint64_t v = boids(ctx, inner);
            note();
            return v;
        } catch (...) {
            note();
            throw;
        }
    };
    std::unique_ptr<serve::server> srv;
    const double open_s = time_trials(
        trials, [&] { srv.reset(); },
        [&] { srv = std::make_unique<serve::server>(server_config(), handler); });
    srv.reset();

    // --- measurement: one fresh server per batch ----------------------------
    Timings timings;
    std::vector<double> untraced_ns, traced_ns, traced_run_ns;
    std::map<std::string, double> traced_counts;
    std::map<std::string, double> first;
    SimCounts first_sim;
    std::size_t batches = 0, traced_batches = 0;
    speed.maybe_sample(/*force=*/true);
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
    for (;;) {
        if (batches > 0 && (opt.record || now_ns() >= deadline)) break;
        const bool traced = opt.trace && batches % 2 == 1;
        if (traced) rec.begin_window();
        request_ns.assign(kBatch, 0.0);
        request_scaled_ns.assign(kBatch, 0.0);
        calibration_ns = 0.0;
        batch_sim = SimCounts{};
        faults::configure(rules, opt.seed);
        srv = std::make_unique<serve::server>(server_config(), handler);

        const std::int64_t t0 = now_ns();
        std::vector<serve::response> out;
        {
            Span span(sp, "serve.run");
            out = srv->run(reqs);
        }
        const double run_ns = static_cast<double>(now_ns() - t0) - calibration_ns;

        const std::uint64_t injected = faults::injections();
        faults::disable();
        if (traced) rec.end_window();
        ++batches;
        r.attempted += out.size();

        std::vector<double> model_latency;
        std::uint64_t completed = 0;
        for (std::size_t i = 0; i < out.size(); ++i) {
            const std::uint64_t catalog = reqs[i].payload % (std::uint64_t{1} << kPayloadShift);
            if (out[i].result != serve::outcome::completed) {
                r.fail("batch " + std::to_string(batches) + " request " + std::to_string(i) +
                       ": outcome " + serve::outcome_name(out[i].result) + " (" +
                       out[i].detail + ")");
            } else if (out[i].value != oracle[catalog]) {
                r.fail("batch " + std::to_string(batches) + " request " + std::to_string(i) +
                       ": digest differs from the CPU oracle");
            } else {
                ++completed;
                model_latency.push_back(out[i].latency_s);
            }
        }
        if (!srv->devices_healthy()) r.fail("devices unhealthy after batch " + std::to_string(batches));

        const serve::stats_snapshot st = srv->stats();
        std::map<std::string, double> summary;
        summary["serve.completed"] = static_cast<double>(completed);
        summary["serve.attempts"] = static_cast<double>(st.attempts);
        summary["serve.retried"] =
            static_cast<double>(st.attempts - st.completed - st.deadline_expired);
        summary["serve.breaker_trips"] = static_cast<double>(st.breaker_trips);
        summary["serve.device_resets"] = static_cast<double>(st.device_resets);
        summary["faults.injected"] = static_cast<double>(injected);
        summary["model.latency_ms.p50"] = quantile(model_latency, 0.5) * 1e3;
        summary["model.latency_ms.p99"] = quantile(model_latency, 0.99) * 1e3;
        summary.merge(batch_sim.values());
        if (batches == 1) {
            first = summary;
            first_sim = batch_sim;
            if (first["faults.injected"] == 0.0 || first["serve.device_resets"] == 0.0) {
                r.fail("the fault plan injected no sticky device loss");
            }
        } else {
            for (const auto& [key, value] : summary) {
                // Modelled latencies are differences of absolute device
                // clocks, which keep growing across batches: later batches
                // may differ from the first in the last bits only.
                const double ref = first[key];
                const bool rounding_only = key.rfind("model.latency", 0) == 0 &&
                                           std::fabs(value - ref) <= 1e-9 * std::fabs(ref);
                if (value != ref && !rounding_only) {
                    r.fail("batch " + std::to_string(batches) + ": " + key + " is " +
                           cupp::trace::format("%.17g", value) + ", the first batch's " +
                           cupp::trace::format("%.17g", ref));
                }
            }
        }

        if (traced) {
            ++traced_batches;
            traced_run_ns.push_back(run_ns);
            for (const auto& [k, v] : summary) traced_counts[k] += v;
            traced_ns.insert(traced_ns.end(), request_ns.begin(), request_ns.end());
        } else {
            // The batch's wall scales with its handlers' average factor.
            timings.add_time(static_cast<double>(completed), run_ns,
                             sum(request_scaled_ns) / sum(request_ns));
            for (std::size_t i = 0; i < kBatch; ++i) {
                timings.add_op(request_ns[i], request_scaled_ns[i] / request_ns[i]);
            }
            untraced_ns.insert(untraced_ns.end(), request_ns.begin(), request_ns.end());
        }
    }
    srv.reset();
    r.counts["batches"] = static_cast<double>(batches);
    for (const auto& [k, v] : first) r.reference[k] = v;

    if (!opt.trace) {
        report_end_to_end(r, timings, speed, kWorkers * device_s + open_s);
        return r;
    }

    // --- per-layer attribution from the traced batches ----------------------
    const auto n = static_cast<double>(traced_batches * kBatch);
    const double wall_s = sum(traced_run_ns) * 1e-9;
    const double handler_s = sp.total_ms("serve.handler") * 1e-3;
    const EngineTotals engine = engine_totals();
    report_common_layers(r, rec.spans, n, wall_s, engine, kWorkers * device_s, open_s, traced_ns,
                         untraced_ns, first_sim);
    // The postprocess kernel runs at the device synchronize after its
    // stream-bound calls, outside any call's wall time.
    const double engine_stream =
        engine_totals([](const std::string& name) { return name == "serve scale_speeds"; }).host_s;
    const auto [call_s, calls] = call_wall();
    const double call_self = call_s - (engine.host_s - engine_stream);
    const double handler_self = handler_s - call_s - engine_stream;
    const double serve_self = wall_s - handler_s;

    r.metric("cupp.call.self_us",
             call_self / static_cast<double>(std::max<std::uint64_t>(1, calls)) * 1e6, "us");
    r.metric("gpusteer.self_ms", handler_self / n * 1e3, "ms");
    r.metric("serve.self_ms", serve_self / n * 1e3, "ms");
    r.metric("serve.handler_ms.p50", quantile(attempt_ns, 0.5) * 1e-6, "ms");
    r.metric("serve.handler_ms.p90", quantile(attempt_ns, 0.9) * 1e-6, "ms");
    r.metric("layers.self_sum_frac",
             self_sum_frac({engine.host_s, call_self, handler_self, serve_self}, wall_s),
             "ratio");
    const auto per_batch = [&](const char* key) {
        return traced_counts[key] / static_cast<double>(std::max<std::size_t>(1, traced_batches));
    };
    r.metric("serve.attempts", per_batch("serve.attempts"), "count");
    r.metric("serve.retried", per_batch("serve.retried"), "count");
    r.metric("serve.breaker_trips", per_batch("serve.breaker_trips"), "count");
    r.metric("serve.device_resets", per_batch("serve.device_resets"), "count");
    r.metric("faults.injected", per_batch("faults.injected"), "count");
    r.metric("cusim.api.malloc_per_request",
             static_cast<double>(cusim::prof::api_calls(cusim::prof::Api::Malloc)) / n, "count");
    return r;
}

}  // namespace perfbench
