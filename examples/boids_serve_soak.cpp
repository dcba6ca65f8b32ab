// boids_serve_soak — the cupp::serve chaos soak harness.
//
//   usage: boids_serve_soak [tenants] [requests_per_tenant]
//
// N tenant threads (default 64) hammer a 4-worker serve::server running
// boids-as-a-service while a CUPP_FAULTS plan injects transient faults —
// plus, composed on top via the faults API, sticky DeviceLost faults at
// the malloc site, which escape the plugin's own recovery and exercise the
// serve circuit breaker end to end (trip → reset → half-open probe →
// recovery).
//
// The harness exits non-zero unless every soak invariant holds:
//   * every request resolves, with an outcome in {completed,
//     admission_rejected, deadline_exceeded} — enforced by the type
//     system, re-checked here;
//   * zero cross-tenant corruption: every completed digest is
//     bit-identical to the fault-free serial CPU oracle of its scenario;
//   * the deterministic tight-deadline requests actually expired;
//   * when faults were armed, the breaker demonstrably tripped and
//     recovered, and — after faults::disable() — every device passes a
//     reset-free health check (nothing left poisoned or wedged);
//   * the books balance: submitted == completed + rejected + expired.
//
// Run it under CUPP_MEMCHECK / CUPP_TRACE and the exported artifacts feed
// cupp_report memcheck --require-clean and cupp_report trace
// --require-counters=cupp.serve (see tests/CMakeLists.txt).
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "cusim/faults.hpp"
#include "serve/boids_service.hpp"
#include "serve/serve.hpp"

namespace serve = cupp::serve;
namespace faults = cusim::faults;

namespace {

constexpr std::uint64_t kCatalogSize = 16;  ///< distinct payloads in play

int fail(const char* what) {
    std::fprintf(stderr, "boids_serve_soak: FAILED: %s\n", what);
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    const int tenants = argc > 1 ? std::atoi(argv[1]) : 64;
    const int per_tenant = argc > 2 ? std::atoi(argv[2]) : 2;

    // Compose breaker chaos on top of whatever CUPP_FAULTS armed: sticky
    // DeviceLost at the malloc site escapes GpuBoidsPlugin's internal
    // mid-step recovery (it only catches step-time losses), so it reaches
    // the serve layer and must trip the breaker.
    const bool chaos = faults::enabled();
    if (chaos) {
        auto rules = faults::rules();
        faults::Rule lost;
        lost.site = faults::Site::Malloc;
        lost.code = cusim::ErrorCode::DeviceLost;
        lost.every = 97;
        lost.max_injections = 4;
        rules.push_back(lost);
        faults::configure(std::move(rules), /*seed=*/2009,
                          faults::report_path());
    }
    std::printf("boids_serve_soak: %d tenants x %d requests, chaos %s\n", tenants,
                per_tenant, chaos ? "ON (plan + composed DeviceLost@malloc)" : "off");

    // The fault-free serial oracle, computed up front on the CPU.
    std::map<std::uint64_t, std::uint64_t> oracle;
    for (std::uint64_t p = 0; p < kCatalogSize; ++p) {
        oracle[p] = serve::boids_oracle_digest(serve::boids_catalog_entry(p));
    }

    serve::config cfg;
    cfg.workers = 4;
    cfg.queue_capacity = 32;  // tight enough that bursts can shed
    cfg.default_quota = {/*max_queued=*/2, /*max_in_flight=*/2};
    cfg.breaker_threshold = 1;  // any escaped sticky failure trips
    cfg.retry.initial_backoff_s = 10e-6;
    serve::server srv(cfg, serve::make_boids_handler());
    srv.start();

    // Every 8th request carries a budget that cannot possibly fit a boids
    // run: a deterministic deadline_exceeded, proving expiry never wedges
    // the worker or poisons the device for its neighbors.
    std::vector<std::thread> drivers;
    std::vector<std::vector<serve::response>> results(
        static_cast<std::size_t>(tenants));
    drivers.reserve(static_cast<std::size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
        drivers.emplace_back([&, t] {
            auto& mine = results[static_cast<std::size_t>(t)];
            for (int i = 0; i < per_tenant; ++i) {
                serve::request r;
                r.tenant = "tenant-" + std::to_string(t);
                r.payload =
                    static_cast<std::uint64_t>(t * per_tenant + i) % kCatalogSize;
                const int seq = t * per_tenant + i;
                if (seq % 8 == 3) r.deadline_s = 1e-6;
                mine.push_back(srv.submit_and_wait(std::move(r)));
            }
        });
    }
    for (auto& d : drivers) d.join();
    srv.stop();

    // --- invariants ---
    std::uint64_t completed = 0, rejected = 0, expired = 0, tight_expired = 0;
    for (int t = 0; t < tenants; ++t) {
        for (int i = 0; i < per_tenant; ++i) {
            const auto& r = results[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
            const std::uint64_t payload =
                static_cast<std::uint64_t>(t * per_tenant + i) % kCatalogSize;
            const int seq = t * per_tenant + i;
            switch (r.result) {
                case serve::outcome::completed:
                    ++completed;
                    if (r.value != oracle[payload]) {
                        std::fprintf(stderr,
                                     "tenant %d request %d: digest %016llx != oracle "
                                     "%016llx (payload %llu)\n",
                                     t, i, static_cast<unsigned long long>(r.value),
                                     static_cast<unsigned long long>(oracle[payload]),
                                     static_cast<unsigned long long>(payload));
                        return fail("cross-tenant corruption: digest != serial oracle");
                    }
                    break;
                case serve::outcome::admission_rejected:
                    ++rejected;
                    break;
                case serve::outcome::deadline_exceeded:
                    ++expired;
                    if (seq % 8 == 3) ++tight_expired;
                    break;
            }
        }
    }

    const auto s = srv.stats();
    const std::uint64_t total = static_cast<std::uint64_t>(tenants) *
                                static_cast<std::uint64_t>(per_tenant);
    std::printf(
        "outcomes: %llu completed, %llu shed, %llu expired "
        "(attempts %llu, transient escapes %llu, sticky %llu)\n",
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(rejected),
        static_cast<unsigned long long>(expired),
        static_cast<unsigned long long>(s.attempts),
        static_cast<unsigned long long>(s.transient_escapes),
        static_cast<unsigned long long>(s.sticky_failures));
    std::printf(
        "breaker: %llu trips, %llu probes, %llu recoveries, %llu device resets\n",
        static_cast<unsigned long long>(s.breaker_trips),
        static_cast<unsigned long long>(s.breaker_probes),
        static_cast<unsigned long long>(s.breaker_recoveries),
        static_cast<unsigned long long>(s.device_resets));

    if (completed + rejected + expired != total) {
        return fail("lost requests: outcomes do not sum to submissions");
    }
    if (s.submitted != total || s.completed != completed || s.rejected() != rejected) {
        return fail("stats counters disagree with observed outcomes");
    }
    if (completed == 0) return fail("nothing completed — the soak proved nothing");
    if (tight_expired == 0 && total >= 8) {
        return fail("no tight-deadline request expired");
    }
    if (chaos && s.breaker_trips == 0) {
        return fail("chaos plan armed but the breaker never tripped");
    }
    if (chaos && s.breaker_recoveries == 0) {
        return fail("breaker tripped but never recovered through a probe");
    }

    // Post-soak, reset-free health gate: with injection disarmed, every
    // worker device must be unpoisoned and able to synchronize as-is.
    faults::disable();
    if (!srv.devices_healthy()) {
        return fail("a device left the soak poisoned or wedged");
    }

    std::printf("boids_serve_soak: PASS\n");
    return 0;
}
