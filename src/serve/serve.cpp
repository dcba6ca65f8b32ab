#include "serve/serve.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <queue>
#include <string_view>
#include <thread>

#include "cupp/trace.hpp"
#include "cusim/device.hpp"
#include "cusim/registry.hpp"

namespace cupp::serve {

namespace tr = cupp::trace;

const char* outcome_name(outcome o) {
    switch (o) {
        case outcome::completed: return "completed";
        case outcome::admission_rejected: return "admission_rejected";
        case outcome::deadline_exceeded: return "deadline_exceeded";
    }
    return "unknown";
}

namespace detail {

/// Circuit-breaker state machine (per device / worker). Transitions:
///   closed --K consecutive sticky failures--> open (trip)
///   open --drain + device::reset()--> half_open
///   half_open --probe success x N--> closed (recovery)
///   half_open --probe sticky failure--> open (re-trip)
enum class breaker_state { closed, open, half_open };

struct worker_state {
    int index = 0;
    int ordinal = 0;
    cusim::Device* sim = nullptr;

    breaker_state brk = breaker_state::closed;
    int consecutive_sticky = 0;
    int probe_successes = 0;

    // run() mode bookkeeping (driver thread only).
    bool busy = false;
};

}  // namespace detail

using detail::breaker_state;
using detail::worker_state;

// --- worker_context ---------------------------------------------------------

cusim::Device& worker_context::sim() const { return *w_->sim; }
int worker_context::ordinal() const { return w_->ordinal; }
int worker_context::worker_index() const { return w_->index; }

double worker_context::remaining_budget_s() const {
    if (!std::isfinite(budget_s_)) return budget_s_;
    return budget_s_ - (w_->sim->absolute_host_time() - start_abs_s_);
}

void worker_context::check_deadline() const {
    const double remaining = remaining_budget_s();
    if (remaining < 0.0) {
        throw deadline_exceeded_error(
            tr::format("request budget of %.0f us exhausted (over by %.0f us)",
                       budget_s_ * 1e6, -remaining * 1e6));
    }
}

// --- server impl ------------------------------------------------------------

struct server::impl {
    struct job {
        request req;
        std::uint64_t id = 0;
        double arrival_virtual = 0.0;  ///< run() mode: modelled arrival
        std::size_t index = 0;         ///< run() mode: slot in the response array
        std::promise<response> promise;  ///< concurrent mode
    };

    struct tenant_state {
        std::uint32_t queued = 0;
        std::uint32_t in_flight = 0;
    };

    mutable std::mutex mu;
    std::condition_variable cv_work;
    std::deque<job> queue;
    std::map<std::string, tenant_state, std::less<>> tenants;
    std::uint32_t total_queued = 0;
    std::uint64_t next_id = 0;
    bool accepting = false;
    bool stopping = false;
    bool started = false;

    std::vector<worker_state> workers;
    std::vector<std::thread> threads;

    // Counters: per-server atomics (stats()) mirrored into the process-wide
    // metrics registry as cupp.serve.* so traces (and cupp_report trace)
    // see them.
    struct counters {
        std::atomic<std::uint64_t> submitted{0}, admitted{0}, completed{0};
        std::atomic<std::uint64_t> rejected_queue_full{0}, rejected_tenant_queued{0};
        std::atomic<std::uint64_t> rejected_tenant_in_flight{0}, rejected_shutdown{0};
        std::atomic<std::uint64_t> deadline_expired{0}, deadline_expired_queued{0};
        std::atomic<std::uint64_t> attempts{0}, sticky_failures{0}, transient_escapes{0};
        std::atomic<std::uint64_t> breaker_trips{0}, breaker_probes{0};
        std::atomic<std::uint64_t> breaker_recoveries{0}, device_resets{0};
    } c;

    static void count(std::atomic<std::uint64_t>& slot, const char* metric) {
        slot.fetch_add(1, std::memory_order_relaxed);
        tr::metrics().add(metric);
    }

    [[nodiscard]] tenant_quota quota_for(const config& cfg, std::string_view tenant) const {
        const auto it = cfg.tenant_quotas.find(tenant);
        return it != cfg.tenant_quotas.end() ? it->second : cfg.default_quota;
    }

    /// Admission decision for one request; the caller holds `mu` (or is the
    /// single run() driver thread). Returns nullptr when admitted (and the
    /// queue bookkeeping has been charged), else a static reason string.
    const char* try_admit(const config& cfg, const request& r, bool check_accepting) {
        count(c.submitted, "cupp.serve.submitted");
        if (check_accepting && !accepting) {
            count(c.rejected_shutdown, "cupp.serve.rejected.shutdown");
            return "server is shutting down";
        }
        if (total_queued >= cfg.queue_capacity) {
            count(c.rejected_queue_full, "cupp.serve.rejected.queue_full");
            return "global queue full";
        }
        const tenant_quota q = quota_for(cfg, r.tenant);
        tenant_state& t = tenants[r.tenant];
        if (q.max_in_flight == 0) {
            count(c.rejected_tenant_in_flight, "cupp.serve.rejected.tenant_in_flight");
            return "tenant in-flight quota is zero";
        }
        if (t.queued >= q.max_queued) {
            count(c.rejected_tenant_queued, "cupp.serve.rejected.tenant_queued");
            return "tenant queue quota exceeded";
        }
        ++t.queued;
        ++total_queued;
        count(c.admitted, "cupp.serve.admitted");
        return nullptr;
    }

    void on_dispatch(const std::string& tenant) {
        tenant_state& t = tenants[tenant];
        --t.queued;
        ++t.in_flight;
        --total_queued;
    }
    void on_finish(const std::string& tenant) { --tenants[tenant].in_flight; }
    void on_expire_queued(const std::string& tenant) {
        --tenants[tenant].queued;
        --total_queued;
    }

    [[nodiscard]] bool tenant_eligible(const config& cfg, std::string_view tenant) {
        return tenants[std::string(tenant)].in_flight <
               quota_for(cfg, tenant).max_in_flight;
    }
};

// --- construction -----------------------------------------------------------

server::server(config cfg, handler_fn handler)
    : cfg_(std::move(cfg)), handler_(std::move(handler)), impl_(new impl()) {
    if (cfg_.workers < 1) throw usage_error("cupp::serve: config.workers must be >= 1");
    if (cfg_.device_ordinals.empty()) {
        for (int i = 0; i < cfg_.workers; ++i) cfg_.device_ordinals.push_back(i);
    }
    if (static_cast<int>(cfg_.device_ordinals.size()) != cfg_.workers) {
        throw usage_error("cupp::serve: device_ordinals must name one device per worker");
    }
    // Register any missing ordinals now, on the constructing thread: the
    // Registry's device list is append-only and unsynchronised, so all
    // growth happens before any worker thread exists.
    auto& registry = cusim::Registry::instance();
    const int max_ordinal =
        *std::max_element(cfg_.device_ordinals.begin(), cfg_.device_ordinals.end());
    while (registry.device_count() <= max_ordinal) {
        registry.add_device(cusim::g80_properties());
    }
    impl_->workers.resize(static_cast<std::size_t>(cfg_.workers));
    for (int i = 0; i < cfg_.workers; ++i) {
        worker_state& w = impl_->workers[static_cast<std::size_t>(i)];
        w.index = i;
        w.ordinal = cfg_.device_ordinals[static_cast<std::size_t>(i)];
        w.sim = &registry.device(w.ordinal);
    }
}

server::~server() { stop(); }

// --- breaker ----------------------------------------------------------------

namespace {
void breaker_instant(const worker_state& w, const char* what) {
    if (!tr::enabled()) return;
    tr::emit_instant("serve.breaker", what,
                     w.sim->absolute_host_time() * 1e6,
                     {{"worker", w.index}, {"device", w.ordinal}});
}
}  // namespace

void server::breaker_on_sticky(worker_state& w) {
    impl::count(impl_->c.sticky_failures, "cupp.serve.sticky_failures");
    switch (w.brk) {
        case breaker_state::closed:
            if (++w.consecutive_sticky >= cfg_.breaker_threshold) {
                w.brk = breaker_state::open;
                impl::count(impl_->c.breaker_trips, "cupp.serve.breaker.trips");
                breaker_instant(w, "breaker trip");
            }
            break;
        case breaker_state::half_open:
            // The probe failed: straight back to open (and count the trip —
            // the device is provably still bad).
            w.brk = breaker_state::open;
            w.probe_successes = 0;
            impl::count(impl_->c.breaker_trips, "cupp.serve.breaker.trips");
            breaker_instant(w, "breaker re-trip");
            break;
        case breaker_state::open:
            break;
    }
}

void server::breaker_on_success(worker_state& w) {
    w.consecutive_sticky = 0;
    if (w.brk == breaker_state::half_open) {
        if (++w.probe_successes >= cfg_.breaker_probe_successes) {
            w.brk = breaker_state::closed;
            w.probe_successes = 0;
            impl::count(impl_->c.breaker_recoveries, "cupp.serve.breaker.recoveries");
            breaker_instant(w, "breaker recovered");
        }
    }
}

/// Pre-attempt recovery. A lost device is always reset (attempts cannot
/// run otherwise) — that alone does NOT touch the consecutive-failure
/// count, or the breaker could never trip across reset-recovered
/// failures. Only an *open* breaker transitions here: open → half_open,
/// making the next attempt a probe. "Drain" is local: one worker owns one
/// device and runs one request at a time, so reset_device() abandoning the
/// failed request's queued stream work (PR 5 semantics) is all there is.
void server::breaker_recover(worker_state& w) {
    if (w.sim->lost()) {
        w.sim->reset_device();
        impl::count(impl_->c.device_resets, "cupp.serve.device_resets");
    }
    if (w.brk == breaker_state::open) {
        w.brk = breaker_state::half_open;
        w.probe_successes = 0;
        breaker_instant(w, "breaker half-open");
    }
}

// --- one request ------------------------------------------------------------

response server::execute(worker_state& w, const request& r, std::uint64_t id,
                         double waited_s) {
    response resp;
    resp.id = id;
    resp.worker = w.index;

    double budget = r.deadline_s;
    if (!std::isfinite(budget)) budget = cfg_.default_deadline_s;
    if (std::isfinite(budget)) budget -= waited_s;

    cusim::Registry::instance().set_device(w.ordinal);
    cusim::Device& sim = *w.sim;
    const double t0 = sim.absolute_host_time();

    auto finish_deadline = [&](std::string detail) {
        // A deadline expiry must never leak a poisoned device or a wedged
        // stream queue into the next request: heal before the worker moves
        // on. (The sticky failure itself was already counted against the
        // breaker by the catch that preceded this expiry.)
        if (sim.lost()) {
            sim.reset_device();
            impl::count(impl_->c.device_resets, "cupp.serve.device_resets");
        }
        resp.result = outcome::deadline_exceeded;
        resp.detail = std::move(detail);
        impl::count(impl_->c.deadline_expired, "cupp.serve.deadline_expired");
    };

    int attempts = 0;
    for (;;) {
        const double elapsed = sim.absolute_host_time() - t0;
        const double remaining = std::isfinite(budget)
                                     ? budget - elapsed
                                     : std::numeric_limits<double>::infinity();
        if (remaining <= 0.0) {
            finish_deadline(tr::format("budget of %.0f us exhausted after %d attempt(s)",
                                       budget * 1e6, attempts));
            break;
        }
        if (attempts >= cfg_.max_attempts) {
            finish_deadline(tr::format("attempt budget (%d) exhausted", cfg_.max_attempts));
            break;
        }
        // A lost device (or a tripped breaker) is recovered *before* the
        // next attempt; the attempt below then runs in half-open probe mode.
        if (w.brk == breaker_state::open || sim.lost()) breaker_recover(w);
        if (w.brk == breaker_state::half_open) {
            impl::count(impl_->c.breaker_probes, "cupp.serve.breaker.probes");
        }

        ++attempts;
        impl::count(impl_->c.attempts, "cupp.serve.attempts");

        // Thread the remaining budget through every framework-level retry
        // this attempt performs (vector uploads, launches, stream syncs):
        // backoff inside the handler can never overrun the request.
        retry_policy pol = cfg_.retry;
        pol.max_total_backoff_s = std::min(pol.max_total_backoff_s, remaining);
        pol.jitter_seed = cfg_.retry.jitter_seed ^ (id * 0x9e3779b97f4a7c15ull);
        scoped_retry_policy scope(pol);

        worker_context ctx(w, t0, budget);
        try {
            resp.value = handler_(ctx, r);
            resp.result = outcome::completed;
            breaker_on_success(w);
            impl::count(impl_->c.completed, "cupp.serve.completed");
            break;
        } catch (const deadline_exceeded_error& e) {
            finish_deadline(e.what());
            break;
        } catch (const exception& e) {
            if (is_sticky(e.code()) || sim.lost()) {
                breaker_on_sticky(w);
            } else if (e.transient()) {
                // with_retry exhausted its attempts and rethrew: the
                // request-level loop re-executes the handler from scratch
                // (handlers are idempotent: a fresh plugin run).
                impl::count(impl_->c.transient_escapes, "cupp.serve.transient_escapes");
            } else {
                throw;  // a programming error, not a fault — surface it
            }
            // Serve-level backoff before the re-execution, clipped so it
            // cannot overrun the budget (the expiry check at the top of
            // the loop then fires deterministically).
            const double left = std::isfinite(budget)
                                    ? budget - (sim.absolute_host_time() - t0)
                                    : std::numeric_limits<double>::infinity();
            if (left <= 0.0) {
                finish_deadline(tr::format(
                    "budget exhausted after fault on attempt %d: %s", attempts, e.what()));
                break;
            }
            double backoff = pol.backoff_seconds(attempts);
            if (std::isfinite(left)) backoff = std::min(backoff, left);
            if (pol.sleep) {
                pol.sleep(backoff);
            } else {
                sim.advance_host(backoff);
            }
        }
    }

    resp.attempts = attempts;
    resp.service_s = sim.absolute_host_time() - t0;
    if (tr::enabled()) {
        tr::emit_complete(tr::format("serve.w%d", w.index),
                          tr::format("req %llu (%s)",
                                     static_cast<unsigned long long>(id),
                                     r.tenant.c_str()),
                          t0 * 1e6, resp.service_s * 1e6,
                          {{"outcome", outcome_name(resp.result)},
                           {"attempts", resp.attempts},
                           {"tenant", r.tenant}});
    }
    return resp;
}

// --- concurrent mode --------------------------------------------------------

void server::start() {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->started) throw usage_error("cupp::serve: server already started");
    impl_->started = true;
    impl_->accepting = true;
    impl_->stopping = false;
    impl_->threads.reserve(impl_->workers.size());
    for (worker_state& w : impl_->workers) {
        impl_->threads.emplace_back([this, &w] {
            cusim::Registry::instance().set_device(w.ordinal);
            impl* im = impl_.get();
            std::unique_lock<std::mutex> lk(im->mu);
            for (;;) {
                // First queued job whose tenant is under its in-flight cap.
                auto it = std::find_if(im->queue.begin(), im->queue.end(),
                                       [&](const impl::job& j) {
                                           return im->tenant_eligible(cfg_, j.req.tenant);
                                       });
                if (it == im->queue.end()) {
                    if (im->stopping && im->queue.empty()) break;
                    // Queue empty, or every queued tenant is at its cap:
                    // wait for a submit, a finish, or shutdown.
                    im->cv_work.wait(lk);
                    continue;
                }
                impl::job j = std::move(*it);
                im->queue.erase(it);
                im->on_dispatch(j.req.tenant);
                lk.unlock();

                response resp = execute(w, j.req, j.id, /*waited_s=*/0.0);
                resp.latency_s = resp.service_s;
                if (tr::enabled()) {
                    tr::metrics().record("cupp.serve.latency_s", resp.latency_s);
                }

                lk.lock();
                im->on_finish(j.req.tenant);
                im->cv_work.notify_all();
                lk.unlock();
                j.promise.set_value(std::move(resp));
                lk.lock();
            }
        });
    }
}

std::future<response> server::submit(request r) {
    impl* im = impl_.get();
    std::promise<response> promise;
    std::future<response> fut = promise.get_future();
    std::unique_lock<std::mutex> lk(im->mu);
    if (!im->started) throw usage_error("cupp::serve: submit() before start()");
    const std::uint64_t id = im->next_id++;
    const char* reason = im->try_admit(cfg_, r, /*check_accepting=*/true);
    if (reason != nullptr) {
        lk.unlock();
        response resp;
        resp.id = id;
        resp.result = outcome::admission_rejected;
        resp.detail = reason;
        promise.set_value(std::move(resp));
        return fut;
    }
    impl::job j;
    j.req = std::move(r);
    j.id = id;
    j.promise = std::move(promise);
    im->queue.push_back(std::move(j));
    im->cv_work.notify_one();
    return fut;
}

response server::submit_and_wait(request r) { return submit(std::move(r)).get(); }

void server::stop() {
    impl* im = impl_.get();
    {
        std::lock_guard<std::mutex> lock(im->mu);
        if (!im->started) return;
        im->accepting = false;
        im->stopping = true;
        im->cv_work.notify_all();
    }
    for (std::thread& t : im->threads) t.join();
    im->threads.clear();
    std::lock_guard<std::mutex> lock(im->mu);
    im->started = false;
    im->stopping = false;
}

bool server::running() const {
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->started;
}

// --- deterministic closed-loop mode ----------------------------------------

std::vector<response> server::run(std::vector<request> reqs) {
    impl* im = impl_.get();
    {
        std::lock_guard<std::mutex> lock(im->mu);
        if (im->started) throw usage_error("cupp::serve: run() while started");
    }
    im->accepting = true;

    std::vector<response> responses(reqs.size());
    // Arrival order: time, then submission index (stable for equal times).
    std::vector<std::size_t> order(reqs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return reqs[a].arrival_s < reqs[b].arrival_s;
    });

    struct completion {
        double time;
        std::uint64_t seq;
        int worker;
        std::string tenant;
        bool operator>(const completion& other) const {
            return time != other.time ? time > other.time : seq > other.seq;
        }
    };
    std::priority_queue<completion, std::vector<completion>, std::greater<completion>>
        completions;
    std::uint64_t completion_seq = 0;

    struct queued {
        std::size_t index;
        double arrival;
    };
    std::deque<queued> queue;

    auto deadline_of = [&](const request& r) {
        return std::isfinite(r.deadline_s) ? r.deadline_s : cfg_.default_deadline_s;
    };

    // Dispatches queued work onto free workers at virtual time `now`.
    auto try_dispatch = [&](double now) {
        // Queued requests whose budget already expired are shed before any
        // dispatch decision — deterministic queue-wait expiry.
        for (auto it = queue.begin(); it != queue.end();) {
            const request& r = reqs[it->index];
            if (now - it->arrival >= deadline_of(r)) {
                response& resp = responses[it->index];
                resp.id = it->index;
                resp.result = outcome::deadline_exceeded;
                resp.detail = tr::format("expired in queue after its %.0f us budget",
                                         deadline_of(r) * 1e6);
                // Client-perceived latency: the moment the budget ran out,
                // not the (later) dispatch scan that noticed it.
                resp.latency_s = deadline_of(r);
                im->on_expire_queued(r.tenant);
                impl::count(im->c.deadline_expired_queued,
                            "cupp.serve.deadline_expired_queued");
                it = queue.erase(it);
            } else {
                ++it;
            }
        }
        for (worker_state& w : im->workers) {
            if (w.busy) continue;
            const auto it = std::find_if(queue.begin(), queue.end(), [&](const queued& q) {
                return im->tenant_eligible(cfg_, reqs[q.index].tenant);
            });
            if (it == queue.end()) break;
            const queued q = *it;
            queue.erase(it);
            const request& r = reqs[q.index];
            im->on_dispatch(r.tenant);
            w.busy = true;
            const double waited = now - q.arrival;
            response resp = execute(w, r, q.index, waited);
            resp.latency_s = waited + resp.service_s;
            tr::metrics().record("cupp.serve.latency_s", resp.latency_s);
            completions.push({now + resp.service_s, completion_seq++, w.index, r.tenant});
            responses[q.index] = std::move(resp);
        }
    };

    auto pop_completion = [&](const completion& c) {
        im->workers[static_cast<std::size_t>(c.worker)].busy = false;
        im->on_finish(c.tenant);
    };

    for (const std::size_t idx : order) {
        const request& r = reqs[idx];
        while (!completions.empty() && completions.top().time <= r.arrival_s) {
            const completion c = completions.top();
            completions.pop();
            pop_completion(c);
            try_dispatch(c.time);
        }
        const char* reason = im->try_admit(cfg_, r, /*check_accepting=*/false);
        if (reason != nullptr) {
            response& resp = responses[idx];
            resp.id = idx;
            resp.result = outcome::admission_rejected;
            resp.detail = reason;
            continue;
        }
        queue.push_back({idx, r.arrival_s});
        try_dispatch(r.arrival_s);
    }
    while (!completions.empty()) {
        const completion c = completions.top();
        completions.pop();
        pop_completion(c);
        try_dispatch(c.time);
    }
    // Anything still queued can only be waiting on a deadline that never
    // comes (all workers idle): expire it at its own deadline.
    while (!queue.empty()) {
        double next = std::numeric_limits<double>::infinity();
        for (const queued& q : queue) {
            next = std::min(next, q.arrival + deadline_of(reqs[q.index]));
        }
        if (!std::isfinite(next)) break;  // unreachable: free workers take them
        try_dispatch(next);
    }

    im->accepting = false;
    return responses;
}

// --- introspection ----------------------------------------------------------

stats_snapshot server::stats() const {
    const impl::counters& c = impl_->c;
    stats_snapshot s;
    s.submitted = c.submitted.load(std::memory_order_relaxed);
    s.admitted = c.admitted.load(std::memory_order_relaxed);
    s.completed = c.completed.load(std::memory_order_relaxed);
    s.rejected_queue_full = c.rejected_queue_full.load(std::memory_order_relaxed);
    s.rejected_tenant_queued = c.rejected_tenant_queued.load(std::memory_order_relaxed);
    s.rejected_tenant_in_flight =
        c.rejected_tenant_in_flight.load(std::memory_order_relaxed);
    s.rejected_shutdown = c.rejected_shutdown.load(std::memory_order_relaxed);
    s.deadline_expired = c.deadline_expired.load(std::memory_order_relaxed);
    s.deadline_expired_queued = c.deadline_expired_queued.load(std::memory_order_relaxed);
    s.attempts = c.attempts.load(std::memory_order_relaxed);
    s.sticky_failures = c.sticky_failures.load(std::memory_order_relaxed);
    s.transient_escapes = c.transient_escapes.load(std::memory_order_relaxed);
    s.breaker_trips = c.breaker_trips.load(std::memory_order_relaxed);
    s.breaker_probes = c.breaker_probes.load(std::memory_order_relaxed);
    s.breaker_recoveries = c.breaker_recoveries.load(std::memory_order_relaxed);
    s.device_resets = c.device_resets.load(std::memory_order_relaxed);
    return s;
}

bool server::devices_healthy() const {
    for (const worker_state& w : impl_->workers) {
        if (w.sim->lost()) return false;
        try {
            w.sim->synchronize();
        } catch (...) {
            return false;
        }
    }
    return true;
}

}  // namespace cupp::serve
