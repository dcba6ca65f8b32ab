// cusim::faults + cupp resilience tests: deterministic injection triggers
// (nth / every / probability / filter), atomicity of injected failures,
// transparent transient retries with bounded backoff, sticky DeviceLost
// semantics with device::reset() recovery, exception-safety of the lazy
// containers, error-code preservation through cupp::rethrow, and the
// injection report / trace / metrics surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <thread>
#include <span>
#include <string>
#include <vector>

#include "cupp/cupp.hpp"
#include "cupp/detail/minijson.hpp"
#include "cusim/cusim.hpp"

namespace {

namespace tr = cupp::trace;
namespace faults = cusim::faults;
using cusim::Device;
using cusim::dim3;
using cusim::ErrorCode;
using cusim::KernelTask;
using cusim::LaunchConfig;
using cusim::ThreadCtx;

/// Every test starts with injection fully disarmed and clean metrics, and
/// leaves no sticky global state behind — so this binary behaves the same
/// whether or not CUPP_FAULTS is exported around it.
class FaultsTest : public ::testing::Test {
protected:
    void SetUp() override {
        faults::reset();
        tr::metrics().reset();
        tr::clear();
    }
    void TearDown() override {
        faults::reset();
        tr::disable();
        tr::clear();
        tr::metrics().reset();
    }
};

faults::Rule make_rule(faults::Site site, ErrorCode code) {
    faults::Rule r;
    r.site = site;
    r.code = code;
    return r;
}

KernelTask copy_first_kernel(ThreadCtx& ctx, cusim::DevicePtr<std::uint32_t> in,
                             cusim::DevicePtr<std::uint32_t> out) {
    if (ctx.global_id() == 0) out.write(ctx, 0, in.read(ctx, 0));
    co_return;
}

void tiny_launch(Device& dev, cusim::DevicePtr<std::uint32_t> in,
                 cusim::DevicePtr<std::uint32_t> out, const char* name) {
    dev.launch(LaunchConfig{dim3{1}, dim3{1}},
               [&](ThreadCtx& ctx) { return copy_first_kernel(ctx, in, out); }, name);
}

// --- enablement and the disabled fast path ---------------------------------

TEST_F(FaultsTest, DisabledByDefaultCountsAndInjectsNothing) {
    EXPECT_FALSE(faults::armed());
    EXPECT_FALSE(faults::enabled());

    Device dev(cusim::tiny_properties());
    auto ptr = dev.malloc_n<std::uint32_t>(4);
    const std::vector<std::uint32_t> data{1, 2, 3, 4};
    dev.upload(ptr, std::span<const std::uint32_t>(data));
    std::vector<std::uint32_t> back(4, 0);
    dev.download(std::span<std::uint32_t>(back), ptr);
    dev.synchronize();

    EXPECT_EQ(back, data);
    EXPECT_EQ(faults::injections(), 0u);
    // Not merely "no injection": disabled sites never reach the evaluator.
    EXPECT_EQ(faults::site_calls(faults::Site::Malloc), 0u);
    EXPECT_EQ(faults::site_calls(faults::Site::MemcpyH2D), 0u);
}

// --- triggers --------------------------------------------------------------

TEST_F(FaultsTest, NthTriggerFiresOnExactlyThatCall) {
    auto r = make_rule(faults::Site::Malloc, ErrorCode::MemoryAllocation);
    r.nth = 2;
    faults::configure({r});

    Device dev(cusim::tiny_properties());
    EXPECT_NO_THROW((void)dev.malloc_n<std::uint32_t>(4));  // call #1
    try {
        (void)dev.malloc_n<std::uint32_t>(4);  // call #2: injected
        FAIL() << "expected an injected MemoryAllocation";
    } catch (const cusim::Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::MemoryAllocation);
        EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("call #2"), std::string::npos);
    }
    EXPECT_NO_THROW((void)dev.malloc_n<std::uint32_t>(4));  // call #3
    EXPECT_EQ(faults::injections(), 1u);
    EXPECT_EQ(faults::site_calls(faults::Site::Malloc), 3u);
}

TEST_F(FaultsTest, EveryTriggerFiresPeriodically) {
    auto r = make_rule(faults::Site::MemcpyH2D, ErrorCode::TransferFailure);
    r.every = 2;
    faults::configure({r});

    Device dev(cusim::tiny_properties());
    auto ptr = dev.malloc_n<std::uint32_t>(4);
    const std::vector<std::uint32_t> data{1, 2, 3, 4};
    int thrown = 0;
    for (int i = 0; i < 4; ++i) {
        try {
            dev.upload(ptr, std::span<const std::uint32_t>(data));
        } catch (const cusim::Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::TransferFailure);
            ++thrown;
        }
    }
    EXPECT_EQ(thrown, 2);  // calls #2 and #4
    EXPECT_EQ(faults::injections(faults::Site::MemcpyH2D), 2u);
}

TEST_F(FaultsTest, ProbabilityTriggerIsSeedDeterministic) {
    auto run_pattern = [](std::uint64_t seed) {
        auto r = make_rule(faults::Site::Malloc, ErrorCode::MemoryAllocation);
        r.probability = 0.5;
        faults::configure({r}, seed);
        Device dev(cusim::tiny_properties());
        std::vector<bool> pattern;
        for (int i = 0; i < 64; ++i) {
            bool injected = false;
            try {
                dev.free_bytes(dev.malloc_bytes(64));
            } catch (const cusim::Error&) {
                injected = true;
            }
            pattern.push_back(injected);
        }
        faults::reset();
        return pattern;
    };

    const auto a = run_pattern(42);
    const auto b = run_pattern(42);
    const auto c = run_pattern(7);
    EXPECT_EQ(a, b) << "same seed must reproduce the same injections";
    EXPECT_NE(a, c) << "different seeds must explore different patterns";
    // p=0.5 over 64 calls: both outcomes must actually occur.
    EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
    EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST_F(FaultsTest, FilterRestrictsInjectionToMatchingLabels) {
    auto r = make_rule(faults::Site::Launch, ErrorCode::LaunchFailure);
    r.every = 1;
    r.filter = "mod";
    faults::configure({r});

    Device dev(cusim::tiny_properties());
    auto in = dev.malloc_n<std::uint32_t>(1);
    auto out = dev.malloc_n<std::uint32_t>(1);
    const std::vector<std::uint32_t> one{1};
    dev.upload(in, std::span<const std::uint32_t>(one));
    dev.upload(out, std::span<const std::uint32_t>(one));

    EXPECT_NO_THROW(tiny_launch(dev, in, out, "sim_kernel"));
    try {
        tiny_launch(dev, in, out, "mod_kernel");
        FAIL() << "expected the filtered launch to fail";
    } catch (const cusim::Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::LaunchFailure);
        EXPECT_NE(std::string(e.what()).find("mod_kernel"), std::string::npos);
    }
    EXPECT_EQ(faults::injections(), 1u);
    EXPECT_EQ(faults::site_calls(faults::Site::Launch), 2u);
}

TEST_F(FaultsTest, MaxInjectionsCapsARule) {
    auto r = make_rule(faults::Site::Sync, ErrorCode::NotReady);
    r.every = 1;
    r.max_injections = 2;
    faults::configure({r});

    Device dev(cusim::tiny_properties());
    EXPECT_THROW(dev.synchronize(), cusim::Error);
    EXPECT_THROW(dev.synchronize(), cusim::Error);
    EXPECT_NO_THROW(dev.synchronize());  // cap exhausted
    EXPECT_NO_THROW(dev.synchronize());
    EXPECT_EQ(faults::injections(), 2u);
    ASSERT_EQ(faults::rules().size(), 1u);
    EXPECT_EQ(faults::rules()[0].injected, 2u);
}

// --- atomicity of injected failures ----------------------------------------

TEST_F(FaultsTest, FailedTransferLeavesBothBuffersUntouched) {
    Device dev(cusim::tiny_properties());
    auto ptr = dev.malloc_n<std::uint32_t>(4);
    const std::vector<std::uint32_t> original{1, 2, 3, 4};
    dev.upload(ptr, std::span<const std::uint32_t>(original));

    auto up = make_rule(faults::Site::MemcpyH2D, ErrorCode::TransferFailure);
    up.nth = 1;
    auto down = make_rule(faults::Site::MemcpyD2H, ErrorCode::TransferFailure);
    down.nth = 1;
    faults::configure({up, down});

    const std::vector<std::uint32_t> replacement{9, 9, 9, 9};
    EXPECT_THROW(dev.upload(ptr, std::span<const std::uint32_t>(replacement)),
                 cusim::Error);

    std::vector<std::uint32_t> host(4, 77);
    EXPECT_THROW(dev.download(std::span<std::uint32_t>(host), ptr), cusim::Error);
    EXPECT_EQ(host, std::vector<std::uint32_t>(4, 77))
        << "a failed download must not scribble on the host buffer";

    faults::disable();
    dev.download(std::span<std::uint32_t>(host), ptr);
    EXPECT_EQ(host, original) << "a failed upload must not have moved any byte";
}

// --- transparent retries at the cupp layer ---------------------------------

KernelTask add_kernel(ThreadCtx& ctx, const int& a, const int& b, int& out) {
    if (ctx.global_id() == 0) out = a + b;
    co_return;
}
using AddK = KernelTask (*)(ThreadCtx&, const int&, const int&, int&);

TEST_F(FaultsTest, TransientLaunchFailureIsRetriedTransparently) {
    auto r = make_rule(faults::Site::Launch, ErrorCode::LaunchFailure);
    r.nth = 1;
    faults::configure({r});

    cupp::device d;
    int out = 0;
    cupp::kernel k(static_cast<AddK>(add_kernel), dim3{1}, dim3{32});
    k(d, 19, 23, out);  // first launch injected, retried, succeeds

    EXPECT_EQ(out, 42);
    EXPECT_EQ(faults::injections(faults::Site::Launch), 1u);
    EXPECT_EQ(faults::site_calls(faults::Site::Launch), 2u) << "one retry";
    EXPECT_GE(tr::metrics().counter("cupp.retry.attempts"), 1u);
    EXPECT_GE(tr::metrics().counter("cupp.retry.recovered"), 1u);
    EXPECT_EQ(tr::metrics().counter("cupp.retry.exhausted"), 0u);
}

TEST_F(FaultsTest, RetryExhaustionRethrowsWithBackoffSchedule) {
    auto r = make_rule(faults::Site::Launch, ErrorCode::LaunchFailure);
    r.every = 1;  // never recovers
    faults::configure({r});

    std::vector<double> backoffs;
    cupp::retry_policy policy;
    policy.max_attempts = 3;
    policy.initial_backoff_s = 1e-3;
    policy.backoff_multiplier = 2.0;
    policy.sleep = [&](double s) { backoffs.push_back(s); };

    cupp::device d;
    int out = 0;
    cupp::kernel k(static_cast<AddK>(add_kernel), dim3{1}, dim3{32});
    k.set_retry_policy(policy);
    try {
        k(d, 1, 2, out);
        FAIL() << "expected retry exhaustion";
    } catch (const cupp::kernel_error& e) {
        EXPECT_EQ(e.code(), ErrorCode::LaunchFailure);
        EXPECT_TRUE(e.transient());
    }
    // 3 attempts, backoff between them: 1 ms then 2 ms.
    ASSERT_EQ(backoffs.size(), 2u);
    EXPECT_DOUBLE_EQ(backoffs[0], 1e-3);
    EXPECT_DOUBLE_EQ(backoffs[1], 2e-3);
    EXPECT_EQ(faults::site_calls(faults::Site::Launch), 3u);
    EXPECT_GE(tr::metrics().counter("cupp.retry.exhausted"), 1u);
}

TEST_F(FaultsTest, MallocRetriesCoverTheContainers) {
    auto r = make_rule(faults::Site::Malloc, ErrorCode::MemoryAllocation);
    r.nth = 1;
    faults::configure({r});

    cupp::device d;
    cupp::memory1d<int> m(d, 8);  // first malloc injected, retried
    const std::vector<int> data{1, 2, 3, 4, 5, 6, 7, 8};
    m.copy_from_host(data.data());
    std::vector<int> back(8, 0);
    m.copy_to_host(back.data());

    EXPECT_EQ(back, data);
    EXPECT_EQ(faults::injections(faults::Site::Malloc), 1u);
    EXPECT_GE(faults::site_calls(faults::Site::Malloc), 2u);
}

// --- exception safety of the lazy containers -------------------------------

TEST_F(FaultsTest, VectorKeepsHostTruthWhenUploadsExhaustRetries) {
    cupp::device d;
    cupp::vector<int> v = {1, 2, 3, 4};

    auto r = make_rule(faults::Site::MemcpyH2D, ErrorCode::TransferFailure);
    r.every = 1;
    faults::configure({r});
    try {
        (void)v.transform(d);  // upload can never succeed
        FAIL() << "expected exhausted retries";
    } catch (const cupp::memory_error& e) {
        EXPECT_EQ(e.code(), ErrorCode::TransferFailure);
    }
    EXPECT_TRUE(v.host_data_valid());
    EXPECT_FALSE(v.device_data_valid());
    EXPECT_EQ(static_cast<int>(v[0]), 1) << "host contents must be intact";

    faults::reset();
    (void)v.transform(d);  // recovers with no further intervention
    EXPECT_TRUE(v.device_data_valid());
    EXPECT_EQ(v.snapshot(), (std::vector<int>{1, 2, 3, 4}));
}

TEST_F(FaultsTest, Memory1dDownloadFailureLeavesDestinationUntouched) {
    cupp::device d;
    const std::vector<int> data{4, 5, 6};
    cupp::memory1d<int> m(d, data.data(), data.data() + data.size());

    auto r = make_rule(faults::Site::MemcpyD2H, ErrorCode::TransferFailure);
    r.every = 1;
    faults::configure({r});
    std::vector<int> dst(3, -1);
    EXPECT_THROW(m.copy_to_host(dst.data()), cupp::memory_error);
    EXPECT_EQ(dst, std::vector<int>(3, -1));

    faults::reset();
    m.copy_to_host(dst.data());
    EXPECT_EQ(dst, data);
}

// --- sticky DeviceLost and reset recovery ----------------------------------

TEST_F(FaultsTest, DeviceLostIsStickyUntilReset) {
    auto r = make_rule(faults::Site::Launch, ErrorCode::DeviceLost);
    r.nth = 1;
    faults::configure({r});

    Device dev(cusim::tiny_properties());
    auto in = dev.malloc_n<std::uint32_t>(1);
    auto out = dev.malloc_n<std::uint32_t>(1);
    const std::vector<std::uint32_t> one{1};
    dev.upload(in, std::span<const std::uint32_t>(one));
    dev.upload(out, std::span<const std::uint32_t>(one));

    try {
        tiny_launch(dev, in, out, "doomed");
        FAIL() << "expected DeviceLost";
    } catch (const cusim::Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::DeviceLost);
    }
    EXPECT_TRUE(dev.lost());

    // Every subsequent operation is rejected — even after the plan is gone,
    // because a poisoned device outlives its fault plan.
    faults::disable();
    try {
        (void)dev.malloc_n<std::uint32_t>(1);
        FAIL() << "expected the poisoned device to reject the malloc";
    } catch (const cusim::Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::DeviceLost);
        EXPECT_NE(std::string(e.what()).find("poisoned"), std::string::npos);
    }

    dev.reset_device();
    EXPECT_FALSE(dev.lost());
    EXPECT_NO_THROW((void)dev.malloc_n<std::uint32_t>(1));
    EXPECT_NO_THROW(tiny_launch(dev, in, out, "revived"));
}

TEST_F(FaultsTest, ResetWipesContentsButKeepsAllocationsLive) {
    Device dev(cusim::tiny_properties());
    auto ptr = dev.malloc_n<std::uint32_t>(4);
    const std::vector<std::uint32_t> data{7, 7, 7, 7};
    dev.upload(ptr, std::span<const std::uint32_t>(data));

    dev.poison();
    EXPECT_TRUE(dev.lost());
    std::vector<std::uint32_t> back(4, 1);
    EXPECT_THROW(dev.download(std::span<std::uint32_t>(back), ptr), cusim::Error);

    dev.reset_device();
    // The address is still a live allocation (no realloc churn for
    // recovering containers) — but its contents did not survive the reset.
    dev.download(std::span<std::uint32_t>(back), ptr);
    EXPECT_EQ(back, std::vector<std::uint32_t>(4, 0));
}

TEST_F(FaultsTest, ResetMarksSurvivingAllocationsUndefinedForMemcheck) {
    cusim::memcheck::enable();
    cusim::memcheck::set_strict(false);
    cusim::memcheck::reset();

    Device dev(cusim::tiny_properties());
    auto in = dev.malloc_n<std::uint32_t>(1);
    auto out = dev.malloc_n<std::uint32_t>(1);
    const std::vector<std::uint32_t> one{1};
    dev.upload(in, std::span<const std::uint32_t>(one));
    dev.upload(out, std::span<const std::uint32_t>(one));

    tiny_launch(dev, in, out, "defined_read");
    EXPECT_EQ(cusim::memcheck::violation_count(cusim::memcheck::Kind::UninitializedRead),
              0u);

    dev.poison();
    dev.reset_device();
    tiny_launch(dev, in, out, "post_reset_read");
    EXPECT_GE(cusim::memcheck::violation_count(cusim::memcheck::Kind::UninitializedRead),
              1u)
        << "post-reset contents are zeroed but must count as never-written";

    cusim::memcheck::disable();
    cusim::memcheck::reset();
}

TEST_F(FaultsTest, CuppDeviceRecoversAfterReset) {
    auto r = make_rule(faults::Site::Launch, ErrorCode::DeviceLost);
    r.nth = 1;
    faults::configure({r});

    cupp::device d;
    cupp::vector<int> v = {1, 2, 3};
    int out = 0;
    cupp::kernel k(static_cast<AddK>(add_kernel), dim3{1}, dim3{32});
    EXPECT_THROW(k(d, 1, 2, out), cupp::device_lost_error);
    EXPECT_TRUE(d.lost());
    EXPECT_THROW((void)v.transform(d), cupp::device_lost_error);

    faults::disable();
    d.reset();
    EXPECT_FALSE(d.lost());
    v.abandon_device_data();  // device copy died with the device
    EXPECT_TRUE(v.host_data_valid());
    k(d, 20, 22, out);
    EXPECT_EQ(out, 42);
    EXPECT_EQ(v.snapshot(), (std::vector<int>{1, 2, 3}));
}

// --- error taxonomy --------------------------------------------------------

TEST_F(FaultsTest, RethrowPreservesEveryErrorCode) {
    struct Case {
        ErrorCode code;
        bool transient;
    };
    const Case cases[] = {
        {ErrorCode::MemoryAllocation, true},  {ErrorCode::TransferFailure, true},
        {ErrorCode::LaunchFailure, true},     {ErrorCode::NotReady, true},
        {ErrorCode::DeviceLost, false},       {ErrorCode::MemcheckViolation, false},
        {ErrorCode::InvalidValue, false},     {ErrorCode::InvalidConfiguration, false},
        {ErrorCode::InvalidDevicePointer, false},
    };
    for (const Case& c : cases) {
        try {
            cupp::rethrow(c.code, "probe");
            FAIL() << "rethrow must always throw";
        } catch (const cupp::exception& e) {
            EXPECT_EQ(e.code(), c.code) << cusim::error_string(c.code);
            EXPECT_EQ(e.transient(), c.transient) << cusim::error_string(c.code);
        }
    }
    // The distinct catchable types survive too.
    EXPECT_THROW(cupp::rethrow(ErrorCode::NotReady, "x"), cupp::not_ready_error);
    EXPECT_THROW(cupp::rethrow(ErrorCode::MemcheckViolation, "x"), cupp::memcheck_error);
    EXPECT_THROW(cupp::rethrow(ErrorCode::DeviceLost, "x"), cupp::device_lost_error);
    EXPECT_THROW(cupp::rethrow(ErrorCode::TransferFailure, "x"), cupp::memory_error);
    EXPECT_THROW(cupp::rethrow(ErrorCode::LaunchFailure, "x"), cupp::kernel_error);
    EXPECT_THROW(cupp::rethrow(ErrorCode::InvalidValue, "x"), cupp::usage_error);
}

// --- observability: metrics, trace, report ---------------------------------

TEST_F(FaultsTest, InjectionsFeedMetricsAndTheFaultsTrack) {
    tr::enable();
    auto r = make_rule(faults::Site::Malloc, ErrorCode::MemoryAllocation);
    r.nth = 1;
    faults::configure({r});

    Device dev(cusim::tiny_properties());
    EXPECT_THROW((void)dev.malloc_bytes(64), cusim::Error);

    EXPECT_EQ(tr::metrics().counter("cusim.faults.injections"), 1u);
    EXPECT_EQ(tr::metrics().counter("cusim.faults.malloc"), 1u);
    bool saw_instant = false;
    for (const auto& ev : tr::events()) {
        if (ev.track == "faults" && ev.name == "fault.malloc" &&
            ev.phase == tr::Phase::Instant) {
            saw_instant = true;
        }
    }
    EXPECT_TRUE(saw_instant) << "every injection is an instant on the faults track";
}

TEST_F(FaultsTest, ReportJsonRoundTripsThroughMinijson) {
    auto r1 = make_rule(faults::Site::Malloc, ErrorCode::MemoryAllocation);
    r1.nth = 1;
    auto r2 = make_rule(faults::Site::Sync, ErrorCode::NotReady);
    r2.every = 1;
    r2.max_injections = 1;
    faults::configure({r1, r2}, /*seed=*/7);

    Device dev(cusim::tiny_properties());
    EXPECT_THROW((void)dev.malloc_bytes(64), cusim::Error);
    EXPECT_THROW(dev.synchronize(), cusim::Error);
    EXPECT_NO_THROW(dev.synchronize());

    EXPECT_EQ(faults::plan_source(), "api");
    const auto root = cupp::minijson::parse(faults::report_json());
    const auto* f = root.find("faults");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->find("total_injections")->number(), 2.0);
    EXPECT_EQ(f->find("seed")->number(), 7.0);
    const auto* rules = f->find("rules");
    ASSERT_NE(rules, nullptr);
    ASSERT_EQ(rules->array().size(), 2u);
    EXPECT_EQ(rules->array()[0].find("site")->str(), "malloc");
    EXPECT_EQ(rules->array()[0].find("injected")->number(), 1.0);
    EXPECT_EQ(rules->array()[1].find("code")->str(), "not_ready");
    EXPECT_EQ(rules->array()[1].find("max")->number(), 1.0);
    // "max": 0 spells "uncapped" in the report.
    EXPECT_EQ(rules->array()[0].find("max")->number(), 0.0);

    const std::string path = testing::TempDir() + "cusim_faults_report_test.json";
    ASSERT_TRUE(faults::write_report(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(cupp::minijson::serialize(cupp::minijson::parse(text)),
              cupp::minijson::serialize(root));
}

// --- plan files ------------------------------------------------------------

std::string write_temp_plan(const char* name, const std::string& body) {
    const std::string path = testing::TempDir() + name;
    std::ofstream out(path, std::ios::trunc);
    out << body;
    return path;
}

TEST_F(FaultsTest, PlanFileConfiguresRulesAndSeed) {
    const std::string path = write_temp_plan("cusim_faults_plan_ok.json", R"({
        "seed": 99,
        "rules": [
            {"site": "launch", "code": "device_lost", "nth": 6, "max": 1},
            {"site": "memcpy_h2d", "code": "transfer_failure", "every": 7,
             "filter": "vector"}
        ]
    })");
    faults::enable_from_plan(path);

    EXPECT_TRUE(faults::armed());
    EXPECT_TRUE(faults::enabled());
    EXPECT_EQ(faults::plan_source(), path);
    const auto rules = faults::rules();
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0].site, faults::Site::Launch);
    EXPECT_EQ(rules[0].code, ErrorCode::DeviceLost);
    EXPECT_EQ(rules[0].nth, 6u);
    EXPECT_EQ(rules[0].max_injections, 1u);
    EXPECT_EQ(rules[1].site, faults::Site::MemcpyH2D);
    EXPECT_EQ(rules[1].every, 7u);
    EXPECT_EQ(rules[1].filter, "vector");
}

TEST_F(FaultsTest, MalformedPlansAreRejectedWithInvalidValue) {
    auto expect_rejected = [this](const char* name, const std::string& body) {
        const std::string path = write_temp_plan(name, body);
        try {
            faults::enable_from_plan(path);
            ADD_FAILURE() << name << ": expected the plan to be rejected";
        } catch (const cusim::Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidValue) << name;
            EXPECT_NE(std::string(e.what()).find("fault plan"), std::string::npos);
        }
        faults::reset();
    };

    expect_rejected("plan_bad_json.json", "{ not json");
    expect_rejected("plan_no_rules.json", R"({"seed": 1})");
    expect_rejected("plan_empty_rules.json", R"({"rules": []})");
    expect_rejected("plan_bad_site.json",
                    R"({"rules": [{"site": "warp", "code": "launch_failure",
                        "nth": 1}]})");
    expect_rejected("plan_bad_code.json",
                    R"({"rules": [{"site": "launch", "code": "success",
                        "nth": 1}]})");
    expect_rejected("plan_bad_probability.json",
                    R"({"rules": [{"site": "launch", "code": "launch_failure",
                        "probability": 1.5}]})");
    expect_rejected("plan_zero_max.json",
                    R"({"rules": [{"site": "launch", "code": "launch_failure",
                        "nth": 1, "max": 0}]})");
    expect_rejected("plan_no_trigger.json",
                    R"({"rules": [{"site": "launch", "code": "launch_failure"}]})");
    try {
        faults::enable_from_plan(testing::TempDir() + "definitely_missing_plan.json");
        ADD_FAILURE() << "expected a missing plan file to be rejected";
    } catch (const cusim::Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidValue);
    }
    EXPECT_FALSE(faults::armed()) << "no rejected plan may leave injection armed";
}

// --- retry_policy: deterministic jitter and the total-backoff cap ----------

TEST_F(FaultsTest, JitteredBackoffSequenceIsDeterministicAndPinned) {
    cupp::retry_policy policy;
    policy.initial_backoff_s = 1e-3;
    policy.backoff_multiplier = 2.0;
    policy.jitter = 0.25;
    policy.jitter_seed = 42;

    // The sequence is pure in (policy fields, failure_index): a second
    // policy with identical fields reproduces it bit-for-bit.
    cupp::retry_policy twin = policy;
    for (int k = 1; k <= 6; ++k) {
        const double b = policy.backoff_seconds(k);
        EXPECT_EQ(b, twin.backoff_seconds(k)) << "failure " << k;
        // Jitter stays inside [1-j, 1+j] around the exponential base.
        const double base = 1e-3 * std::pow(2.0, k - 1);
        EXPECT_GE(b, base * 0.75) << "failure " << k;
        EXPECT_LE(b, base * 1.25) << "failure " << k;
        EXPECT_NE(b, base) << "jitter must actually perturb failure " << k;
    }

    // A different seed yields a different sequence (de-synchronised
    // retriers), and jitter = 0 collapses to the exact exponential curve.
    cupp::retry_policy other = policy;
    other.jitter_seed = 43;
    EXPECT_NE(other.backoff_seconds(1), policy.backoff_seconds(1));
    cupp::retry_policy plain = policy;
    plain.jitter = 0.0;
    EXPECT_DOUBLE_EQ(plain.backoff_seconds(1), 1e-3);
    EXPECT_DOUBLE_EQ(plain.backoff_seconds(2), 2e-3);
    EXPECT_DOUBLE_EQ(plain.backoff_seconds(3), 4e-3);
}

TEST_F(FaultsTest, WithRetrySleepsExactlyTheJitteredSchedule) {
    auto r = make_rule(faults::Site::Launch, ErrorCode::LaunchFailure);
    r.every = 1;  // never recovers
    faults::configure({r});

    std::vector<double> slept;
    cupp::retry_policy policy;
    policy.max_attempts = 4;
    policy.initial_backoff_s = 1e-3;
    policy.backoff_multiplier = 2.0;
    policy.jitter = 0.5;
    policy.jitter_seed = 7;
    policy.sleep = [&](double s) { slept.push_back(s); };

    cupp::device d;
    int out = 0;
    cupp::kernel k(static_cast<AddK>(add_kernel), dim3{1}, dim3{32});
    k.set_retry_policy(policy);
    EXPECT_THROW(k(d, 1, 2, out), cupp::kernel_error);

    // 4 attempts => 3 backoffs, each exactly backoff_seconds(k).
    ASSERT_EQ(slept.size(), 3u);
    for (int k2 = 1; k2 <= 3; ++k2) {
        EXPECT_EQ(slept[static_cast<std::size_t>(k2 - 1)], policy.backoff_seconds(k2))
            << "backoff " << k2;
    }
}

TEST_F(FaultsTest, TotalBackoffCapRaisesDeadlineExceededBeforeSleeping) {
    auto r = make_rule(faults::Site::Launch, ErrorCode::LaunchFailure);
    r.every = 1;
    faults::configure({r});

    std::vector<double> slept;
    cupp::retry_policy policy;
    policy.max_attempts = 10;
    policy.initial_backoff_s = 1e-3;
    policy.backoff_multiplier = 2.0;
    policy.max_total_backoff_s = 4e-3;  // 1 ms + 2 ms fit; + 4 ms would not
    policy.sleep = [&](double s) { slept.push_back(s); };

    cupp::device d;
    int out = 0;
    cupp::kernel k(static_cast<AddK>(add_kernel), dim3{1}, dim3{32});
    k.set_retry_policy(policy);
    try {
        k(d, 1, 2, out);
        FAIL() << "expected the backoff cap to fire";
    } catch (const cupp::deadline_exceeded_error& e) {
        EXPECT_EQ(e.code(), ErrorCode::DeadlineExceeded);
        EXPECT_FALSE(e.transient()) << "this request is over; do not blind-retry";
    }
    // The third backoff (4 ms) was never slept: the cap throws first.
    ASSERT_EQ(slept.size(), 2u);
    EXPECT_DOUBLE_EQ(slept[0], 1e-3);
    EXPECT_DOUBLE_EQ(slept[1], 2e-3);
    EXPECT_EQ(faults::site_calls(faults::Site::Launch), 3u);
    EXPECT_GE(tr::metrics().counter("cupp.retry.deadline_capped"), 1u);
}

// --- the default policy: snapshots, overrides, and the old race ------------

TEST_F(FaultsTest, DefaultRetryPolicyIsASnapshotWithScopedOverrides) {
    const cupp::retry_policy saved = cupp::default_retry_policy();

    cupp::retry_policy custom;
    custom.max_attempts = 7;
    custom.initial_backoff_s = 5e-4;
    cupp::set_default_retry_policy(custom);
    EXPECT_EQ(cupp::default_retry_policy().max_attempts, 7);

    // A snapshot taken before a set_default call must not change under the
    // caller's feet (the old mutable-reference API allowed exactly that).
    const cupp::retry_policy snap = cupp::default_retry_policy();
    cupp::retry_policy changed = custom;
    changed.max_attempts = 2;
    cupp::set_default_retry_policy(changed);
    EXPECT_EQ(snap.max_attempts, 7) << "snapshots must be immutable copies";

    {
        cupp::retry_policy inner;
        inner.max_attempts = 11;
        cupp::scoped_retry_policy scope(inner);
        EXPECT_EQ(cupp::default_retry_policy().max_attempts, 11);
        {
            cupp::retry_policy innermost;
            innermost.max_attempts = 13;
            cupp::scoped_retry_policy nested(innermost);
            EXPECT_EQ(cupp::default_retry_policy().max_attempts, 13);
        }
        EXPECT_EQ(cupp::default_retry_policy().max_attempts, 11) << "nesting restores";
    }
    EXPECT_EQ(cupp::default_retry_policy().max_attempts, 2);

    cupp::set_default_retry_policy(saved);
}

TEST_F(FaultsTest, DefaultRetryPolicyConcurrentReadersAndWritersRaceFree) {
    // TSan regression for the old API, which handed out a mutable
    // reference to an unguarded global: concurrent default_retry_policy()
    // readers raced every set. Now both sides lock, and readers get a
    // consistent value copy — the correlated fields below would tear
    // otherwise. A -DCUPP_TSAN=ON build race-checks it.
    const cupp::retry_policy saved = cupp::default_retry_policy();
    {
        // Seed a policy that satisfies the writers' invariant before any
        // reader starts checking it.
        cupp::retry_policy p;
        p.max_attempts = 1;
        p.initial_backoff_s = 1e-3;
        cupp::set_default_retry_policy(p);
    }

    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                const cupp::retry_policy p = cupp::default_retry_policy();
                // Writers always keep initial_backoff_s == max_attempts
                // * 1e-3; a torn read breaks the invariant.
                if (p.initial_backoff_s != static_cast<double>(p.max_attempts) * 1e-3) {
                    torn.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 1; i <= 500; ++i) {
                cupp::retry_policy p;
                p.max_attempts = (t * 500 + i) % 16 + 1;
                p.initial_backoff_s = static_cast<double>(p.max_attempts) * 1e-3;
                cupp::set_default_retry_policy(p);
            }
        });
    }
    for (std::size_t i = 2; i < threads.size(); ++i) threads[i].join();
    stop.store(true, std::memory_order_relaxed);
    threads[0].join();
    threads[1].join();
    EXPECT_EQ(torn.load(), 0) << "default_retry_policy returned a torn snapshot";

    cupp::set_default_retry_policy(saved);
}

// --- service-layer error codes through the taxonomy ------------------------

TEST_F(FaultsTest, ServiceCodesSurviveRethrowWithoutCollapsing) {
    try {
        cupp::rethrow(ErrorCode::AdmissionRejected, "quota");
        FAIL() << "rethrow must throw";
    } catch (const cupp::admission_rejected_error& e) {
        EXPECT_EQ(e.code(), ErrorCode::AdmissionRejected);
        EXPECT_FALSE(e.transient());
        EXPECT_FALSE(cupp::is_sticky(e.code()));
    }
    try {
        cupp::rethrow(ErrorCode::DeadlineExceeded, "late");
        FAIL() << "rethrow must throw";
    } catch (const cupp::deadline_exceeded_error& e) {
        EXPECT_EQ(e.code(), ErrorCode::DeadlineExceeded);
        EXPECT_FALSE(e.transient());
        EXPECT_FALSE(cupp::is_sticky(e.code()));
    }
    EXPECT_STREQ(cusim::error_string(ErrorCode::AdmissionRejected),
                 "admission rejected (load shed)");
    EXPECT_STREQ(cusim::error_string(ErrorCode::DeadlineExceeded), "deadline exceeded");

    // Service outcomes are raised above the device: the fault planner must
    // refuse to inject them at device call sites.
    ErrorCode out{};
    EXPECT_FALSE(faults::parse_code("admission_rejected", &out));
    EXPECT_FALSE(faults::parse_code("deadline_exceeded", &out));
}

TEST_F(FaultsTest, SeedPlanIsTransientOnly) {
    faults::enable_with_seed(3);
    EXPECT_TRUE(faults::enabled());
    EXPECT_EQ(faults::plan_source(), "seed:3");
    const auto rules = faults::rules();
    ASSERT_FALSE(rules.empty());
    for (const auto& r : rules) {
        EXPECT_TRUE(cupp::is_transient(r.code))
            << "the default plan must never inject sticky faults";
        EXPECT_GT(r.probability, 0.0);
    }
}

}  // namespace
