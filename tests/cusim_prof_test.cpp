// cusim::prof tests: the callback API (Enter/Exit pairing, failed exits on
// injected faults, subscription lifecycle), session scoping (enable/start/
// stop, the cusimProfilerStart/Stop mirrors, cupp::prof_session), the
// activity aggregator's derived metrics (occupancy, coalescing efficiency,
// bank conflicts, useful-vs-charged bytes, the model snapshot), determinism
// of the aggregates across engine thread counts and stream counts, transfer
// totals, and the JSON report.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "cupp/cupp.hpp"
#include "cupp/detail/minijson.hpp"
#include "cusim/cusim.hpp"

namespace {

namespace prof = cusim::prof;
namespace faults = cusim::faults;
namespace tr = cupp::trace;
using cusim::CopyKind;
using cusim::Device;
using cusim::dim3;
using cusim::ErrorCode;
using cusim::KernelTask;
using cusim::LaunchConfig;
using cusim::ThreadCtx;

/// Every test starts with the profiler fully disarmed and ends the same
/// way, so this binary behaves identically with or without CUPP_PROF
/// exported around it.
class ProfTest : public ::testing::Test {
protected:
    void SetUp() override {
        prof::reset();
        faults::reset();
        tr::metrics().reset();
        tr::clear();
    }
    void TearDown() override {
        prof::reset();
        faults::reset();
        tr::disable();
        tr::clear();
        tr::metrics().reset();
    }
};

KernelTask scale_kernel(ThreadCtx& ctx, cusim::DevicePtr<float> data) {
    const auto i = ctx.global_id();
    if (i < data.size()) data.write(ctx, i, data.read(ctx, i) * 2.0f);
    co_return;
}

/// A 12-byte element: G80 cannot coalesce it, so every lane is charged the
/// flat uncoalesced transaction (CostModel::uncoalesced_access_bytes).
struct Vec3 {
    float x, y, z;
};

KernelTask vec3_kernel(ThreadCtx& ctx, cusim::DevicePtr<Vec3> data) {
    const auto i = ctx.global_id();
    if (i < data.size()) {
        Vec3 v = data.read(ctx, i);
        v.x += 1.0f;
        data.write(ctx, i, v);
    }
    co_return;
}

/// Mixed workload for the determinism sweeps: divergent branching, shared
/// memory traffic, a barrier, and global reads/writes.
KernelTask mixed_kernel(ThreadCtx& ctx, cusim::DevicePtr<std::uint32_t> data) {
    auto tile = ctx.shared_array<std::uint32_t>(ctx.block_dim().count());
    const unsigned tid = ctx.linear_tid();
    const auto gid = ctx.global_id();
    std::uint32_t v = gid < data.size() ? data.read(ctx, gid) : 0;
    if (ctx.branch((v & 1u) == 0u)) {
        v = v * 3u + 1u;
    } else {
        v /= 2u;
    }
    tile.write(ctx, tid, v);
    co_await ctx.syncthreads();
    const std::uint32_t neighbor = tile.read(ctx, (tid + 1) % ctx.block_dim().count());
    if (gid < data.size()) data.write(ctx, gid, v + neighbor);
    co_return;
}

/// Launch config for mixed_kernel: its shared tile needs 4 bytes per thread.
LaunchConfig mixed_cfg(unsigned grid_x, unsigned block_x) {
    return LaunchConfig{dim3{grid_x}, dim3{block_x}, block_x * 4};
}

cusim::DevicePtr<std::uint32_t> upload_iota(Device& dev, std::uint64_t n) {
    auto ptr = dev.malloc_n<std::uint32_t>(n);
    std::vector<std::uint32_t> host(n);
    for (std::uint64_t i = 0; i < n; ++i) host[i] = static_cast<std::uint32_t>(i);
    dev.upload(ptr, std::span<const std::uint32_t>(host));
    return ptr;
}

// --- enablement and the disabled fast path ----------------------------------

TEST_F(ProfTest, DisabledByDefaultRecordsNothing) {
    EXPECT_FALSE(prof::armed());
    EXPECT_FALSE(prof::collecting());

    Device dev(cusim::tiny_properties());
    auto data = upload_iota(dev, 64);
    dev.launch(mixed_cfg(2, 32),
               [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); }, "unprofiled");
    dev.synchronize();

    EXPECT_TRUE(prof::kernel_activities().empty());
    EXPECT_EQ(prof::api_calls(prof::Api::Malloc), 0u)
        << "disarmed sites must not even count";
    EXPECT_EQ(prof::api_calls(prof::Api::Launch), 0u);
    EXPECT_EQ(prof::transfer_totals(CopyKind::HostToDevice).count, 0u);
    EXPECT_FALSE(prof::model_snapshot().valid);
}

// --- the callback API -------------------------------------------------------

TEST_F(ProfTest, SubscribeFiresEnterExitPairsWithPayload) {
    std::vector<prof::ApiRecord> records;
    std::vector<std::string> labels;  // ApiRecord::label dies with the callback
    const std::uint64_t id = prof::subscribe([&](const prof::ApiRecord& r) {
        records.push_back(r);
        labels.emplace_back(r.label);
    });
    EXPECT_TRUE(prof::armed());
    EXPECT_FALSE(prof::collecting()) << "a subscriber alone must not collect";

    Device dev(cusim::tiny_properties());
    auto ptr = dev.malloc_bytes(256, std::source_location::current(), "probe");
    dev.free_bytes(ptr);

    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].api, prof::Api::Malloc);
    EXPECT_EQ(records[0].phase, prof::Phase::Enter);
    EXPECT_EQ(records[0].bytes, 256u);
    EXPECT_EQ(labels[0], "probe");
    EXPECT_EQ(records[1].api, prof::Api::Malloc);
    EXPECT_EQ(records[1].phase, prof::Phase::Exit);
    EXPECT_FALSE(records[1].failed);
    EXPECT_EQ(records[2].api, prof::Api::Free);
    EXPECT_EQ(records[2].phase, prof::Phase::Enter);
    EXPECT_EQ(records[3].phase, prof::Phase::Exit);

    ASSERT_TRUE(prof::unsubscribe(id));
    EXPECT_FALSE(prof::armed());
    (void)dev.malloc_bytes(64);
    EXPECT_EQ(records.size(), 4u) << "no callbacks after unsubscribe";
}

TEST_F(ProfTest, UnsubscribeUnknownIdReturnsFalse) {
    EXPECT_FALSE(prof::unsubscribe(0));
    EXPECT_FALSE(prof::unsubscribe(987654));
    const std::uint64_t id = prof::subscribe([](const prof::ApiRecord&) {});
    EXPECT_TRUE(prof::unsubscribe(id));
    EXPECT_FALSE(prof::unsubscribe(id)) << "double unsubscribe";
}

TEST_F(ProfTest, ApiCallCountersTrackEveryEntryPoint) {
    prof::enable();
    Device dev(cusim::tiny_properties());
    auto data = upload_iota(dev, 32);  // malloc + h2d
    std::vector<std::uint32_t> back(32, 0);
    dev.download(std::span<std::uint32_t>(back), data);  // d2h
    dev.launch(mixed_cfg(1, 32),
               [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); }, "counted");
    dev.synchronize();

    EXPECT_EQ(prof::api_calls(prof::Api::Malloc), 1u);
    EXPECT_EQ(prof::api_calls(prof::Api::MemcpyH2D), 1u);
    EXPECT_EQ(prof::api_calls(prof::Api::MemcpyD2H), 1u);
    EXPECT_EQ(prof::api_calls(prof::Api::Launch), 1u);
    EXPECT_EQ(prof::api_calls(prof::Api::Sync), 1u);
    EXPECT_EQ(prof::api_calls(prof::Api::Free), 0u);
    EXPECT_EQ(tr::metrics().counter("cusim.prof.api_calls"), 5u);
}

TEST_F(ProfTest, InjectedFaultIsVisibleAsFailedExit) {
    faults::Rule r;
    r.site = faults::Site::Launch;
    r.code = ErrorCode::LaunchFailure;
    r.nth = 1;
    faults::configure({r});

    std::vector<prof::ApiRecord> launches;
    const std::uint64_t id = prof::subscribe([&](const prof::ApiRecord& rec) {
        if (rec.api == prof::Api::Launch) launches.push_back(rec);
    });

    Device dev(cusim::tiny_properties());
    auto data = upload_iota(dev, 32);
    const auto try_launch = [&] {
        dev.launch(mixed_cfg(1, 32),
                   [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); }, "doomed");
    };
    EXPECT_THROW(try_launch(), cusim::Error);

    ASSERT_EQ(launches.size(), 2u) << "Enter and Exit even when the call throws";
    EXPECT_EQ(launches[0].phase, prof::Phase::Enter);
    EXPECT_FALSE(launches[0].failed);
    EXPECT_EQ(launches[1].phase, prof::Phase::Exit);
    EXPECT_TRUE(launches[1].failed) << "the injected fault must mark the Exit";

    launches.clear();
    EXPECT_NO_THROW(try_launch());
    ASSERT_EQ(launches.size(), 2u);
    EXPECT_FALSE(launches[1].failed);
    prof::unsubscribe(id);
}

TEST_F(ProfTest, InjectedLaunchFaultLeavesNoHalfRecordedActivity) {
    prof::enable();
    faults::Rule r;
    r.site = faults::Site::Launch;
    r.code = ErrorCode::LaunchFailure;
    r.nth = 1;
    faults::configure({r});

    Device dev(cusim::tiny_properties());
    auto data = upload_iota(dev, 32);
    const auto try_launch = [&] {
        dev.launch(mixed_cfg(1, 32),
                   [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); }, "atomic");
    };
    EXPECT_THROW(try_launch(), cusim::Error);
    EXPECT_TRUE(prof::kernel_activities().empty())
        << "a launch that never ran must not leave a partial activity";

    EXPECT_NO_THROW(try_launch());
    const auto activities = prof::kernel_activities();
    ASSERT_EQ(activities.size(), 1u);
    EXPECT_EQ(activities[0].launches, 1u);
    EXPECT_GT(activities[0].device_seconds, 0.0);
}

// --- sessions ---------------------------------------------------------------

TEST_F(ProfTest, StopAndStartScopeCollection) {
    prof::enable();
    EXPECT_TRUE(prof::collecting());
    Device dev(cusim::tiny_properties());
    auto data = upload_iota(dev, 32);
    const auto launch_once = [&](const char* name) {
        dev.launch(mixed_cfg(1, 32),
                   [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); }, name);
    };

    prof::stop();
    EXPECT_FALSE(prof::collecting());
    EXPECT_TRUE(prof::armed()) << "callbacks stay armed while paused";
    launch_once("outside_session");
    EXPECT_TRUE(prof::kernel_activities().empty());

    prof::start();
    EXPECT_TRUE(prof::collecting());
    launch_once("inside_session");
    const auto activities = prof::kernel_activities();
    ASSERT_EQ(activities.size(), 1u);
    EXPECT_EQ(activities[0].name, "inside_session");

    // enable() started one session; stop/start added one transition each.
    EXPECT_EQ(prof::session_starts(), 2u);
    EXPECT_EQ(prof::session_stops(), 1u);
}

TEST_F(ProfTest, StartIsANoOpWithoutAnEnabledCollector) {
    prof::start();
    EXPECT_FALSE(prof::collecting());
    EXPECT_EQ(prof::session_starts(), 0u);
    prof::stop();
    EXPECT_EQ(prof::session_stops(), 0u);
}

TEST_F(ProfTest, RuntimeMirrorsStartAndStopSessions) {
    EXPECT_EQ(cusim::rt::cusimProfilerStop(), ErrorCode::Success)
        << "a mirror without an enabled collector still succeeds";
    EXPECT_EQ(prof::session_stops(), 0u);

    prof::enable();
    EXPECT_EQ(cusim::rt::cusimProfilerStop(), ErrorCode::Success);
    EXPECT_FALSE(prof::collecting());
    EXPECT_EQ(cusim::rt::cusimProfilerStart(), ErrorCode::Success);
    EXPECT_TRUE(prof::collecting());
    EXPECT_EQ(prof::session_starts(), 2u);
    EXPECT_EQ(prof::session_stops(), 1u);
    // The mirrors are themselves instrumented entry points.
    EXPECT_EQ(prof::api_calls(prof::Api::ProfilerStart), 1u);
    EXPECT_GE(prof::api_calls(prof::Api::ProfilerStop), 1u);
}

TEST_F(ProfTest, ProfSessionRaiiScopesCollection) {
    prof::enable();
    prof::stop();
    EXPECT_FALSE(prof::collecting());
    {
        cupp::prof_session roi;
        EXPECT_TRUE(prof::collecting());
        cupp::prof_session moved = std::move(roi);
        EXPECT_TRUE(prof::collecting()) << "the move must not end the session";
    }
    EXPECT_FALSE(prof::collecting()) << "leaving the scope ends the session";
    EXPECT_EQ(prof::session_starts(), 2u);
    EXPECT_EQ(prof::session_stops(), 2u);
}

// --- derived metrics --------------------------------------------------------

TEST_F(ProfTest, OccupancyMatchesResidencyAndWarpMath) {
    prof::enable();
    Device dev(cusim::tiny_properties());
    auto data = upload_iota(dev, 16 * 64);
    dev.launch(mixed_cfg(16, 64),
               [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); }, "occ");

    const auto activities = prof::kernel_activities();
    ASSERT_EQ(activities.size(), 1u);
    const auto& k = activities[0];
    const unsigned max_warps = prof::model_snapshot().max_warps_per_mp;
    ASSERT_GT(max_warps, 0u);
    const unsigned resident = k.totals.resident_blocks_per_mp;
    ASSERT_GT(resident, 0u);
    // 64-thread blocks are 2 warps each.
    const unsigned expect_warps = std::min(resident * 2, max_warps);
    EXPECT_DOUBLE_EQ(k.occupancy(max_warps),
                     static_cast<double>(expect_warps) / max_warps);
    EXPECT_GT(k.occupancy(max_warps), 0.0);
    EXPECT_LE(k.occupancy(max_warps), 1.0);
}

TEST_F(ProfTest, CoalescedFloatTrafficIsFullEfficiency) {
    prof::enable();
    Device dev(cusim::tiny_properties());
    auto data = dev.malloc_n<float>(64);
    const std::vector<float> host(64, 1.0f);
    dev.upload(data, std::span<const float>(host));
    dev.launch(LaunchConfig{dim3{2}, dim3{32}},
               [&](ThreadCtx& ctx) { return scale_kernel(ctx, data); }, "floats");

    const auto activities = prof::kernel_activities();
    ASSERT_EQ(activities.size(), 1u);
    const auto& t = activities[0].totals;
    // 4-byte elements coalesce: charged == useful == 64 reads + 64 writes.
    EXPECT_EQ(t.useful_bytes_read, 64u * sizeof(float));
    EXPECT_EQ(t.bytes_read, 64u * sizeof(float));
    EXPECT_EQ(t.useful_bytes_written, 64u * sizeof(float));
    EXPECT_EQ(t.bytes_written, 64u * sizeof(float));
    EXPECT_DOUBLE_EQ(activities[0].coalescing_efficiency(), 1.0);
}

TEST_F(ProfTest, UncoalescedStructTrafficChargesPadding) {
    prof::enable();
    Device dev(cusim::tiny_properties());
    auto data = dev.malloc_n<Vec3>(64);
    const std::vector<Vec3> host(64, Vec3{1, 2, 3});
    dev.upload(data, std::span<const Vec3>(host));
    dev.launch(LaunchConfig{dim3{2}, dim3{32}},
               [&](ThreadCtx& ctx) { return vec3_kernel(ctx, data); }, "vec3s");

    const auto activities = prof::kernel_activities();
    ASSERT_EQ(activities.size(), 1u);
    const auto& k = activities[0];
    const cusim::CostModel cm;
    const std::uint64_t charged = cm.charged_bytes(sizeof(Vec3));
    ASSERT_GT(charged, sizeof(Vec3)) << "12-byte elements must not coalesce";
    EXPECT_EQ(k.totals.useful_bytes_read, 64u * sizeof(Vec3));
    EXPECT_EQ(k.totals.bytes_read, 64u * charged);
    EXPECT_DOUBLE_EQ(k.coalescing_efficiency(),
                     static_cast<double>(sizeof(Vec3)) / static_cast<double>(charged));
}

KernelTask shared_stride_kernel(ThreadCtx& ctx, unsigned stride) {
    auto tile = ctx.shared_array<std::uint32_t>(ctx.block_dim().count() * stride);
    tile.write(ctx, ctx.linear_tid() * stride, ctx.linear_tid());
    co_return;
}

KernelTask shared_broadcast_kernel(ThreadCtx& ctx, cusim::DevicePtr<std::uint32_t> out) {
    auto tile = ctx.shared_array<std::uint32_t>(32);
    if (ctx.linear_tid() == 0) tile.write(ctx, 0, 42);
    co_await ctx.syncthreads();
    const std::uint32_t v = tile.read(ctx, 0);  // every lane, same word
    if (ctx.global_id() == 0) out.write(ctx, 0, v);
    co_return;
}

TEST_F(ProfTest, BankConflictsCountSerializedAccessesOnly) {
    prof::enable();
    Device dev(cusim::tiny_properties());

    // Stride 1: each lane of a half-warp claims its own bank — no conflicts.
    dev.launch(LaunchConfig{dim3{1}, dim3{32}, 32 * 4},
               [&](ThreadCtx& ctx) { return shared_stride_kernel(ctx, 1); }, "stride1");
    // Stride 16 words: every lane maps to bank 0 with a different word —
    // 15 serialized accesses per half-warp (the first claims the bank).
    dev.launch(LaunchConfig{dim3{1}, dim3{32}, 32 * 16 * 4},
               [&](ThreadCtx& ctx) { return shared_stride_kernel(ctx, 16); },
               "stride16");

    const auto activities = prof::kernel_activities();
    ASSERT_EQ(activities.size(), 2u);
    for (const auto& k : activities) {
        if (k.name == "stride1") {
            EXPECT_EQ(k.totals.shared_accesses, 32u);
            EXPECT_EQ(k.totals.shared_bank_conflicts, 0u);
        } else {
            EXPECT_EQ(k.name, "stride16");
            EXPECT_EQ(k.totals.shared_accesses, 32u);
            EXPECT_EQ(k.totals.shared_bank_conflicts, 30u) << "15 per half-warp";
        }
    }
}

TEST_F(ProfTest, SameWordBroadcastIsConflictFree) {
    prof::enable();
    Device dev(cusim::tiny_properties());
    auto out = dev.malloc_n<std::uint32_t>(1);
    dev.launch(LaunchConfig{dim3{1}, dim3{32}, 32 * 4},
               [&](ThreadCtx& ctx) { return shared_broadcast_kernel(ctx, out); },
               "broadcast");

    const auto activities = prof::kernel_activities();
    ASSERT_EQ(activities.size(), 1u);
    // 1 write + 32 broadcast reads; a same-word half-warp never serialises.
    EXPECT_EQ(activities[0].totals.shared_accesses, 33u);
    EXPECT_EQ(activities[0].totals.shared_bank_conflicts, 0u);
    std::vector<std::uint32_t> back(1, 0);
    dev.download(std::span<std::uint32_t>(back), out);
    EXPECT_EQ(back[0], 42u);
}

TEST_F(ProfTest, ModelSnapshotComesFromTheFirstLaunch) {
    prof::enable();
    EXPECT_FALSE(prof::model_snapshot().valid);

    cusim::DeviceProperties props = cusim::tiny_properties();
    Device dev(props);
    auto data = upload_iota(dev, 32);
    dev.launch(mixed_cfg(1, 32),
               [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); }, "snap");

    const prof::ModelSnapshot m = prof::model_snapshot();
    ASSERT_TRUE(m.valid);
    EXPECT_DOUBLE_EQ(m.core_clock_hz, props.cost.core_clock_hz);
    EXPECT_EQ(m.multiprocessors, props.cost.multiprocessors);
    EXPECT_EQ(m.max_warps_per_mp, props.cost.max_warps_per_mp);
    EXPECT_EQ(m.divergence_penalty, props.cost.divergence_penalty);
    EXPECT_DOUBLE_EQ(m.mem_bandwidth_bytes_per_s, props.cost.mem_bandwidth_bytes_per_s);
    EXPECT_DOUBLE_EQ(m.ridge_cycles_per_byte(),
                     props.cost.core_clock_hz * props.cost.multiprocessors /
                         props.cost.mem_bandwidth_bytes_per_s);

    const auto activities = prof::kernel_activities();
    ASSERT_EQ(activities.size(), 1u);
    EXPECT_GT(activities[0].divergence_serialization(m.divergence_penalty), 1.0)
        << "mixed_kernel branches divergently within every warp";
    EXPECT_GT(activities[0].arithmetic_intensity(), 0.0);
}

// --- determinism ------------------------------------------------------------

/// Canonical text form of every activity, excluding the two intentionally
/// non-deterministic pieces: host wall seconds and the device ordinal in
/// lane names (each Device instance gets a fresh trace ordinal).
std::string summarize_activities() {
    std::string out;
    for (const auto& k : prof::kernel_activities()) {
        const auto& t = k.totals;
        out += cupp::trace::format(
            "%s g=%u,%u,%u b=%u,%u,%u sh=%u n=%llu dev=%.17g blocks=%llu "
            "warps=%llu threads=%llu cc=%llu sc=%llu br=%llu bw=%llu ubr=%llu "
            "ubw=%llu div=%llu bev=%llu sa=%llu sbc=%llu sync=%llu res=%u\n",
            k.name.c_str(), k.grid.x, k.grid.y, k.grid.z, k.block.x, k.block.y,
            k.block.z, k.shared_bytes, static_cast<unsigned long long>(k.launches),
            k.device_seconds, static_cast<unsigned long long>(t.blocks),
            static_cast<unsigned long long>(t.warps),
            static_cast<unsigned long long>(t.threads),
            static_cast<unsigned long long>(t.compute_cycles),
            static_cast<unsigned long long>(t.stall_cycles),
            static_cast<unsigned long long>(t.bytes_read),
            static_cast<unsigned long long>(t.bytes_written),
            static_cast<unsigned long long>(t.useful_bytes_read),
            static_cast<unsigned long long>(t.useful_bytes_written),
            static_cast<unsigned long long>(t.divergent_events),
            static_cast<unsigned long long>(t.branch_evaluations),
            static_cast<unsigned long long>(t.shared_accesses),
            static_cast<unsigned long long>(t.shared_bank_conflicts),
            static_cast<unsigned long long>(t.syncthreads_count),
            t.resident_blocks_per_mp);
        for (const auto& lane : k.lanes) {
            const auto dot = lane.lane.find('.');
            out += cupp::trace::format(
                "  lane %s n=%llu dev=%.17g\n",
                dot == std::string::npos ? lane.lane.c_str()
                                         : lane.lane.c_str() + dot + 1,
                static_cast<unsigned long long>(lane.launches),
                lane.device_seconds);
        }
    }
    return out;
}

TEST_F(ProfTest, AggregatesAreBitIdenticalAcrossEngineThreads) {
    const auto run_with_threads = [](unsigned threads) {
        prof::reset();
        prof::enable();
        cusim::DeviceProperties props = cusim::tiny_properties();
        props.sim_threads = threads;
        Device dev(props);
        auto data = upload_iota(dev, 64 * 96);
        for (int iter = 0; iter < 3; ++iter) {
            dev.launch(mixed_cfg(64, 96),
                       [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); },
                       "sweep");
        }
        std::string summary = summarize_activities();
        prof::reset();
        return summary;
    };

    const std::string serial = run_with_threads(1);
    const std::string two = run_with_threads(2);
    const std::string eight = run_with_threads(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, two) << "2 pool workers must reproduce the serial aggregates";
    EXPECT_EQ(serial, eight) << "8 pool workers must reproduce the serial aggregates";
}

TEST_F(ProfTest, TotalsAreIdenticalAcrossStreamCounts) {
    // The same 8 launches of the same kernel, spread over 1 vs. 2 streams.
    // Per-lane attribution differs by design; the kernel totals must not.
    const auto run_with_streams = [](unsigned nstreams) {
        prof::reset();
        prof::enable();
        Device dev(cusim::tiny_properties());
        auto data = upload_iota(dev, 64);
        std::vector<cusim::StreamId> streams(nstreams);
        for (auto& s : streams) s = dev.stream_create();
        for (int i = 0; i < 8; ++i) {
            dev.launch_async(mixed_cfg(2, 32),
                             [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); },
                             "streamed", streams[i % nstreams]);
        }
        dev.synchronize();
        const auto activities = prof::kernel_activities();
        std::string summary;
        if (activities.size() == 1) {
            const auto& k = activities[0];
            std::size_t lane_launches = 0;
            for (const auto& l : k.lanes) lane_launches += l.launches;
            summary = cupp::trace::format(
                "n=%llu dev=%.17g cc=%llu br=%llu div=%llu lanes=%zu lane_n=%zu",
                static_cast<unsigned long long>(k.launches), k.device_seconds,
                static_cast<unsigned long long>(k.totals.compute_cycles),
                static_cast<unsigned long long>(k.totals.bytes_read),
                static_cast<unsigned long long>(k.totals.divergent_events),
                k.lanes.size(), lane_launches);
        }
        prof::reset();
        return summary;
    };

    const std::string one = run_with_streams(1);
    std::string two = run_with_streams(2);
    EXPECT_FALSE(one.empty());
    // Lane *count* is the only legitimate difference: normalise it away.
    const auto lanes_pos = one.find("lanes=");
    ASSERT_NE(lanes_pos, std::string::npos);
    EXPECT_EQ(one.substr(0, lanes_pos), two.substr(0, two.find("lanes=")));
    EXPECT_NE(one.substr(lanes_pos), "") << one;
    EXPECT_TRUE(one.find("lane_n=8") != std::string::npos) << one;
    EXPECT_TRUE(two.find("lane_n=8") != std::string::npos) << two;
}

TEST_F(ProfTest, UnnamedKernelsShareOneActivityRow) {
    // One config launched six times without a name, alternating between the
    // default stream and an explicit one: every launch has the same key
    // ("kernel" plus the geometry), so all six aggregate into one row that
    // splits over the two lanes.
    prof::enable();
    Device dev(cusim::tiny_properties());
    auto data = upload_iota(dev, 64);
    const cusim::StreamId s = dev.stream_create();
    const auto entry = [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); };
    for (int i = 0; i < 3; ++i) {
        dev.launch(mixed_cfg(2, 32), entry);
        dev.launch_async(mixed_cfg(2, 32), entry, {}, s);
    }
    dev.synchronize();

    const auto activities = prof::kernel_activities();
    ASSERT_EQ(activities.size(), 1u);
    EXPECT_EQ(activities[0].name, "kernel");
    EXPECT_EQ(activities[0].launches, 6u);
    ASSERT_EQ(activities[0].lanes.size(), 2u);
    for (const auto& lane : activities[0].lanes) EXPECT_EQ(lane.launches, 3u);
}

// --- transfers --------------------------------------------------------------

TEST_F(ProfTest, TransferTotalsSplitByDirection) {
    prof::enable();
    Device dev(cusim::tiny_properties());
    auto a = dev.malloc_n<std::uint32_t>(256);
    auto b = dev.malloc_n<std::uint32_t>(256);
    const std::vector<std::uint32_t> host(256, 7);
    dev.upload(a, std::span<const std::uint32_t>(host));
    dev.copy_device_to_device(b.addr(), a.addr(), 256 * sizeof(std::uint32_t));
    std::vector<std::uint32_t> back(256, 0);
    dev.download(std::span<std::uint32_t>(back), b);
    EXPECT_EQ(back, host);

    const auto h2d = prof::transfer_totals(CopyKind::HostToDevice);
    EXPECT_EQ(h2d.count, 1u);
    EXPECT_EQ(h2d.bytes, 1024u);
    EXPECT_GT(h2d.seconds, 0.0);
    const auto d2d = prof::transfer_totals(CopyKind::DeviceToDevice);
    EXPECT_EQ(d2d.count, 1u);
    EXPECT_EQ(d2d.bytes, 1024u);
    const auto d2h = prof::transfer_totals(CopyKind::DeviceToHost);
    EXPECT_EQ(d2h.count, 1u);
    EXPECT_EQ(d2h.bytes, 1024u);
    EXPECT_EQ(prof::transfer_totals(CopyKind::HostToHost).count, 0u);
    EXPECT_EQ(tr::metrics().counter("cusim.prof.transfers"), 3u);
}

// --- the report -------------------------------------------------------------

TEST_F(ProfTest, ReportJsonIsValidSortedAndComplete) {
    prof::enable();
    Device dev(cusim::tiny_properties());
    auto data = upload_iota(dev, 32 * 64);
    // "heavy" runs 4x and over more blocks than "light": it must rank first.
    for (int i = 0; i < 4; ++i) {
        dev.launch(mixed_cfg(32, 64),
                   [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); }, "heavy");
    }
    dev.launch(mixed_cfg(1, 32),
               [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); }, "light");

    const auto root = cupp::minijson::parse(prof::report_json());
    const auto* p = root.find("prof");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->find("version")->number(), 1.0);
    ASSERT_NE(p->find("model"), nullptr);
    EXPECT_GT(p->find("model")->find("ridge_cycles_per_byte")->number(), 0.0);

    const auto* kernels = p->find("kernels");
    ASSERT_NE(kernels, nullptr);
    ASSERT_EQ(kernels->array().size(), 2u);
    EXPECT_EQ(kernels->array()[0].find("name")->str(), "heavy");
    EXPECT_EQ(kernels->array()[1].find("name")->str(), "light");
    EXPECT_GE(kernels->array()[0].find("device_seconds")->number(),
              kernels->array()[1].find("device_seconds")->number());
    for (const char* key :
         {"launches", "occupancy", "coalescing_efficiency",
          "divergence_serialization", "arithmetic_intensity_cycles_per_byte",
          "shared_bank_conflicts", "bytes_read", "bytes_written"}) {
        EXPECT_NE(kernels->array()[0].find(key), nullptr) << key;
    }
    EXPECT_TRUE(kernels->array()[0].find("roofline_bound")->is_string());

    const auto* hotspots = p->find("hotspots");
    ASSERT_NE(hotspots, nullptr);
    ASSERT_EQ(hotspots->array().size(), 2u);
    EXPECT_EQ(hotspots->array()[0].find("rank")->number(), 1.0);
    EXPECT_EQ(hotspots->array()[0].find("name")->str(), "heavy");
    const double share_sum = hotspots->array()[0].find("share")->number() +
                             hotspots->array()[1].find("share")->number();
    // Shares are serialized with %g precision, so the sum only closes to ~1e-6.
    EXPECT_NEAR(share_sum, 1.0, 1e-5);

    ASSERT_NE(p->find("transfers"), nullptr);
    EXPECT_EQ(p->find("transfers")->find("h2d")->find("count")->number(), 1.0);
    EXPECT_GT(p->find("total_device_seconds")->number(), 0.0);
    EXPECT_EQ(p->find("api_calls")->find("launch")->number(), 5.0);
}

TEST_F(ProfTest, WriteReportRoundTripsThroughAFile) {
    prof::enable();
    Device dev(cusim::tiny_properties());
    auto data = upload_iota(dev, 64);
    dev.launch(mixed_cfg(2, 32),
               [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); }, "written");

    EXPECT_FALSE(prof::write_report()) << "no configured path, no default target";
    const std::string path = testing::TempDir() + "cusim_prof_report_test.json";
    ASSERT_TRUE(prof::write_report(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto root = cupp::minijson::parse(text);
    ASSERT_NE(root.find("prof"), nullptr);
    EXPECT_EQ(root.find("prof")->find("kernels")->array().size(), 1u);
}

TEST_F(ProfTest, ResetClearsEverything) {
    prof::enable();
    Device dev(cusim::tiny_properties());
    auto data = upload_iota(dev, 64);
    dev.launch(mixed_cfg(2, 32),
               [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); }, "cleared");
    ASSERT_FALSE(prof::kernel_activities().empty());
    ASSERT_GT(prof::api_calls(prof::Api::Launch), 0u);

    prof::reset();
    EXPECT_FALSE(prof::armed());
    EXPECT_FALSE(prof::collecting());
    EXPECT_TRUE(prof::kernel_activities().empty());
    EXPECT_EQ(prof::api_calls(prof::Api::Launch), 0u);
    EXPECT_EQ(prof::session_starts(), 0u);
    EXPECT_EQ(prof::session_stops(), 0u);
    EXPECT_EQ(prof::transfer_totals(CopyKind::HostToDevice).count, 0u);
    EXPECT_FALSE(prof::model_snapshot().valid);
    EXPECT_EQ(prof::report_path(), "");
}

TEST_F(ProfTest, LaunchesFeedTraceMetricsAndHistograms) {
    prof::enable();
    Device dev(cusim::tiny_properties());
    auto data = upload_iota(dev, 64);
    dev.launch(mixed_cfg(2, 32),
               [&](ThreadCtx& ctx) { return mixed_kernel(ctx, data); }, "metered");

    EXPECT_EQ(tr::metrics().counter("cusim.prof.launches"), 1u);
    const std::string json = tr::metrics().summary_json();
    EXPECT_NE(json.find("cusim.prof.launch_host_us"), std::string::npos)
        << "per-launch host time must land in the metrics histograms";
}

}  // namespace
