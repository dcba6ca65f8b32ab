// cusim::timeline unit coverage: recording gates, node and edge
// construction for every lane (host filler, legacy device, streams), the
// exact critical-path tiling invariant (the path tiles [0, makespan] with
// bitwise end==start handoffs and zero accounted gap), bubbles and
// utilization, fault interaction (failed nodes carry no edges), prof
// correlation-id sharing, and the report JSON round-trip. The bit-identity
// contract across engine thread counts lives in cusim_stream_diff_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cupp/detail/minijson.hpp"
#include "cusim/cusim.hpp"
#include "cusim/faults.hpp"
#include "cusim/prof.hpp"
#include "cusim/timeline.hpp"

namespace {

using namespace cusim;

KernelTask fill_kernel(ThreadCtx& ctx, DevicePtr<int> out, int value) {
    out.write(ctx, ctx.global_id(), value);
    co_return;
}

KernelTask burn_kernel(ThreadCtx& ctx, DevicePtr<int> out, int value) {
    ctx.charge(Op::FMad, 1'000'000);
    out.write(ctx, ctx.global_id(), value);
    co_return;
}

LaunchConfig small_cfg() { return LaunchConfig{dim3{2}, dim3{16}}; }

/// Fresh recorder per test; nothing leaks into the next one.
class TimelineTest : public ::testing::Test {
protected:
    void SetUp() override {
        timeline::reset();
        timeline::enable();
    }
    void TearDown() override {
        timeline::reset();
        prof::reset();
        faults::disable();
        faults::reset();
    }
};

std::vector<timeline::Node> nodes_of(timeline::Category cat) {
    std::vector<timeline::Node> out;
    for (const timeline::Node& n : timeline::nodes()) {
        if (n.cat == cat) out.push_back(n);
    }
    return out;
}

/// The tentpole invariant, asserted with exact double equality: the
/// critical path tiles [0, makespan] — first node at 0, each end bitwise
/// equal to the next start, last end at the makespan, zero accounted gap —
/// so critical_path_seconds is *exactly* the makespan.
void expect_tiled(const timeline::Report& r,
                  const std::vector<timeline::Node>& ns) {
    ASSERT_FALSE(r.critical_path.empty());
    EXPECT_EQ(r.gap_seconds, 0.0);
    EXPECT_EQ(r.critical_path_seconds, r.makespan_seconds);
    EXPECT_EQ(ns[r.critical_path.front() - 1].start, 0.0);
    for (std::size_t i = 0; i + 1 < r.critical_path.size(); ++i) {
        const timeline::Node& a = ns[r.critical_path[i] - 1];
        const timeline::Node& b = ns[r.critical_path[i + 1] - 1];
        EXPECT_EQ(a.end, b.start) << "path breaks between node " << a.id
                                  << " and node " << b.id;
    }
    EXPECT_EQ(ns[r.critical_path.back() - 1].end, r.makespan_seconds);
}

TEST_F(TimelineTest, DisabledByDefaultRecordsNothing) {
    timeline::reset();  // undo the fixture's enable
    EXPECT_FALSE(timeline::enabled());
    Device dev(tiny_properties());
    auto buf = dev.malloc_n<int>(small_cfg().total_threads());
    dev.launch(small_cfg(), [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 1); },
               "fill");
    dev.synchronize();
    EXPECT_TRUE(timeline::nodes().empty());
}

TEST_F(TimelineTest, EnableDisableGateAndReset) {
    EXPECT_TRUE(timeline::enabled());
    timeline::disable();
    EXPECT_FALSE(timeline::enabled());
    timeline::enable();
    Device dev(tiny_properties());
    auto buf = dev.malloc_n<int>(small_cfg().total_threads());
    std::vector<int> host(small_cfg().total_threads(), 7);
    dev.upload(buf, std::span<const int>(host));
    EXPECT_FALSE(timeline::nodes().empty());
    timeline::reset();
    EXPECT_FALSE(timeline::enabled());
    EXPECT_TRUE(timeline::nodes().empty());
    EXPECT_TRUE(timeline::report_path().empty());
}

TEST_F(TimelineTest, LegacyLaunchRecordsIssueAndKernelNodes) {
    Device dev(tiny_properties());
    auto buf = dev.malloc_n<int>(small_cfg().total_threads());
    dev.launch(small_cfg(), [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 1); },
               "fill");
    dev.synchronize();

    const auto kernels = nodes_of(timeline::Category::Kernel);
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_EQ(kernels[0].name, "fill");
    EXPECT_EQ(kernels[0].lane, timeline::Lane::Device);
    EXPECT_EQ(timeline::lane_name(kernels[0]),
              "dev" + std::to_string(kernels[0].device) + ".device");
    EXPECT_GT(kernels[0].duration(), 0.0);

    // The issue cost is a host-lane node named after the launch.
    bool found_issue = false;
    for (const timeline::Node& n : timeline::nodes()) {
        if (n.lane == timeline::Lane::Host && n.name == "launch fill") {
            found_issue = true;
        }
    }
    EXPECT_TRUE(found_issue);
    const auto syncs = nodes_of(timeline::Category::Sync);
    ASSERT_EQ(syncs.size(), 1u);
    EXPECT_EQ(syncs[0].start, syncs[0].end);  // zero duration by contract
}

TEST_F(TimelineTest, KernelStartIsAnchoredToAHostNodeEndingThere) {
    Device dev(tiny_properties());
    const std::size_t n = small_cfg().total_threads();
    auto buf = dev.malloc_n<int>(n);
    // Advance the host clock first so the launch starts strictly after 0
    // and needs a real anchor (at t == 0 no binding edge is required).
    std::vector<int> host(n, 2);
    dev.upload(buf, std::span<const int>(host));
    dev.launch(small_cfg(), [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 2); },
               "fill");
    dev.synchronize();

    const std::vector<timeline::Node> ns = timeline::nodes();
    const auto kernels = nodes_of(timeline::Category::Kernel);
    ASSERT_EQ(kernels.size(), 1u);
    // A device-idle launch starts at issue time: one of its deps must be a
    // host-lane node ending exactly at the kernel's start.
    bool anchored = false;
    for (const std::uint64_t dep : kernels[0].deps) {
        const timeline::Node& d = ns[dep - 1];
        if (d.lane == timeline::Lane::Host && d.end == kernels[0].start) {
            anchored = true;
        }
    }
    EXPECT_TRUE(anchored);
}

TEST_F(TimelineTest, TransfersCarryBytesAndCategories) {
    Device dev(tiny_properties());
    const std::size_t n = small_cfg().total_threads();
    auto buf = dev.malloc_n<int>(n);
    std::vector<int> host(n, 3);
    dev.upload(buf, std::span<const int>(host));
    dev.download(std::span<int>(host), buf);

    const auto h2d = nodes_of(timeline::Category::MemcpyH2D);
    const auto d2h = nodes_of(timeline::Category::MemcpyD2H);
    ASSERT_EQ(h2d.size(), 1u);
    ASSERT_EQ(d2h.size(), 1u);
    EXPECT_EQ(h2d[0].bytes, n * sizeof(int));
    EXPECT_EQ(d2h[0].bytes, n * sizeof(int));
    EXPECT_EQ(h2d[0].lane, timeline::Lane::Host);  // legacy path blocks the host

    const timeline::Report r = timeline::analyze();
    using Idx = std::size_t;
    EXPECT_GT(r.category_seconds[static_cast<Idx>(timeline::Category::MemcpyH2D)],
              0.0);
    EXPECT_GT(r.category_seconds[static_cast<Idx>(timeline::Category::MemcpyD2H)],
              0.0);
}

TEST_F(TimelineTest, StreamOpsLandOnTheirStreamLanes) {
    Device dev(tiny_properties());
    auto buf = dev.malloc_n<int>(small_cfg().total_threads());
    const StreamId a = dev.stream_create();
    const StreamId b = dev.stream_create();
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 1); }, "ka",
                     a);
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 2); }, "kb",
                     b);
    dev.synchronize();

    const auto kernels = nodes_of(timeline::Category::Kernel);
    ASSERT_EQ(kernels.size(), 2u);
    std::map<std::string, std::uint32_t> by_name;
    for (const auto& k : kernels) {
        EXPECT_EQ(k.lane, timeline::Lane::Stream);
        by_name[k.name] = k.stream;
    }
    EXPECT_EQ(by_name["ka"], a);
    EXPECT_EQ(by_name["kb"], b);
}

TEST_F(TimelineTest, FifoEdgesOrderOpsWithinOneStream) {
    Device dev(tiny_properties());
    auto buf = dev.malloc_n<int>(small_cfg().total_threads());
    const StreamId s = dev.stream_create();
    // First kernel is compute-heavy, so the stream is still busy when the
    // second is enqueued and the FIFO edge is the binding constraint.
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return burn_kernel(ctx, buf, 1); },
                     "first", s);
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 2); },
                     "second", s);
    dev.stream_synchronize(s);

    const auto kernels = nodes_of(timeline::Category::Kernel);
    ASSERT_EQ(kernels.size(), 2u);
    const timeline::Node& first = kernels[0].name == "first" ? kernels[0] : kernels[1];
    const timeline::Node& second = kernels[0].name == "first" ? kernels[1] : kernels[0];
    EXPECT_NE(std::find(second.deps.begin(), second.deps.end(), first.id),
              second.deps.end())
        << "stream FIFO must be an explicit edge";
    EXPECT_EQ(first.end, second.start);  // back-to-back on the stream clock
}

TEST_F(TimelineTest, WaitEventEdgeCrossesStreams) {
    Device dev(tiny_properties());
    auto buf = dev.malloc_n<int>(small_cfg().total_threads());
    const StreamId consumer = dev.stream_create();
    const StreamId producer = dev.stream_create();
    const EventId ev = dev.event_create();
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return burn_kernel(ctx, buf, 1); },
                     "produce", producer);
    dev.event_record(ev, producer);
    dev.stream_wait_event(consumer, ev);
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 2); },
                     "consume", consumer);
    dev.synchronize();

    const auto records = nodes_of(timeline::Category::EventRecord);
    const auto waits = nodes_of(timeline::Category::EventWait);
    ASSERT_EQ(records.size(), 1u);
    ASSERT_EQ(waits.size(), 1u);
    EXPECT_EQ(waits[0].stream, consumer);
    EXPECT_EQ(records[0].stream, producer);
    EXPECT_NE(std::find(waits[0].deps.begin(), waits[0].deps.end(), records[0].id),
              waits[0].deps.end())
        << "the wait must edge back to the record that released it";
    EXPECT_EQ(records[0].start, records[0].end);
    EXPECT_EQ(waits[0].start, waits[0].end);
    EXPECT_GE(waits[0].start, records[0].end);
}

TEST_F(TimelineTest, WaitBindsToTheNewestExecutedRecord) {
    Device dev(tiny_properties());
    auto buf = dev.malloc_n<int>(small_cfg().total_threads());
    const StreamId s = dev.stream_create();
    const StreamId w = dev.stream_create();
    const EventId ev = dev.event_create();
    dev.event_record(ev, s);
    dev.synchronize();
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return burn_kernel(ctx, buf, 1); },
                     "burn", s);
    dev.event_record(ev, s);  // newest record supersedes the first
    dev.synchronize();
    dev.stream_wait_event(w, ev);
    dev.synchronize();

    const auto records = nodes_of(timeline::Category::EventRecord);
    const auto waits = nodes_of(timeline::Category::EventWait);
    ASSERT_EQ(records.size(), 2u);
    ASSERT_EQ(waits.size(), 1u);
    const timeline::Node& newest =
        records[0].id > records[1].id ? records[0] : records[1];
    EXPECT_NE(std::find(waits[0].deps.begin(), waits[0].deps.end(), newest.id),
              waits[0].deps.end())
        << "newest-wins: the wait must reference the re-record";
}

TEST_F(TimelineTest, UntrackedHostTimeBecomesFillerNodes) {
    Device dev(tiny_properties());
    const std::size_t n = small_cfg().total_threads();
    auto buf = dev.malloc_n<int>(n);
    dev.advance_host(1e-3);  // untracked host compute (steering CPU model)
    std::vector<int> host(n, 5);
    dev.upload(buf, std::span<const int>(host));

    bool filler = false;
    for (const timeline::Node& node : nodes_of(timeline::Category::Host)) {
        if (node.name == "host" && node.duration() >= 1e-3) filler = true;
    }
    EXPECT_TRUE(filler) << "advance_host must be folded into a filler node";
    const timeline::Report r = timeline::analyze();
    for (const timeline::LaneSummary& lane : r.lanes) {
        if (lane.lane.find(".host") != std::string::npos) {
            EXPECT_EQ(lane.bubble_seconds, 0.0) << "the host lane is gapless";
            EXPECT_TRUE(lane.bubbles.empty());
        }
    }
    expect_tiled(r, timeline::nodes());
}

TEST_F(TimelineTest, IdleDeviceLaneShowsABubble) {
    Device dev(tiny_properties());
    auto buf = dev.malloc_n<int>(small_cfg().total_threads());
    dev.launch(small_cfg(), [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 1); },
               "k1");
    dev.synchronize();
    dev.advance_host(2e-3);  // device sits idle while the host computes
    dev.launch(small_cfg(), [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 2); },
               "k2");
    dev.synchronize();

    const auto kernels = nodes_of(timeline::Category::Kernel);
    ASSERT_EQ(kernels.size(), 2u);
    const timeline::Report r = timeline::analyze();
    bool checked = false;
    for (const timeline::LaneSummary& lane : r.lanes) {
        if (lane.lane.find(".device") == std::string::npos) continue;
        checked = true;
        ASSERT_EQ(lane.bubbles.size(), 1u);
        EXPECT_EQ(lane.bubbles[0].first, kernels[0].end);
        EXPECT_EQ(lane.bubbles[0].second, kernels[1].start);
        EXPECT_GE(lane.bubble_seconds, 2e-3);
    }
    EXPECT_TRUE(checked);
    expect_tiled(r, timeline::nodes());
}

TEST_F(TimelineTest, CriticalPathTilesTheMakespanExactly) {
    Device dev(tiny_properties());
    const std::size_t n = small_cfg().total_threads();
    auto buf = dev.malloc_n<int>(n);
    const StreamId a = dev.stream_create();
    const StreamId b = dev.stream_create();
    std::vector<int> host(n, 1);
    dev.upload(buf, std::span<const int>(host));
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return burn_kernel(ctx, buf, 1); }, "ka",
                     a);
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 2); }, "kb",
                     b);
    dev.memcpy_to_host_async(host.data(), buf.addr(), n * sizeof(int), b);
    dev.synchronize();
    dev.launch(small_cfg(), [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 3); },
               "legacy");
    dev.download(std::span<int>(host), buf);

    const timeline::Report r = timeline::analyze();
    EXPECT_GT(r.makespan_seconds, 0.0);
    EXPECT_GT(r.critical_path.size(), 3u);
    expect_tiled(r, timeline::nodes());
}

TEST_F(TimelineTest, SerializedSumAndOverlapEfficiencyAreExact) {
    Device dev(tiny_properties());
    auto buf = dev.malloc_n<int>(small_cfg().total_threads());
    const StreamId a = dev.stream_create();
    const StreamId b = dev.stream_create();
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return burn_kernel(ctx, buf, 1); }, "ka",
                     a);
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return burn_kernel(ctx, buf, 2); }, "kb",
                     b);
    dev.synchronize();

    const timeline::Report r = timeline::analyze();
    double sum = 0.0;
    for (const timeline::Node& node : timeline::nodes()) {
        if (!node.failed) sum += node.duration();
    }
    EXPECT_EQ(r.serialized_seconds, sum);
    EXPECT_EQ(r.overlap_efficiency, r.serialized_seconds / r.makespan_seconds);
    // Two compute-heavy kernels overlapped on two streams: more modelled
    // work happened than wall makespan.
    EXPECT_GT(r.overlap_efficiency, 1.0);
}

TEST_F(TimelineTest, FaultRejectedEnqueueBecomesAFailedNodeWithNoEdges) {
    Device dev(tiny_properties());
    auto buf = dev.malloc_n<int>(small_cfg().total_threads());
    const StreamId s = dev.stream_create();
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 1); }, "ok1",
                     s);

    faults::Rule rule;
    rule.site = faults::Site::Launch;
    rule.code = ErrorCode::LaunchFailure;
    rule.every = 1;
    faults::configure({rule});
    EXPECT_THROW(dev.launch_async(
                     small_cfg(),
                     [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 2); },
                     "doomed", s),
                 Error);
    faults::disable();

    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 3); }, "ok2",
                     s);
    dev.synchronize();

    const std::vector<timeline::Node> ns = timeline::nodes();
    const timeline::Node* failed = nullptr;
    for (const timeline::Node& n : ns) {
        if (n.failed) {
            EXPECT_EQ(failed, nullptr) << "exactly one failed node expected";
            failed = &n;
        }
    }
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->name, "doomed");
    EXPECT_EQ(failed->cat, timeline::Category::Kernel);
    EXPECT_TRUE(failed->deps.empty()) << "failed nodes contribute no edges";
    EXPECT_EQ(failed->start, failed->end);
    for (const timeline::Node& n : ns) {
        EXPECT_EQ(std::find(n.deps.begin(), n.deps.end(), failed->id), n.deps.end())
            << "nothing may depend on a failed node";
    }

    const timeline::Report r = timeline::analyze();
    EXPECT_EQ(r.failed_nodes, 1u);
    EXPECT_EQ(std::find(r.critical_path.begin(), r.critical_path.end(), failed->id),
              r.critical_path.end());
    expect_tiled(r, ns);
    faults::reset();
}

TEST_F(TimelineTest, NodesShareCorrelationIdsWithProfCallbacks) {
    std::map<std::uint64_t, std::string> api_by_corr;
    const std::uint64_t sub = prof::subscribe([&](const prof::ApiRecord& rec) {
        if (rec.phase == prof::Phase::Enter && rec.correlation != 0) {
            api_by_corr[rec.correlation] = prof::api_name(rec.api);
        }
    });

    Device dev(tiny_properties());
    const std::size_t n = small_cfg().total_threads();
    auto buf = dev.malloc_n<int>(n);
    std::vector<int> host(n, 4);
    dev.upload(buf, std::span<const int>(host));
    dev.launch(small_cfg(), [&](ThreadCtx& ctx) { return fill_kernel(ctx, buf, 1); },
               "fill");
    dev.synchronize();
    prof::unsubscribe(sub);

    const auto kernels = nodes_of(timeline::Category::Kernel);
    const auto h2d = nodes_of(timeline::Category::MemcpyH2D);
    ASSERT_EQ(kernels.size(), 1u);
    ASSERT_EQ(h2d.size(), 1u);
    ASSERT_NE(kernels[0].correlation, 0u);
    ASSERT_NE(h2d[0].correlation, 0u);
    EXPECT_EQ(api_by_corr[kernels[0].correlation], "launch");
    EXPECT_EQ(api_by_corr[h2d[0].correlation], "memcpy_h2d");
}

TEST_F(TimelineTest, ResetRestartsTheCorrelationCounter) {
    Device dev(tiny_properties());
    const std::size_t n = small_cfg().total_threads();
    auto buf = dev.malloc_n<int>(n);
    std::vector<int> host(n, 6);
    dev.upload(buf, std::span<const int>(host));
    std::vector<timeline::Node> ns = timeline::nodes();
    ASSERT_FALSE(ns.empty());
    const std::uint64_t first_corr = ns.back().correlation;

    timeline::reset();
    timeline::enable();
    // Same runtime call sequence (malloc, then upload) after the reset:
    // the correlation counter must restart and hand out the same ids.
    auto buf2 = dev.malloc_n<int>(n);
    dev.upload(buf2, std::span<const int>(host));
    ns = timeline::nodes();
    ASSERT_FALSE(ns.empty());
    // Same runtime call sequence after reset: same correlation id. This is
    // what makes timeline digests comparable across runs.
    EXPECT_EQ(ns.back().correlation, first_corr);
}

TEST_F(TimelineTest, EmptyTimelineAnalyzesToZeros) {
    const timeline::Report r = timeline::analyze();
    EXPECT_EQ(r.makespan_seconds, 0.0);
    EXPECT_EQ(r.serialized_seconds, 0.0);
    EXPECT_TRUE(r.critical_path.empty());
    EXPECT_TRUE(r.lanes.empty());
    EXPECT_EQ(r.total_nodes, 0u);
    const std::string json = timeline::report_json();
    const auto doc = cupp::minijson::parse(json);  // must still be valid JSON
    ASSERT_NE(doc.find("timeline"), nullptr);
}

TEST_F(TimelineTest, ReportJsonRoundTripsThroughMinijson) {
    Device dev(tiny_properties());
    const std::size_t n = small_cfg().total_threads();
    auto buf = dev.malloc_n<int>(n);
    const StreamId s = dev.stream_create();
    std::vector<int> host(n, 2);
    dev.upload(buf, std::span<const int>(host));
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return burn_kernel(ctx, buf, 1); },
                     "burn", s);
    dev.stream_synchronize(s);

    const std::vector<timeline::Node> ns = timeline::nodes();
    const timeline::Report r = timeline::analyze();
    const auto doc = cupp::minijson::parse(timeline::report_json());
    const auto* tl = doc.find("timeline");
    ASSERT_NE(tl, nullptr);
    EXPECT_EQ(tl->find("version")->number(), 1.0);
    // %.17g round-trips doubles exactly: the parsed summary must equal the
    // in-memory analysis bit for bit.
    EXPECT_EQ(tl->find("makespan_seconds")->number(), r.makespan_seconds);
    EXPECT_EQ(tl->find("critical_path_seconds")->number(), r.critical_path_seconds);
    EXPECT_EQ(tl->find("serialized_seconds")->number(), r.serialized_seconds);
    const auto* counts = tl->find("counts");
    ASSERT_NE(counts, nullptr);
    EXPECT_EQ(counts->find("nodes")->number(), static_cast<double>(ns.size()));
    EXPECT_EQ(tl->find("nodes")->array().size(), ns.size());
    EXPECT_EQ(tl->find("critical_path")->array().size(), r.critical_path.size());
}

TEST_F(TimelineTest, SyncNodesEdgeBackToTheWorkTheyWaitedOn) {
    Device dev(tiny_properties());
    auto buf = dev.malloc_n<int>(small_cfg().total_threads());
    const StreamId s = dev.stream_create();
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return burn_kernel(ctx, buf, 1); },
                     "burn", s);
    dev.stream_synchronize(s);

    const std::vector<timeline::Node> ns = timeline::nodes();
    const auto syncs = nodes_of(timeline::Category::Sync);
    const auto kernels = nodes_of(timeline::Category::Kernel);
    ASSERT_EQ(syncs.size(), 1u);
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_EQ(syncs[0].name, "stream synchronize");
    // The sync released when the kernel (the stream's tail) completed: the
    // edge is explicit and the times agree exactly.
    EXPECT_NE(std::find(syncs[0].deps.begin(), syncs[0].deps.end(), kernels[0].id),
              syncs[0].deps.end());
    EXPECT_EQ(syncs[0].start, kernels[0].end);
    expect_tiled(timeline::analyze(), ns);
}

/// One line per recorded node: id, category, lane (with the stream id on a
/// stream lane), name, bytes and dependency ids. The device ordinal is left
/// out, so the text does not depend on how many devices the process made.
std::string describe_nodes(const std::vector<timeline::Node>& ns) {
    std::string out;
    for (const timeline::Node& n : ns) {
        out += std::to_string(n.id) + " " + timeline::category_name(n.cat) + " ";
        out += n.lane == timeline::Lane::Host     ? std::string("host")
               : n.lane == timeline::Lane::Device ? std::string("device")
                                                  : "stream" + std::to_string(n.stream);
        out += " '" + n.name + "' bytes=" + std::to_string(n.bytes) + " deps=";
        for (const std::uint64_t dep : n.deps) out += std::to_string(dep) + ",";
        out += "\n";
    }
    return out;
}

TEST_F(TimelineTest, DefaultStreamCopyRecordAndWaitPinNodesAndEdges) {
    Device dev(tiny_properties());
    const std::size_t n = small_cfg().total_threads();
    const std::uint64_t bytes = n * sizeof(int);
    auto a = dev.malloc_n<int>(n);
    auto b = dev.malloc_n<int>(n);
    std::vector<int> host(n, 9);
    dev.upload(a, std::span<const int>(host));
    const StreamId s = dev.stream_create();
    const EventId on_default = dev.event_create();
    const EventId on_stream = dev.event_create();

    // Idle device: the D2D starts when the host issues it (host anchor), and
    // the record behind it is bound by the device FIFO instead.
    dev.copy_device_to_device(b.addr(), a.addr(), bytes);
    dev.event_record(on_default, kDefaultStream);
    // A busy stream, then a default-stream wait on its record: the join
    // folds the stream into the device lane and the wait edges to the record.
    dev.launch_async(small_cfg(),
                     [&](ThreadCtx& ctx) { return burn_kernel(ctx, b, 1); }, "burn", s);
    dev.event_record(on_stream, s);
    dev.stream_wait_event(kDefaultStream, on_stream);
    dev.synchronize();
    // Idle again: a default-stream record at the host's issue point.
    dev.event_record(on_default, kDefaultStream);
    dev.synchronize();

    const std::vector<timeline::Node> ns = timeline::nodes();
    EXPECT_EQ(describe_nodes(ns),
              "1 h2d host 'memcpy H2D' bytes=128 deps=\n"
              "2 d2d device 'memcpy D2D' bytes=128 deps=1,\n"
              "3 record device 'event record' bytes=0 deps=2,\n"
              "4 host host 'launch burn (s1)' bytes=0 deps=1,\n"
              "5 kernel stream1 'burn' bytes=0 deps=1,\n"
              "6 record stream1 'event record' bytes=0 deps=5,4,\n"
              "7 wait device 'wait event' bytes=0 deps=6,\n"
              "8 sync host 'synchronize' bytes=0 deps=4,7,\n"
              "9 record device 'event record' bytes=0 deps=7,8,\n"
              "10 sync host 'synchronize' bytes=0 deps=8,9,\n");

    const auto d2d = nodes_of(timeline::Category::MemcpyD2D);
    const auto records = nodes_of(timeline::Category::EventRecord);
    const auto waits = nodes_of(timeline::Category::EventWait);
    const auto kernels = nodes_of(timeline::Category::Kernel);
    ASSERT_EQ(d2d.size(), 1u);
    ASSERT_EQ(records.size(), 3u);
    ASSERT_EQ(waits.size(), 1u);
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_EQ(d2d[0].bytes, bytes);
    EXPECT_EQ(records[0].start, d2d[0].end);
    EXPECT_EQ(waits[0].start, kernels[0].end);
    EXPECT_EQ(waits[0].start, waits[0].end);
    expect_tiled(timeline::analyze(), ns);
}

}  // namespace
