// Deep-dive tests of the branch-divergence accounting (§2.3/§6.3.1):
// per-site isolation, partial warps, alternating patterns, divergence
// penalties in the timing model, the occurrence-log cap, and how a warp
// finds a site from its source location.
#include <gtest/gtest.h>

#include "cusim/cusim.hpp"

namespace {

using namespace cusim;

KernelTask two_sites_kernel(ThreadCtx& ctx, int rounds) {
    for (int r = 0; r < rounds; ++r) {
        // Site A: uniform across the warp.
        if (ctx.branch(r % 2 == 0)) ctx.charge(Op::FAdd);
        // Site B: always divergent (half the lanes take it).
        if (ctx.branch(ctx.thread_idx().x % 2 == 0)) ctx.charge(Op::FAdd);
    }
    co_return;
}

TEST(Divergence, SitesAreAccountedIndependently) {
    Device dev(tiny_properties());
    constexpr int kRounds = 20;
    const auto stats = dev.launch(LaunchConfig{dim3{1}, dim3{32}}, [&](ThreadCtx& ctx) {
        return two_sites_kernel(ctx, kRounds);
    });
    // Only site B diverges: once per round.
    EXPECT_EQ(stats.divergent_events, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(stats.branch_evaluations, 2u * kRounds * 32u);
}

KernelTask lane_pred_kernel(ThreadCtx& ctx) {
    (void)ctx.branch(ctx.thread_idx().x == 0);
    co_return;
}

TEST(Divergence, SingleLaneWarpNeverDiverges) {
    Device dev(tiny_properties());
    const auto stats = dev.launch(LaunchConfig{dim3{4}, dim3{1}}, [](ThreadCtx& ctx) {
        return lane_pred_kernel(ctx);
    });
    // One lane per warp: nothing to disagree with.
    EXPECT_EQ(stats.divergent_events, 0u);
}

TEST(Divergence, PartialWarpStillDetectsDivergence) {
    Device dev(tiny_properties());
    const auto stats = dev.launch(LaunchConfig{dim3{1}, dim3{7}}, [](ThreadCtx& ctx) {
        return lane_pred_kernel(ctx);
    });
    // Lane 0 takes it, lanes 1-6 do not: one divergent step.
    EXPECT_EQ(stats.divergent_events, 1u);
}

KernelTask misaligned_kernel(ThreadCtx& ctx) {
    // Lanes evaluate a different *number* of dynamic branches: the inner
    // site only exists behind the outer one. The accounting approximates by
    // occurrence index; it must stay robust (no crash, sane counts).
    const bool outer = ctx.branch(ctx.thread_idx().x < 16);
    if (outer) {
        for (int i = 0; i < 3; ++i) {
            (void)ctx.branch(i % 2 == 0);
        }
    }
    co_return;
}

TEST(Divergence, MisalignedOccurrencesAreTolerated) {
    Device dev(tiny_properties());
    const auto stats = dev.launch(LaunchConfig{dim3{1}, dim3{32}}, [](ThreadCtx& ctx) {
        return misaligned_kernel(ctx);
    });
    EXPECT_EQ(stats.branch_evaluations, 32u + 16u * 3u);
    // The outer site diverges once; the inner site is uniform among the
    // lanes that reach it.
    EXPECT_EQ(stats.divergent_events, 1u);
}

TEST(Divergence, PenaltyShowsUpInDeviceTime) {
    Device dev(tiny_properties());
    constexpr int kRounds = 50000;

    auto uniform = [](ThreadCtx& ctx) -> KernelTask {
        for (int r = 0; r < kRounds; ++r) {
            if (ctx.branch(r % 2 == 0)) ctx.charge(Op::FAdd);
        }
        co_return;
    };
    auto divergent = [](ThreadCtx& ctx) -> KernelTask {
        for (int r = 0; r < kRounds; ++r) {
            if (ctx.branch((ctx.thread_idx().x + r) % 2 == 0)) ctx.charge(Op::FAdd);
        }
        co_return;
    };

    const LaunchConfig cfg{dim3{1}, dim3{32}};
    const auto t_uniform = dev.launch(cfg, uniform);
    const auto t_divergent = dev.launch(cfg, divergent);
    EXPECT_EQ(t_uniform.divergent_events, 0u);
    EXPECT_EQ(t_divergent.divergent_events, static_cast<std::uint64_t>(kRounds));
    // Serialisation costs real simulated time.
    EXPECT_GT(t_divergent.device_seconds, t_uniform.device_seconds * 1.5);
}

// Unit-level sites: distinct lines of one made-up kernel file.
const SourceSite kSite1{"unit.cu", 1, 1};
const SourceSite kSite2{"unit.cu", 2, 1};
const SourceSite kSite9{"unit.cu", 9, 1};

TEST(Divergence, WarpAcctUnitBehaviour) {
    WarpAcct warp;
    // Two lanes disagree at occurrence 0 of one site.
    warp.note_branch(kSite1, /*lane=*/0, true);
    warp.note_branch(kSite1, 1, false);
    warp.note_branch(kSite1, 2, false);  // further disagreement: same event
    EXPECT_EQ(warp.divergent_events(), 1u);
    // Second occurrence, all agree.
    warp.note_branch(kSite1, 0, true);
    warp.note_branch(kSite1, 1, true);
    EXPECT_EQ(warp.divergent_events(), 1u);
    // A different site is independent.
    warp.note_branch(kSite2, 0, false);
    warp.note_branch(kSite2, 1, true);
    EXPECT_EQ(warp.divergent_events(), 2u);
    EXPECT_EQ(warp.total_branch_evaluations(), 7u);
}

TEST(Divergence, LateJoiningLaneExtendsTheLog) {
    WarpAcct warp;
    // Lane 3 records occurrences before lane 0 ever shows up.
    warp.note_branch(kSite9, 3, true);
    warp.note_branch(kSite9, 3, false);
    // Lane 0 now replays the same outcomes: no divergence.
    warp.note_branch(kSite9, 0, true);
    warp.note_branch(kSite9, 0, false);
    EXPECT_EQ(warp.divergent_events(), 0u);
    // ...but a mismatch at occurrence 1 is caught.
    warp.note_branch(kSite9, 5, true);   // occurrence 0: matches
    warp.note_branch(kSite9, 5, true);   // occurrence 1: log says false
    EXPECT_EQ(warp.divergent_events(), 1u);
}

TEST(Divergence, OccurrencesPastTheCapCountButAreNotChecked) {
    constexpr std::uint64_t kCap = BranchSiteStats::kMaxTrackedOccurrences;
    WarpAcct warp;
    // Lane 0 is true at every tracked occurrence and at two past the cap.
    for (std::uint64_t k = 0; k < kCap + 2; ++k) warp.note_branch(kSite1, 0, true);
    // Lane 1 agrees until the last tracked occurrence, where it splits...
    for (std::uint64_t k = 0; k + 1 < kCap; ++k) warp.note_branch(kSite1, 1, true);
    warp.note_branch(kSite1, 1, false);
    EXPECT_EQ(warp.divergent_events(), 1u);
    // ...and past the cap its disagreements are counted, not checked.
    warp.note_branch(kSite1, 1, false);
    warp.note_branch(kSite1, 1, false);
    EXPECT_EQ(warp.divergent_events(), 1u);
    EXPECT_EQ(warp.total_branch_evaluations(), 2 * (kCap + 2));

    // The warp-batched note honours the same cap.
    for (std::uint64_t k = 0; k + 1 < kCap; ++k) warp.note_branch_lanes(kSite2, 0b11, 0b11);
    warp.note_branch_lanes(kSite2, 0b11, 0b01);  // last tracked occurrence splits
    warp.note_branch_lanes(kSite2, 0b11, 0b01);  // past the cap
    EXPECT_EQ(warp.divergent_events(), 2u);
    EXPECT_EQ(warp.total_branch_evaluations(), 2 * (kCap + 2) + 2 * (kCap + 1));
}

TEST(Divergence, SameFileTextUnderTwoPointersSharesOneSite) {
    // Two buffers with one file name, as two translation units may each
    // hold their own copy of a header's name.
    const char file_a[] = "kernels/shared.hpp";
    const char file_b[] = "kernels/shared.hpp";
    ASSERT_NE(static_cast<const char*>(file_a), static_cast<const char*>(file_b));
    WarpAcct warp;
    warp.note_branch(SourceSite{file_a, 7, 3}, 0, true);
    warp.note_branch(SourceSite{file_b, 7, 3}, 1, false);  // splits occurrence 0
    warp.note_branch(SourceSite{file_a, 7, 3}, 0, true);
    warp.note_branch(SourceSite{file_b, 7, 3}, 1, true);
    ASSERT_EQ(warp.branch_sites.size(), 1u);
    EXPECT_EQ(warp.branch_sites[0].site_key, (SourceSite{file_a, 7, 3}.key()));
    EXPECT_EQ(warp.branch_sites[0].evaluations(), 4u);
    EXPECT_EQ(warp.divergent_events(), 1u);
    // Same pointer, other column: another site.
    warp.note_branch(SourceSite{file_a, 7, 4}, 0, true);
    EXPECT_EQ(warp.branch_sites.size(), 2u);
}

TEST(Divergence, AlternatingSitesEachLandOnTheirOwnSite) {
    WarpAcct warp;
    // Lane 0: A, B, A — the second A misses the last-hit site B.
    warp.note_branch(kSite1, 0, true);
    warp.note_branch(kSite2, 0, false);
    warp.note_branch(kSite1, 0, true);
    ASSERT_EQ(warp.branch_sites.size(), 2u);
    EXPECT_EQ(warp.branch_sites[0].evaluations(), 2u);
    EXPECT_EQ(warp.branch_sites[1].evaluations(), 1u);
    // Lane 1 replays with B's occurrence 0 and A's occurrence 1 flipped.
    warp.note_branch(kSite1, 1, true);
    warp.note_branch(kSite2, 1, true);
    warp.note_branch(kSite1, 1, false);
    EXPECT_EQ(warp.branch_sites[0].divergent, 1u);
    EXPECT_EQ(warp.branch_sites[1].divergent, 1u);
    EXPECT_EQ(warp.total_branch_evaluations(), 6u);
}

}  // namespace
