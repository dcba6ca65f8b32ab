// Cycle and divergence accounting structures.
//
// Costs are charged per thread; at thread completion the engine folds them
// into the thread's warp with SIMD (max) semantics: in a warp all threads
// execute the same instruction stream, so a full warp charging one FADD per
// thread costs 4 cycles once, not 32 times (Table 2.2 is "per warp").
//
// Branch divergence (§2.3/§6.3.1) is tracked per static branch site and per
// dynamic occurrence: within a warp, the k-th evaluation of a site by one
// lane is lined up against the k-th evaluation by every other lane (exact
// for uniform loop structure, an approximation when the site itself sits
// behind non-uniform control flow). A warp-step whose lanes disagree about
// the predicate is a divergent event: the hardware serialises both paths.
// The thesis itself could not measure this ("no profiling tool is
// available", §6.3.1); the simulator exposes the counters it could not get.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <source_location>
#include <vector>

#include "cusim/cost_model.hpp"
#include "cusim/types.hpp"

namespace cusim {

/// Where a static branch site sits in the kernel source: the file-name
/// pointer, line and column std::source_location reports for the call.
/// Warps find their per-site records by this identity (WarpAcct::note_branch).
struct SourceSite {
    const char* file = nullptr;
    std::uint_least32_t line = 0;
    std::uint_least32_t column = 0;

    [[nodiscard]] static SourceSite of(const std::source_location& loc) {
        return SourceSite{loc.file_name(), loc.line(), loc.column()};
    }

    friend bool operator==(const SourceSite&, const SourceSite&) = default;

    /// Stable identifier: FNV-1a over the file-name *text*, so two pointers
    /// to the same file name give one key, hash-combined with line and
    /// column so that nearby sites stay apart.
    [[nodiscard]] std::uint64_t key() const {
        std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
        for (const char* p = file; p != nullptr && *p != '\0'; ++p) {
            h = (h ^ static_cast<unsigned char>(*p)) * 1099511628211ull;
        }
        const auto combine = [](std::uint64_t seed, std::uint64_t v) {
            return seed ^ (v + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2));
        };
        return combine(combine(h, line), column);
    }
};

/// Per-site branch record within one warp.
struct BranchSiteStats {
    /// Occurrences beyond this are counted but not divergence-checked
    /// (bounds memory for degenerate barrier-free mega-loops).
    static constexpr std::uint64_t kMaxTrackedOccurrences = 1ull << 22;

    explicit BranchSiteStats(std::uint64_t key) : site_key(key) {}

    std::uint64_t site_key = 0;   ///< SourceSite::key() of the location
    std::uint64_t divergent = 0;  ///< warp-steps whose lanes disagreed

    /// Divergence log, two bits per tracked occurrence in pairs of words
    /// covering 64 occurrences each: bit k of the first word is the
    /// predicate of the first lane to reach occurrence k, bit k of the
    /// second says occurrence k was already counted divergent.
    std::vector<std::uint64_t> log;
    std::uint32_t logged = 0;     ///< occurrences in the log
    std::array<std::uint32_t, kWarpSize> lane_occurrence{};

    /// Every lane's evaluations of this site.
    [[nodiscard]] std::uint64_t evaluations() const {
        std::uint64_t n = 0;
        for (const std::uint32_t k : lane_occurrence) n += k;
        return n;
    }

    void note(unsigned lane, bool pred) {
        const std::uint32_t idx = lane_occurrence[lane]++;
        // A lane is at most one occurrence ahead of the log, so past its
        // end means either the first lane at a new occurrence or the cap.
        if (idx >= logged) {
            if (idx < kMaxTrackedOccurrences) append(pred);
            return;
        }
        if (first_pred(idx) != pred) count_split(idx);
    }

    /// Batched equivalent of calling note(l, (preds >> l) & 1) for every set
    /// lane of `mask` in ascending lane order, valid only when all those
    /// lanes sit at the same occurrence `idx` (the caller checks). One
    /// popcount replaces up to 32 log round trips.
    void note_lanes(std::uint32_t mask, std::uint32_t preds, std::uint32_t idx) {
        if (mask == ~std::uint32_t{0}) {
            for (std::uint32_t& k : lane_occurrence) ++k;
        } else {
            for (std::uint32_t m = mask; m != 0; m &= m - 1) {
                ++lane_occurrence[std::countr_zero(m)];
            }
        }
        if (idx >= logged) {
            if (idx >= kMaxTrackedOccurrences) return;
            append(((preds >> std::countr_zero(mask)) & 1u) != 0);
        }
        const std::uint32_t agree = first_pred(idx) ? (preds & mask) : (~preds & mask);
        if (agree != mask) count_split(idx);
    }

private:
    [[nodiscard]] bool first_pred(std::uint32_t idx) const {
        return ((log[idx / 64 * 2] >> (idx % 64)) & 1u) != 0;
    }

    /// Counts occurrence `idx`, whose lanes split, divergent once.
    void count_split(std::uint32_t idx) {
        std::uint64_t& flags = log[idx / 64 * 2 + 1];
        const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
        if ((flags & bit) == 0) {
            flags |= bit;
            ++divergent;
        }
    }

    /// Logs occurrence `logged` with the first lane's predicate.
    [[gnu::noinline]] void append(bool pred) {
        if (logged % 64 == 0) log.resize(log.size() + 2);
        log[logged / 64 * 2] |= std::uint64_t{pred} << (logged % 64);
        ++logged;
    }
};

/// Shared-memory bank-conflict tracking for one warp, occurrence-aligned
/// like BranchSiteStats: the k-th shared access by one lane is lined up
/// against the k-th access by every other lane of its half-warp (banks are
/// resolved per half-warp on compute capability 1.x). Within one aligned
/// step, lanes hitting the *same* 32-bit word broadcast (no conflict);
/// lanes hitting a *different* word of an already-claimed bank each count
/// one conflict — the hardware serialises those accesses. Conflicts are
/// counted, not charged to cycles, so enabling the profiler never changes
/// modelled time. Only populated while cusim::prof is collecting.
struct SharedAcct {
    /// Occurrences beyond this are counted but not conflict-checked.
    static constexpr std::uint32_t kMaxTrackedOccurrences = 1u << 16;

    std::uint64_t accesses = 0;   ///< every instrumented shared read/write
    std::uint64_t conflicts = 0;  ///< serialised accesses (see above)

    /// Per aligned step and half-warp: first 32-bit word claimed per bank
    /// (+1, 0 = unclaimed).
    struct Step {
        std::array<std::uint32_t, kSharedMemBanks> word_plus1_lo{};
        std::array<std::uint32_t, kSharedMemBanks> word_plus1_hi{};
    };
    std::vector<Step> steps;
    std::array<std::uint32_t, kWarpSize> lane_occurrence{};

    void note(unsigned lane, std::uint64_t byte_offset) {
        ++accesses;
        const std::uint32_t idx = lane_occurrence[lane]++;
        if (idx >= kMaxTrackedOccurrences) return;
        if (idx >= steps.size()) steps.resize(idx + 1);
        const auto word = static_cast<std::uint32_t>(byte_offset / 4);
        const unsigned bank = word % kSharedMemBanks;
        auto& claimed = lane < kWarpSize / 2 ? steps[idx].word_plus1_lo
                                             : steps[idx].word_plus1_hi;
        if (claimed[bank] == 0) {
            claimed[bank] = word + 1;
        } else if (claimed[bank] != word + 1) {
            ++conflicts;
        }
    }
};

/// Accounting state of one warp.
struct WarpAcct {
    // Cycle costs are SIMD-folded: max over the warp's threads (the warp
    // advances at the pace of its slowest lane). Byte traffic is summed —
    // each lane moves its own data over the bus.
    std::uint64_t compute_cycles = 0;  ///< issue (compute-pipe) cycles, max-fold
    std::uint64_t stall_cycles = 0;    ///< memory-latency cycles (hideable), max-fold
    std::uint64_t bytes_read = 0;      ///< device-memory traffic, sum-fold
    std::uint64_t bytes_written = 0;   ///< sum-fold
    /// Payload bytes the kernel actually asked for, before the coalescing
    /// model padded the bus transactions (charged/useful = the coalescing
    /// efficiency the profiler reports). Sum-fold like the charged bytes.
    std::uint64_t useful_bytes_read = 0;
    std::uint64_t useful_bytes_written = 0;

    std::vector<BranchSiteStats> branch_sites;
    SharedAcct shared;

    void note_branch(const SourceSite& src, unsigned lane, bool pred) {
        site(src).note(lane, pred);
    }

    /// Warp-batched branch note: one site lookup for the whole warp instead
    /// of one per lane. Equivalent to note_branch(src, l, (preds >> l) & 1)
    /// for each set lane of `mask` in ascending order; when the lanes'
    /// occurrence counters have drifted apart (divergent control flow around
    /// the site itself), falls back to exactly those per-lane calls.
    void note_branch_lanes(const SourceSite& src, std::uint32_t mask, std::uint32_t preds) {
        if (mask == 0) return;
        BranchSiteStats& s = site(src);
        const auto l0 = static_cast<unsigned>(std::countr_zero(mask));
        const std::uint32_t idx = s.lane_occurrence[l0];
        bool aligned = true;
        if (mask == ~std::uint32_t{0}) {
            std::uint32_t drift = 0;
            for (const std::uint32_t k : s.lane_occurrence) drift |= k ^ idx;
            aligned = drift == 0;
        } else {
            for (std::uint32_t m = mask; m != 0; m &= m - 1) {
                if (s.lane_occurrence[std::countr_zero(m)] != idx) {
                    aligned = false;
                    break;
                }
            }
        }
        if (aligned) {
            s.note_lanes(mask, preds, idx);
            return;
        }
        for (std::uint32_t m = mask; m != 0; m &= m - 1) {
            const auto l = static_cast<unsigned>(std::countr_zero(m));
            s.note(l, ((preds >> l) & 1u) != 0);
        }
    }

    /// Divergent warp-steps over the whole kernel.
    [[nodiscard]] std::uint64_t divergent_events() const {
        std::uint64_t events = 0;
        for (const auto& s : branch_sites) events += s.divergent;
        return events;
    }

    [[nodiscard]] std::uint64_t total_branch_evaluations() const {
        std::uint64_t n = 0;
        for (const auto& s : branch_sites) n += s.evaluations();
        return n;
    }

private:
    /// The record a branch at `src` notes into. Sites are found by source
    /// identity, trying the location this warp hit last first; the key is
    /// hashed only when the warp first meets a location.
    BranchSiteStats& site(const SourceSite& src) {
        if (src == last_src_) return branch_sites[last_site_];
        return find_site(src);
    }

    /// One source location this warp has met, and its index in
    /// branch_sites (several locations share a site when their keys match).
    struct SiteRef {
        SourceSite src;
        std::uint32_t site = 0;
    };

    [[gnu::noinline]] BranchSiteStats& find_site(SourceSite src) {
        auto ref = site_refs_.begin();
        while (ref != site_refs_.end() && ref->src != src) ++ref;
        if (ref == site_refs_.end()) {
            const std::uint64_t key = src.key();
            std::uint32_t i = 0;
            while (i < branch_sites.size() && branch_sites[i].site_key != key) ++i;
            if (i == branch_sites.size()) branch_sites.emplace_back(key);
            ref = site_refs_.insert(site_refs_.end(), SiteRef{src, i});
        }
        last_src_ = src;
        last_site_ = ref->site;
        return branch_sites[last_site_];
    }

    std::vector<SiteRef> site_refs_;
    /// The location hit last and its branch_sites index. The initial value
    /// matches no location: file_name() is never null.
    SourceSite last_src_{nullptr, ~std::uint_least32_t{0}, ~std::uint_least32_t{0}};
    std::uint32_t last_site_ = 0;
};

/// Per-thread accounting, folded into the warp when the thread finishes.
struct ThreadAcct {
    std::uint64_t compute_cycles = 0;
    std::uint64_t stall_cycles = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t useful_bytes_read = 0;
    std::uint64_t useful_bytes_written = 0;

    void charge(const CostModel& cm, Op op, unsigned n = 1) {
        compute_cycles += std::uint64_t{cm.issue_cycles(op)} * n;
        stall_cycles += std::uint64_t{cm.stall_cycles(op)} * n;
    }
};

/// Aggregate result of one kernel launch (returned by Device::launch).
struct LaunchStats {
    std::uint64_t blocks = 0;
    std::uint64_t warps = 0;
    std::uint64_t threads = 0;
    /// Threads per block as configured — recorded at launch so reports
    /// never have to re-derive it from threads/blocks.
    std::uint64_t threads_per_block = 0;

    std::uint64_t compute_cycles = 0;       ///< sum over warps
    std::uint64_t stall_cycles = 0;         ///< sum over warps
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    /// Payload bytes before coalescing padding (see WarpAcct); the
    /// profiler's coalescing efficiency is useful / charged.
    std::uint64_t useful_bytes_read = 0;
    std::uint64_t useful_bytes_written = 0;
    std::uint64_t divergent_events = 0;     ///< estimated divergent warp-steps
    std::uint64_t branch_evaluations = 0;
    /// Shared-memory accesses and bank conflicts (populated only while
    /// cusim::prof is collecting — see SharedAcct).
    std::uint64_t shared_accesses = 0;
    std::uint64_t shared_bank_conflicts = 0;
    std::uint64_t syncthreads_count = 0;    ///< barrier episodes summed over blocks

    unsigned resident_blocks_per_mp = 0;    ///< occupancy actually achieved
    double device_seconds = 0.0;            ///< modelled execution time
};

}  // namespace cusim
