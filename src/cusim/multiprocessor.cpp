#include "cusim/multiprocessor.hpp"

#include <algorithm>

#include "cusim/error.hpp"

namespace cusim {

BlockCost BlockCost::from(const BlockResult& br, const CostModel& cm) {
    BlockCost c;
    c.warps = static_cast<unsigned>(br.warps.size());
    for (const WarpAcct& w : br.warps) {
        // Divergent warp-steps serialise both branch paths; the executing
        // threads already paid the longer path, the penalty re-issues the
        // shorter one (§2.3).
        const std::uint64_t div = w.divergent_events() * cm.divergence_penalty;
        const std::uint64_t warp_compute = w.compute_cycles + div;
        c.compute_cycles += warp_compute;
        c.stall_cycles += w.stall_cycles;
        c.max_warp_busy = std::max(c.max_warp_busy, warp_compute + w.stall_cycles);
        c.bytes += w.bytes_read + w.bytes_written;
    }
    return c;
}

unsigned blocks_per_mp(const CostModel& cm, const LaunchConfig& cfg) {
    unsigned limit = cm.max_blocks_per_mp;
    if (cfg.shared_bytes > 0) {
        if (cfg.shared_bytes > cm.shared_mem_per_mp) {
            throw Error(ErrorCode::InvalidConfiguration,
                        "block requests more shared memory than a multiprocessor has");
        }
        limit = std::min(limit, cm.shared_mem_per_mp / cfg.shared_bytes);
    }
    const std::uint64_t regs_per_block =
        std::uint64_t{cfg.regs_per_thread} * cfg.block.count();
    if (regs_per_block > cm.registers_per_mp) {
        throw Error(ErrorCode::InvalidConfiguration,
                    "block requests more registers than a multiprocessor has");
    }
    if (regs_per_block > 0) {
        limit = std::min<unsigned>(
            limit, static_cast<unsigned>(cm.registers_per_mp / regs_per_block));
    }
    return std::max(1u, limit);
}

double model_grid_seconds(const CostModel& cm, const LaunchConfig& cfg,
                          const std::vector<BlockCost>& blocks, unsigned* resident_out) {
    const unsigned resident = blocks_per_mp(cm, cfg);
    if (resident_out) *resident_out = resident;
    const unsigned nmp = cm.multiprocessors;
    const double bytes_per_cycle = cm.bytes_per_cycle_per_mp();

    // Blocks are dealt to MPs round-robin in launch order; each MP runs its
    // queue in waves of `resident` concurrent blocks. The grid takes as long
    // as the busiest MP.
    double worst = 0.0;
    for (unsigned mp = 0; mp < nmp; ++mp) {
        double mp_cycles = 0.0;
        for (std::size_t base = 0; base < blocks.size(); base += std::size_t{resident} * nmp) {
            std::uint64_t compute = 0;
            std::uint64_t max_warp_busy = 0;
            std::uint64_t bytes = 0;
            unsigned warps = 0;
            for (unsigned r = 0; r < resident; ++r) {
                const std::size_t i = base + std::size_t{r} * nmp + mp;
                if (i >= blocks.size()) break;
                const BlockCost& b = blocks[i];
                compute += b.compute_cycles;
                max_warp_busy = std::max(max_warp_busy, b.max_warp_busy);
                bytes += b.bytes;
                warps += b.warps;
            }
            if (warps == 0) continue;
            // Three lower bounds, the largest of which is the wave time:
            //  * issue throughput — warps time-share the 8 processors, so
            //    at best the MP is busy for the sum of all issue cycles;
            //  * latency chain — a warp's own dependent loads serialise;
            //    other warps hide that latency (§2.3 warp switching), but
            //    no warp finishes before its own compute+stall chain;
            //  * memory bandwidth — traffic cannot exceed the bus.
            // The wave's *summed* stall cycles are deliberately not a bound:
            // warp switching hides one warp's stalls behind other warps'
            // issue slots, so aggregate stall time only surfaces through
            // max_warp_busy (each warp's own compute+stall chain) above.
            double wave = static_cast<double>(compute);
            wave = std::max(wave, static_cast<double>(max_warp_busy));
            wave = std::max(wave, static_cast<double>(bytes) / bytes_per_cycle);
            mp_cycles += wave;
        }
        worst = std::max(worst, mp_cycles);
    }
    return worst / cm.core_clock_hz;
}

}  // namespace cusim
