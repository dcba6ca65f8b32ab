// The block execution engine.
//
// Executes one thread block functionally: every device thread (or, in the
// warp engine, every warp) is a coroutine that runs until it either finishes
// or suspends at __syncthreads(). The engine drives them in rounds
// ("epochs"): one epoch ends when every live thread sits at the barrier,
// which is then released collectively. A block whose threads disagree about
// the barrier (some finished, some waiting) is the CUDA-undefined
// divergent-__syncthreads case; the engine turns it into a LaunchFailure
// instead of hanging.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cusim/accounting.hpp"
#include "cusim/launch.hpp"
#include "cusim/memcheck.hpp"
#include "cusim/types.hpp"

namespace cusim {

/// Which interpreter executes a block when a kernel provides both forms of
/// a KernelSpec. Selected by CUPP_SIM_ENGINE=warp|thread (default: warp;
/// anything else falls back to warp) with a programmatic override for
/// differential tests. Kernels that only have a per-thread form run it in
/// either mode; the thread form is the warp form's differential oracle.
enum class EngineMode { Thread, Warp };

/// The effective engine mode: the override when set, else CUPP_SIM_ENGINE.
[[nodiscard]] EngineMode engine_mode();
/// Overrides the environment selection (differential tests/benches).
void set_engine_mode(EngineMode mode);
/// Drops the override; engine_mode() reads the environment again.
void clear_engine_mode();

/// Everything the timing model needs to know about one executed block.
struct BlockResult {
    std::vector<WarpAcct> warps;
    std::uint64_t sync_episodes = 0;
};

struct BlockCost;  // multiprocessor.hpp

/// Reusable per-host-thread storage for launches: run_block's thread or
/// warp contexts, coroutine handles, finished bitmap, shared-memory arena
/// and block result, plus run_grid's per-block costs. Every thread that runs
/// blocks uses its own (local()), so steady-state launches allocate nothing
/// per block or per launch: contexts are re-constructed in place and every
/// buffer keeps its capacity. The engine's part is opaque; run_block owns
/// its layout.
struct BlockScratch {
    BlockScratch();
    ~BlockScratch();
    BlockScratch(const BlockScratch&) = delete;
    BlockScratch& operator=(const BlockScratch&) = delete;

    /// The calling host thread's scratch.
    static BlockScratch& local();

    /// run_grid's per-block costs, in launch order.
    std::vector<BlockCost> costs;

    struct State;
    std::unique_ptr<State> state;
};

/// Runs all threads of block `block_idx` to completion on `scratch`. Runs
/// the spec's warp form (one coroutine per warp, lane-batched state,
/// active-mask divergence — see warp_ctx.hpp) when it has one and
/// engine_mode() is Warp; otherwise its thread form, one coroutine per
/// thread. Both go through one block loop and produce bit-identical
/// observables for charge-equal kernel forms. Throws Error(LaunchFailure)
/// wrapping any exception escaping a kernel body and on divergent barrier
/// use. `exec` (optional) gives the threads their memcheck execution
/// context — kernel name, global-memory shadow, device ordinal — for
/// attributed diagnostics. When `violation_sink` is non-null, memcheck
/// violations are buffered there in program order instead of being
/// reported through memcheck::record() immediately (strict mode still
/// throws at the faulting access); the sink is caller-owned so buffered
/// violations survive a mid-block exception, and the parallel launch path
/// flushes them in launch order. The result lives in `scratch` until its
/// next run_block; a caller may move it out.
BlockResult& run_block(BlockScratch& scratch, const CostModel& cm, const LaunchConfig& cfg,
                       const KernelSpec& spec, uint3 block_idx,
                       const memcheck::ExecContext* exec = nullptr,
                       std::vector<memcheck::Violation>* violation_sink = nullptr);

}  // namespace cusim
