#include "cusim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "cupp/trace.hpp"
#include "cusim/error.hpp"
#include "cusim/multiprocessor.hpp"
#include "cusim/thread_ctx.hpp"
#include "cusim/warp_ctx.hpp"

namespace cusim {

namespace detail {

void FrameCache::flush_metrics() {
    ops_since_flush = 0;
    if (hits == 0 && misses == 0 && evicts == 0) return;
    auto& m = cupp::trace::metrics();
    if (hits > 0) m.add("cusim.framecache.hit", hits);
    if (misses > 0) m.add("cusim.framecache.miss", misses);
    if (evicts > 0) m.add("cusim.framecache.evict", evicts);
    hits = misses = evicts = 0;
}

}  // namespace detail

struct BlockScratch::State {
    /// One engine's units (threads, or warps) and their coroutines.
    /// Declaration order matters for teardown: tasks are destroyed before
    /// ctxs (members die in reverse order), so a suspended coroutine frame
    /// never outlives the context it references.
    template <typename Ctx>
    struct Units {
        std::vector<std::unique_ptr<Ctx>> ctxs;
        std::vector<KernelTask> tasks;
        std::vector<bool> finished;
    };
    BlockState block;
    BlockResult result;
    /// Declared last, so torn down first: no coroutine frame outlives the
    /// block state and warp accounts its context points into.
    std::tuple<Units<ThreadCtx>, Units<WarpCtx>> units;
};

BlockScratch::BlockScratch() : state(std::make_unique<State>()) {}
BlockScratch::~BlockScratch() = default;

BlockScratch& BlockScratch::local() {
    // Touch the frame cache before constructing the scratch: thread_locals
    // die in reverse construction order, and the scratch's teardown
    // recycles coroutine frames through the cache, so the cache must be
    // constructed first.
    detail::FrameCache::local();
    thread_local BlockScratch scratch;
    return scratch;
}

namespace {

uint3 unlinearize_thread(unsigned tid, const dim3& bd) {
    uint3 t;
    t.x = tid % bd.x;
    t.y = (tid / bd.x) % bd.y;
    t.z = tid / (bd.x * bd.y);
    return t;
}

[[noreturn]] void rethrow_as_launch_failure(std::exception_ptr ep) {
    try {
        std::rethrow_exception(ep);
    } catch (const Error& e) {
        throw Error(ErrorCode::LaunchFailure, std::string("kernel threw: ") + e.what());
    } catch (const std::exception& e) {
        throw Error(ErrorCode::LaunchFailure, std::string("kernel threw: ") + e.what());
    } catch (...) {
        throw Error(ErrorCode::LaunchFailure, "kernel threw a non-standard exception");
    }
}

// -1 = no override (read the environment), else the EngineMode value.
std::atomic<int> g_engine_override{-1};

EngineMode engine_mode_from_env() {
    const char* v = std::getenv("CUPP_SIM_ENGINE");
    if (v != nullptr && std::string_view(v) == "thread") return EngineMode::Thread;
    return EngineMode::Warp;
}

}  // namespace

EngineMode engine_mode() {
    const int o = g_engine_override.load(std::memory_order_relaxed);
    if (o >= 0) return static_cast<EngineMode>(o);
    // The environment is process-wide and stable during a run; cache it.
    static const EngineMode env_mode = engine_mode_from_env();
    return env_mode;
}

void set_engine_mode(EngineMode mode) {
    g_engine_override.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void clear_engine_mode() { g_engine_override.store(-1, std::memory_order_relaxed); }

namespace {

/// Constructs unit `u`'s context, in place over the previous block's when
/// the scratch has one (contexts are not assignable).
template <typename Ctx, typename... Args>
Ctx& emplace_ctx(std::vector<std::unique_ptr<Ctx>>& ctxs, unsigned u, Args&&... args) {
    if (u < ctxs.size()) {
        Ctx* p = ctxs[u].get();
        p->~Ctx();
        return *new (p) Ctx(std::forward<Args>(args)...);
    }
    return *ctxs.emplace_back(std::make_unique<Ctx>(std::forward<Args>(args)...));
}

/// The block loop of both engines. A unit is one coroutine: a thread
/// (ThreadCtx, driven as a one-lane warp) or a warp (WarpCtx). Each epoch
/// resumes every unfinished unit once; lane bookkeeping is popcount
/// arithmetic over the units' live and at-barrier masks, so the
/// divergent-barrier diagnostic counts threads under either engine.
template <typename Ctx>
BlockResult& run_units(BlockScratch::State& s, const CostModel& cm, const LaunchConfig& cfg,
                       const std::function<KernelTask(Ctx&)>& entry, uint3 block_idx,
                       const memcheck::ExecContext* exec,
                       std::vector<memcheck::Violation>* violation_sink) {
    constexpr bool kWarps = std::is_same_v<Ctx, WarpCtx>;
    const unsigned nthreads = static_cast<unsigned>(cfg.block.count());
    const unsigned nwarps = cfg.warps_per_block();
    const unsigned nunits = kWarps ? nwarps : nthreads;

    // Everything below reuses the scratch's storage: contexts are
    // reconstructed in place, and the result, task and shared-arena
    // buffers keep their capacity from the previous block.
    BlockResult& result = s.result;
    result.warps.clear();
    result.warps.resize(nwarps);
    auto& [ctxs, tasks, finished] = std::get<BlockScratch::State::Units<Ctx>>(s.units);

    BlockState& block_state = s.block;
    block_state.shared_arena.assign(cfg.shared_bytes, std::byte{0});
    block_state.sync_episodes = 0;
    block_state.shared_shadow.reset();
    block_state.violation_sink = violation_sink;

    // Tear down the previous block's coroutines before their contexts are
    // reconstructed underneath them (frames recycle through the
    // thread-local cache in kernel_task.hpp, so this is cheap).
    tasks.clear();
    tasks.reserve(nunits);
    if (ctxs.size() > nunits) ctxs.resize(nunits);
    for (unsigned u = 0; u < nunits; ++u) {
        if constexpr (kWarps) {
            const unsigned base = u * kWarpSize;
            tasks.push_back(entry(emplace_ctx(
                ctxs, u, base, std::min(nthreads - base, kWarpSize), block_idx,
                cfg.block, cfg.grid, &cm, &block_state, &result.warps[u], exec)));
        } else {
            tasks.push_back(entry(emplace_ctx(
                ctxs, u, unlinearize_thread(u, cfg.block), block_idx, cfg.block,
                cfg.grid, &cm, &block_state, &result.warps[u / kWarpSize], exec)));
        }
    }
    finished.assign(nunits, false);

    unsigned live = nthreads;  // lanes not yet finished, across all units
    while (live > 0) {
        unsigned at_barrier = 0;
        unsigned finished_this_epoch = 0;
        for (unsigned u = 0; u < nunits; ++u) {
            if (finished[u]) continue;
            Ctx& ctx = *ctxs[u];
            const auto lanes_before = static_cast<unsigned>(std::popcount(ctx.live()));
            tasks[u].resume();
            if (auto ep = tasks[u].exception()) rethrow_as_launch_failure(ep);
            if (tasks[u].done() || ctx.live() == 0) {
                // The unit retired: either the body ran to completion or
                // every lane exited via exit_lanes(). All lanes that were
                // still live when this epoch started finish here.
                finished[u] = true;
                ctx.fold_into_warp_acct();
                finished_this_epoch += lanes_before;
                live -= lanes_before;
            } else {
                // Suspended at a barrier. Lanes that exited mid-epoch via
                // exit_lanes() finished without arriving at it.
                const auto lanes_now = static_cast<unsigned>(std::popcount(ctx.live()));
                finished_this_epoch += lanes_before - lanes_now;
                live -= lanes_before - lanes_now;
                at_barrier += static_cast<unsigned>(std::popcount(ctx.at_barrier_mask()));
            }
        }
        if (at_barrier > 0 && (finished_this_epoch > 0 || at_barrier != live)) {
            // __syncthreads() must be reached by every thread of the block;
            // a thread finishing (or not arriving) while others wait is the
            // CUDA-undefined divergent barrier, diagnosed instead of hung.
            throw Error(ErrorCode::LaunchFailure,
                        "__syncthreads() reached by " + std::to_string(at_barrier) +
                            " of " + std::to_string(live + finished_this_epoch) +
                            " threads (divergent barrier)");
        }
        if (live == 0) break;
        for (auto& ctx : ctxs) ctx->clear_barrier();
        ++block_state.sync_episodes;
    }

    result.sync_episodes = block_state.sync_episodes;
    // The sink points into the caller's frame; don't leave it dangling in
    // reusable scratch.
    block_state.violation_sink = nullptr;
    return result;
}

}  // namespace

BlockResult& run_block(BlockScratch& scratch, const CostModel& cm, const LaunchConfig& cfg,
                       const KernelSpec& spec, uint3 block_idx,
                       const memcheck::ExecContext* exec,
                       std::vector<memcheck::Violation>* violation_sink) {
    if (spec.warp && engine_mode() == EngineMode::Warp) {
        return run_units(*scratch.state, cm, cfg, spec.warp, block_idx, exec,
                         violation_sink);
    }
    return run_units(*scratch.state, cm, cfg, spec.thread, block_idx, exec, violation_sink);
}

}  // namespace cusim
