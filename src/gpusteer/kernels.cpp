#include "gpusteer/kernels.hpp"

#include <bit>

#include "gpusteer/dev_costs.hpp"
#include "gpusteer/kernel_detail.hpp"
#include "steer/behaviors.hpp"
#include "steer/neighbor_search.hpp"

namespace gpusteer {

using cusim::KernelTask;
using cusim::kWarpSize;
using cusim::Op;
using cusim::ThreadCtx;
using cusim::WarpCtx;
using steer::NeighborList;
using steer::Vec3;

using detail::device_flocking;
using detail::offer_candidate;
using detail::read_lanes;
using detail::write_neighbor_list;

KernelTask ns_global_kernel(ThreadCtx& ctx, const DVec3& positions, float search_radius,
                            DU32& result, DU32& result_count, ThinkMap map) {
    const std::uint32_t n = positions.size();
    const std::uint32_t me = map.agent_of(ctx.global_id());
    if (me >= n) co_return;  // no barrier in this kernel: early exit is fine

    const Vec3 my_pos = positions.read(ctx, me);
    const float r2 = search_radius * search_radius;
    NeighborList list;
    for (std::uint32_t i = 0; i < n; ++i) {
        ctx.charge(Op::Branch);  // uniform loop condition
        // Every candidate comes from global memory: the expensive version.
        const Vec3 p = positions.read(ctx, i);
        const Vec3 offset = p - my_pos;
        offer_candidate(ctx, list, i, offset.length_squared(), r2, i != me,
                        NeighborList::kCapacity);
    }
    write_neighbor_list(ctx, list, me, result, result_count);
    co_return;
}

KernelTask ns_shared_kernel(ThreadCtx& ctx, const DVec3& positions, float search_radius,
                            DU32& result, DU32& result_count, ThinkMap map) {
    const std::uint32_t n = positions.size();
    const std::uint32_t tpb = ctx.block_dim().x;
    const std::uint32_t tid = ctx.thread_idx().x;
    const std::uint32_t me = map.agent_of(ctx.global_id());
    const bool active = me < n;

    auto s_positions = ctx.shared_array<Vec3>(tpb);
    Vec3 my_pos{};
    if (active) my_pos = positions.read(ctx, me);
    const float r2 = search_radius * search_radius;
    NeighborList list;

    // Listing 6.2: iterate through all agents one block-sized tile at a
    // time; each thread stages one element, everyone synchronises, then the
    // search runs against the fast shared copy.
    for (std::uint32_t base = 0; base < n; base += tpb) {
        s_positions.write(ctx, tid, positions.read(ctx, base + tid));
        co_await ctx.syncthreads();
        if (ctx.branch(active)) {
            for (std::uint32_t i = 0; i < tpb; ++i) {
                ctx.charge(Op::Branch);
                const Vec3 p = s_positions.read(ctx, i);
                const Vec3 offset = p - my_pos;
                const std::uint32_t global_index = base + i;
                offer_candidate(ctx, list, global_index, offset.length_squared(), r2,
                                global_index != me, NeighborList::kCapacity);
            }
        }
        co_await ctx.syncthreads();
    }
    if (active) write_neighbor_list(ctx, list, me, result, result_count);
    co_return;
}

KernelTask sim_kernel(ThreadCtx& ctx, const DVec3& positions, const DVec3& forwards,
                      DVec3& steerings, FlockParams fp, ThinkMap map, NeighborData mode) {
    const std::uint32_t n = positions.size();
    const std::uint32_t tpb = ctx.block_dim().x;
    const std::uint32_t tid = ctx.thread_idx().x;
    const std::uint32_t me = map.agent_of(ctx.global_id());
    const bool active = me < n;

    auto s_positions = ctx.shared_array<Vec3>(tpb);
    Vec3 my_pos{};
    Vec3 my_fwd{};
    if (active) {
        my_pos = positions.read(ctx, me);
        my_fwd = forwards.read(ctx, me);
    }
    const float r2 = fp.search_radius * fp.search_radius;
    NeighborList list;

    for (std::uint32_t base = 0; base < n; base += tpb) {
        s_positions.write(ctx, tid, positions.read(ctx, base + tid));
        co_await ctx.syncthreads();
        if (ctx.branch(active)) {
            for (std::uint32_t i = 0; i < tpb; ++i) {
                ctx.charge(Op::Branch);
                const Vec3 p = s_positions.read(ctx, i);
                const Vec3 offset = p - my_pos;
                const std::uint32_t global_index = base + i;
                offer_candidate(ctx, list, global_index, offset.length_squared(), r2,
                                global_index != me, fp.max_neighbors);
            }
        }
        co_await ctx.syncthreads();
    }

    if (active) {
        const Vec3 steering =
            device_flocking(ctx, positions, forwards, my_pos, my_fwd, list, fp, mode);
        steerings.write(ctx, me, steering);
    }
    co_return;
}

KernelTask sim_kernel_warp(WarpCtx& w, const DVec3& positions, const DVec3& forwards,
                           DVec3& steerings, FlockParams fp, ThinkMap map,
                           NeighborData mode) {
    const std::uint32_t n = positions.size();
    const std::uint32_t tpb = w.block_dim().x;
    // The thread form's locals, one slot per lane.
    std::uint64_t tid[kWarpSize]{};
    std::uint32_t me[kWarpSize]{};
    std::uint64_t idx[kWarpSize]{};
    std::uint32_t active = 0;
    for (unsigned l = 0; l < w.lanes(); ++l) {
        tid[l] = w.lane_tid(l) % tpb;
        me[l] = map.agent_of(w.global_id(l));
        idx[l] = me[l];
        active |= std::uint32_t{me[l] < n} << l;
    }

    auto s_positions = w.shared_array<Vec3>(tpb);
    Vec3 my_pos[kWarpSize]{};
    Vec3 my_fwd[kWarpSize]{};
    w.push_active(active);
    read_lanes(w, positions, idx, my_pos);
    read_lanes(w, forwards, idx, my_fwd);
    w.pop_active();
    const float r2 = fp.search_radius * fp.search_radius;
    NeighborList lists[kWarpSize];
    // The search reads the lane positions component-wise, so its per-lane
    // distance loop compiles to vector code.
    float my_x[kWarpSize];
    float my_y[kWarpSize];
    float my_z[kWarpSize];
    for (unsigned l = 0; l < kWarpSize; ++l) {
        my_x[l] = my_pos[l].x;
        my_y[l] = my_pos[l].y;
        my_z[l] = my_pos[l].z;
    }

    Vec3 staged[kWarpSize]{};
    float d2[kWarpSize];
    for (std::uint32_t base = 0; base < n; base += tpb) {
        for (unsigned l = 0; l < w.lanes(); ++l) idx[l] = base + tid[l];
        read_lanes(w, positions, idx, staged);
        w.write(s_positions, tid, staged);
        co_await w.syncthreads();
        w.push_active(w.ballot(active));
        if (w.active() != 0) {
            for (std::uint32_t i = 0; i < tpb; ++i) {
                w.charge(Op::Branch);
                const Vec3 p = w.read_broadcast(s_positions, i);
                const std::uint32_t global_index = base + i;
                for (unsigned l = 0; l < kWarpSize; ++l) {
                    const Vec3 offset = p - Vec3{my_x[l], my_y[l], my_z[l]};
                    d2[l] = offset.length_squared();
                }
                // Most candidates lie outside every lane's radius; a vector
                // count lets those skip the per-lane predicate loop.
                unsigned in_radius = 0;
                for (unsigned l = 0; l < kWarpSize; ++l) in_radius += d2[l] < r2;
                std::uint32_t preds = 0;
                for (unsigned l = 0; in_radius != 0 && l < kWarpSize; ++l) {
                    preds |= d2[l] < r2 && global_index != me[l] ? 1u << l : 0u;
                }
                offer_candidate(w, lists, global_index, d2, preds, fp.max_neighbors);
            }
        }
        w.pop_active();
        co_await w.syncthreads();
    }

    for (std::uint32_t m = active; m != 0; m &= m - 1) {
        const auto l = static_cast<unsigned>(std::countr_zero(m));
        ThreadCtx& ctx = w.lane(l);
        const Vec3 steering =
            device_flocking(ctx, positions, forwards, my_pos[l], my_fwd[l], lists[l], fp, mode);
        steerings.write(ctx, me[l], steering);
    }
    co_return;
}

KernelTask modify_kernel(ThreadCtx& ctx, DVec3& positions, DVec3& forwards, DF32& speeds,
                         const DVec3& steerings, DMat4& matrices, ModifyParams mp) {
    const std::uint64_t gid = ctx.global_id();
    if (gid >= positions.size()) co_return;

    steer::Agent agent;
    agent.position = positions.read(ctx, gid);
    agent.forward = forwards.read(ctx, gid);
    agent.speed = speeds.read(ctx, gid);
    const Vec3 steering = steerings.read(ctx, gid);

    // Version 5 keeps its temporaries in shared memory, "used as an
    // extension to thread local memory, so local variables are not stored
    // in device memory" (§6.2.3) — cheap shared traffic instead of spills.
    ctx.charge(Op::SharedAccess, 10);

    // The kernel's few branches (§6.3.1): division-by-zero guards. They
    // rarely diverge, which is why the modification kernel "is not the
    // important factor considering the SIMD branching issue".
    (void)ctx.branch(!steering.is_zero());
    (void)ctx.branch(agent.speed > 0.0f);
    charge_modify(ctx);
    steer::apply_steering(agent, steering, mp.dt, mp.params);
    steer::wrap_world(agent, mp.world_radius);

    positions.write(ctx, gid, agent.position);
    forwards.write(ctx, gid, agent.forward);
    speeds.write(ctx, gid, agent.speed);

    charge_draw_matrix(ctx);
    matrices.write(ctx, gid, steer::agent_matrix(agent.position, agent.forward));
    co_return;
}

}  // namespace gpusteer
