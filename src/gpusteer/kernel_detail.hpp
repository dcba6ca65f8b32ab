// Internals shared by the Boids kernels (brute-force and grid-based): the
// listing-6.3 candidate test, in thread and warp form, and the device-side
// flocking combination. Not part of the public API.
#pragma once

#include <array>
#include <bit>
#include <span>

#include "cusim/warp_ctx.hpp"
#include "gpusteer/dev_costs.hpp"
#include "gpusteer/kernels.hpp"
#include "steer/behaviors.hpp"
#include "steer/neighbor_search.hpp"
#include "steer/spatial_grid.hpp"

namespace gpusteer::detail {

using cusim::Op;
using cusim::ThreadCtx;
using cusim::WarpCtx;
using steer::NeighborList;
using steer::Vec3;

/// The branch cascade of listing 6.3 applied to one candidate. Returns
/// whether the candidate was accepted into the list. The two ctx.branch()
/// sites are the ones §6.3.1 discusses: "there is no order within the way
/// the agents are stored [...] so it is expected that only a single thread
/// executes a branch most of the time".
inline bool offer_candidate(ThreadCtx& ctx, NeighborList& list, std::uint32_t candidate,
                            float d2, float r2, bool not_me, std::uint32_t max_neighbors) {
    charge_pair_test(ctx);
    if (!ctx.branch(d2 < r2 && not_me)) return false;
    if (ctx.branch(list.count < max_neighbors)) {
        charge_neighbor_add(ctx);
    } else {
        charge_neighbor_replace(ctx);
    }
    list.offer(candidate, d2, max_neighbors);
    return true;
}

/// Warp form of offer_candidate: every active lane l offers `candidate` at
/// squared distance d2[l] to lists[l]; bit l of `preds` is lane l's
/// `d2 < r2 && not_me`. Each lane is charged and its two branches noted
/// exactly as offer_candidate does for its thread, and only the accepting
/// lanes touch their lists.
inline void offer_candidate(WarpCtx& w, NeighborList* lists, std::uint32_t candidate,
                            const float* d2, std::uint32_t preds,
                            std::uint32_t max_neighbors) {
    charge_pair_test(w);
    const std::uint32_t accepted = w.ballot(preds);
    if (accepted == 0) return;
    w.push_active(accepted);
    std::uint32_t room = 0;
    for (std::uint32_t m = accepted; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        room |= std::uint32_t{lists[l].count < max_neighbors} << l;
    }
    w.push_active(w.ballot(room));
    charge_neighbor_add(w);
    w.else_active();
    charge_neighbor_replace(w);
    w.pop_active();
    for (std::uint32_t m = accepted; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        lists[l].offer(candidate, d2[l], max_neighbors);
    }
    w.pop_active();
}

/// Lane-batched read of a device vector: every active lane l reads element
/// idx[l] into out[l], through each lane's texture path when the host
/// enabled texture fetches for the vector.
template <typename T>
void read_lanes(WarpCtx& w, const cupp::deviceT::vector<T>& v, const std::uint64_t* idx,
                T* out) {
    if (v.textured != 0) {
        for (std::uint32_t m = w.active(); m != 0; m &= m - 1) {
            const auto l = static_cast<unsigned>(std::countr_zero(m));
            out[l] = v.read(w.lane(l), idx[l]);
        }
        return;
    }
    w.read(v.data, idx, out);
}

/// Gathers the found neighbors' state from global memory, computes the
/// flocking steering vector with the *same* code the CPU runs, and charges
/// the corresponding instruction mix. `mode` decides what versions 3/4
/// additionally pay: local-memory spills vs. recomputation (§6.2.2).
inline Vec3 device_flocking(ThreadCtx& ctx, const DVec3& positions, const DVec3& forwards,
                            const Vec3& my_pos, const Vec3& my_fwd,
                            const NeighborList& found, const FlockParams& fp,
                            NeighborData mode) {
    std::array<Vec3, NeighborList::kCapacity> nbr_pos{};
    std::array<Vec3, NeighborList::kCapacity> nbr_fwd{};
    NeighborList local;
    for (std::uint32_t k = 0; k < found.count; ++k) {
        nbr_pos[k] = positions.read(ctx, found.index[k]);
        nbr_fwd[k] = forwards.read(ctx, found.index[k]);
        local.index[k] = k;
        local.dist2[k] = found.dist2[k];
    }
    local.count = found.count;

    if (mode == NeighborData::CacheLocal) {
        // Version 3: per-neighbor intermediates (offset vector, distance)
        // were stored in thread-local arrays, which the compiler places in
        // (slow) device memory (Table 2.1). One spilled write per neighbor
        // during the search, three spilled reads per neighbor across the
        // behaviors.
        ctx.local_spill_write(found.count);
        ctx.local_spill_read(3 * found.count);
    } else {
        // Version 4: recompute offsets and distances instead (~8 extra
        // arithmetic instructions per neighbor) — cheaper than device
        // memory, which is why version 4 beats version 3 (§6.2.2).
        ctx.charge(Op::FMad, 8 * found.count);
    }

    charge_flocking(ctx, found.count);
    const steer::FlockingWeights weights{fp.weight_separation, fp.weight_alignment,
                                         fp.weight_cohesion};
    return steer::flocking(my_pos, my_fwd, local,
                           std::span<const Vec3>(nbr_pos.data(), found.count),
                           std::span<const Vec3>(nbr_fwd.data(), found.count), weights);
}

/// Writes a neighbor list into the per-agent result slots.
inline void write_neighbor_list(ThreadCtx& ctx, const NeighborList& list, std::uint32_t me,
                                DU32& result, DU32& result_count) {
    for (std::uint32_t k = 0; k < list.count; ++k) {
        result.write(ctx, std::uint64_t{me} * NeighborList::kCapacity + k, list.index[k]);
    }
    result_count.write(ctx, me, list.count);
}

/// The grid walk of the grid-accelerated neighbor search: visits the 27
/// cells around (cx, cy, cz) in the identical order as
/// steer::SpatialGrid::find_neighbors, so host and device agree bit for
/// bit. Invokes `body(candidate_index)` for every entry.
template <typename Body>
void for_each_grid_candidate(ThreadCtx& ctx, const DU32& cell_start, const DU32& entries,
                             const steer::GridSpec& spec, std::uint32_t cx, std::uint32_t cy,
                             std::uint32_t cz, Body&& body) {
    for (int dz = -1; dz <= 1; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                const std::int64_t x = std::int64_t{cx} + dx;
                const std::int64_t y = std::int64_t{cy} + dy;
                const std::int64_t z = std::int64_t{cz} + dz;
                ctx.charge(Op::Compare, 3);
                if (ctx.branch(x < 0 || y < 0 || z < 0 || x >= spec.dim || y >= spec.dim ||
                               z >= spec.dim)) {
                    continue;
                }
                const auto cell = static_cast<std::uint32_t>(
                    x + spec.dim * (y + std::int64_t{spec.dim} * z));
                ctx.charge(Op::IAdd, 3);
                const std::uint32_t begin = cell_start.read(ctx, cell);
                const std::uint32_t end = cell_start.read(ctx, cell + 1);
                for (std::uint32_t e = begin; e < end; ++e) {
                    ctx.charge(Op::Branch);
                    body(entries.read(ctx, e));
                }
            }
        }
    }
}

}  // namespace gpusteer::detail
