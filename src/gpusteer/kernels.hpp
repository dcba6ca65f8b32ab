// The Boids kernels — the five development versions of thesis chapter 6.
//
//   version | device executes                          | kernel(s)
//   --------+------------------------------------------+----------------------------
//     1     | neighbor search (global memory only)     | ns_global_kernel
//     2     | neighbor search (shared-memory tiling)   | ns_shared_kernel
//     3     | full simulation substage (local-memory   | sim_kernel (CacheLocal)
//           | caching of neighbor data)                |
//     4     | full simulation substage (recompute)     | sim_kernel (Recompute)
//     5     | + modification substage & draw matrices  | sim_kernel + modify_kernel
//
// All kernels compute with the *identical* steering math as the CPU
// reference (they call into steer/), so CPU and GPU flocks agree bit for
// bit; the versions differ in where data lives and what the cost model is
// charged — exactly the axes the thesis varies.
#pragma once

#include <cstdint>

#include "cupp/vector.hpp"
#include "cusim/kernel_task.hpp"
#include "cusim/thread_ctx.hpp"
#include "cusim/warp_ctx.hpp"
#include "steer/agent.hpp"
#include "steer/draw_stage.hpp"
#include "steer/vec3.hpp"

namespace gpusteer {

using DVec3 = cupp::deviceT::vector<steer::Vec3>;
using DU32 = cupp::deviceT::vector<std::uint32_t>;
using DF32 = cupp::deviceT::vector<float>;
using DMat4 = cupp::deviceT::vector<steer::Mat4>;

/// Threads per block used by every Boids kernel. 128 gives each
/// multiprocessor 4 resident blocks (register-limited) = 16 warps.
inline constexpr unsigned kThreadsPerBlock = 128;

/// Think-frequency thread->agent mapping (§5.3): in step t only agents with
/// index % period == t % period run the simulation substage; thread gid
/// simulates agent phase + gid * period.
struct ThinkMap {
    std::uint32_t phase = 0;
    std::uint32_t period = 1;

    [[nodiscard]] constexpr std::uint32_t agent_of(std::uint64_t gid) const {
        return phase + static_cast<std::uint32_t>(gid) * period;
    }
    [[nodiscard]] constexpr std::uint32_t thinking_count(std::uint32_t n) const {
        return phase >= n ? 0 : (n - phase + period - 1) / period;
    }
};

/// Flocking parameters as they travel to the device.
struct FlockParams {
    float search_radius;
    float weight_separation;
    float weight_alignment;
    float weight_cohesion;
    std::uint32_t max_neighbors;
};

/// Modification-substage parameters.
struct ModifyParams {
    float dt;
    float world_radius;
    steer::AgentParams params;
};

/// How the simulation-substage kernel treats per-neighbor intermediate
/// values (§6.2.2): version 3 caches them in thread-local memory (which the
/// compiler spills to device memory), version 4 recomputes them.
enum class NeighborData : std::uint32_t {
    CacheLocal = 0,  ///< version 3
    Recompute = 1,   ///< version 4
};

// --- kernels -------------------------------------------------------------

/// Version 1: neighbor search reading every candidate position from global
/// memory ("hardly more than a copy and paste work of the code running on
/// the CPU", §6.2.1). Writes up to 7 neighbor indices per thinking agent
/// into `result` (7 slots per agent) and the found count into `result_count`.
cusim::KernelTask ns_global_kernel(cusim::ThreadCtx& ctx, const DVec3& positions,
                                   float search_radius, DU32& result, DU32& result_count,
                                   ThinkMap map);

/// Version 2: neighbor search with the shared-memory position cache of
/// listing 6.2. Requires the agent count to be a multiple of the block size
/// ("the number of agents has to be a multiply of threads_per_block").
cusim::KernelTask ns_shared_kernel(cusim::ThreadCtx& ctx, const DVec3& positions,
                                   float search_radius, DU32& result, DU32& result_count,
                                   ThinkMap map);

/// Versions 3/4: the complete simulation substage on the device — shared-
/// memory neighbor search plus the flocking combination, writing one
/// steering vector per thinking agent.
cusim::KernelTask sim_kernel(cusim::ThreadCtx& ctx, const DVec3& positions,
                             const DVec3& forwards, DVec3& steerings, FlockParams fp,
                             ThinkMap map, NeighborData mode);

/// The warp-native form of sim_kernel: one call runs a whole warp, with the
/// thread form's locals held per lane. It charges every lane exactly what
/// sim_kernel charges that thread, so both forms give the same LaunchStats;
/// the pair test's charges and the tile's shared reads are booked once per
/// warp while all of its lanes search.
cusim::KernelTask sim_kernel_warp(cusim::WarpCtx& w, const DVec3& positions,
                                  const DVec3& forwards, DVec3& steerings, FlockParams fp,
                                  ThinkMap map, NeighborData mode);

/// Version 5: the modification substage on the device — applies the
/// steering vectors to every agent and emits the 4x4 draw matrices (the
/// only data that still travels back to the host, §6.2.3). Uses shared
/// memory as an extension of the register file, as the thesis describes.
cusim::KernelTask modify_kernel(cusim::ThreadCtx& ctx, DVec3& positions, DVec3& forwards,
                                DF32& speeds, const DVec3& steerings, DMat4& matrices,
                                ModifyParams mp);

}  // namespace gpusteer
