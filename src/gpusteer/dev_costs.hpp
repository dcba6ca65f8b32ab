// Instruction-cost charges for the Boids kernels.
//
// The simulator executes the real steering math on host registers (register
// access is free, Table 2.2); the *instruction issue* costs of that math are
// charged through these helpers so the timing model sees the same mix of
// FADD/FMAD/compare/rsqrt instructions the real kernel would execute. Every
// constant maps to a line of the algorithm listings in the thesis. The
// neighbor-search charges take any context with charge(Op, n) — a thread's
// ThreadCtx or a warp's WarpCtx, which charges each active lane — so both
// forms of a kernel charge from one instruction mix.
#pragma once

#include "cusim/cost_model.hpp"
#include "cusim/thread_ctx.hpp"

namespace gpusteer {

/// One iteration of the neighbor-search inner loop (listing 6.3 lines 2-5):
/// offset = position - s_positions[i] (3 FADD), lengthSquared (3 FMAD),
/// r*r (1 FMUL), index arithmetic (1 IADD), the combined compare (2 CMP +
/// 1 logical op). The memory access itself is charged by the container.
template <typename Ctx>
void charge_pair_test(Ctx& ctx) {
    ctx.charge(cusim::Op::FAdd, 3);
    ctx.charge(cusim::Op::FMad, 3);
    ctx.charge(cusim::Op::FMul, 1);
    ctx.charge(cusim::Op::IAdd, 1);
    ctx.charge(cusim::Op::Compare, 2);
    ctx.charge(cusim::Op::Bitwise, 1);
}

/// Appending a neighbor while fewer than 7 are known (listing 5.2).
template <typename Ctx>
void charge_neighbor_add(Ctx& ctx) {
    ctx.charge(cusim::Op::IAdd, 2);        // store index, bump counter
    ctx.charge(cusim::Op::Register, 2);
}

/// Replace-farthest path: scan 7 entries for the maximum distance and
/// conditionally overwrite (listing 5.2 / listing 6.3 else-branch).
template <typename Ctx>
void charge_neighbor_replace(Ctx& ctx) {
    ctx.charge(cusim::Op::Compare, 7);
    ctx.charge(cusim::Op::MinMax, 7);
    ctx.charge(cusim::Op::Compare, 1);
    ctx.charge(cusim::Op::Register, 3);
}

/// The flocking combination (listing 5.1) over `neighbors` found agents:
/// separation + cohesion + alignment are ~20 scalar FLOPs per neighbor,
/// plus three normalisations (3 FMAD + RSQRT + 3 FMUL each) and the
/// weighted sum (9 FMAD) once.
inline void charge_flocking(cusim::ThreadCtx& ctx, unsigned neighbors) {
    ctx.charge(cusim::Op::FMad, 20 * neighbors);
    ctx.charge(cusim::Op::Recip, neighbors);  // the 1/d falloff division
    for (int b = 0; b < 3; ++b) {
        ctx.charge(cusim::Op::FMad, 3);
        ctx.charge(cusim::Op::RSqrt, 1);
        ctx.charge(cusim::Op::FMul, 3);
    }
    ctx.charge(cusim::Op::FMad, 9);
}

/// The modification substage for one agent: truncate force, integrate,
/// truncate speed, wrap, renormalise forward (agent.hpp apply_steering +
/// wrap_world).
inline void charge_modify(cusim::ThreadCtx& ctx) {
    ctx.charge(cusim::Op::FMad, 14);
    ctx.charge(cusim::Op::FMul, 8);
    ctx.charge(cusim::Op::RSqrt, 2);
    ctx.charge(cusim::Op::Compare, 3);
}

/// Building the 4x4 draw matrix (draw_stage.hpp agent_matrix): one cross
/// product is 6 FMAD, two crosses + normalisations + stores.
inline void charge_draw_matrix(cusim::ThreadCtx& ctx) {
    ctx.charge(cusim::Op::FMad, 18);
    ctx.charge(cusim::Op::RSqrt, 2);
    ctx.charge(cusim::Op::FMul, 6);
}

}  // namespace gpusteer
