// WarpCtx — the warp-vectorized execution context.
//
// The classic engine interprets one coroutine per device thread; this
// context is what a kernel sees when it is written *per warp* instead: one
// coroutine frame and one resume drive up to 32 lanes whose state lives in
// contiguous per-lane arrays (structure-of-arrays), and divergence is an
// explicit active-lane mask with a reconvergence stack — the same
// representation the cost model already uses to charge divergent branches
// (§2.3), so executing this way changes nothing the accounting can observe.
//
// Contract with the per-thread form of the same kernel (KernelSpec): every
// lane must be charged the same operations in the same per-lane occurrence
// order as the thread-form kernel would charge its thread. Cycle costs
// max-fold and byte traffic sum-folds over the warp (accounting.hpp), and
// both the divergence estimator and the bank-conflict tracker are
// occurrence-aligned per lane, so charge-equal forms produce bit-identical
// LaunchStats. The differential harness (tests/cusim_stream_diff_test.cpp)
// enforces exactly this across both engines.
//
// Fast path / slow path: while memcheck is off, lane-batched accessors
// validate bounds, charge the active lanes and move the data with memcpy.
// A charge made while the whole warp is active is booked once, in a
// warp-uniform account every lane owes; divergent masks charge each active
// lane's slot. A broadcast read (all lanes read one shared element) costs
// one bounds check, one charge and one copy. While memcheck is on, every
// access is routed through the lane's full ThreadCtx facade (lane(l)) — the
// identical code path the thread engine runs, so diagnostics, shadow-state
// updates and strict-mode throws match to the byte.
#pragma once

#include <bit>
#include <coroutine>
#include <cstdint>
#include <cstring>
#include <new>
#include <source_location>

#include "cusim/accounting.hpp"
#include "cusim/cost_model.hpp"
#include "cusim/device_ptr.hpp"
#include "cusim/error.hpp"
#include "cusim/memcheck.hpp"
#include "cusim/prof.hpp"
#include "cusim/shared_array.hpp"
#include "cusim/thread_ctx.hpp"
#include "cusim/types.hpp"

namespace cusim {

class WarpCtx {
public:
    WarpCtx(unsigned base_tid, unsigned nlanes, uint3 block_idx, dim3 block_dim,
            dim3 grid_dim, const CostModel* cm, BlockState* block, WarpAcct* warp,
            const memcheck::ExecContext* exec = nullptr)
        : base_tid_(base_tid),
          nlanes_(nlanes),
          full_mask_(nlanes >= kWarpSize ? ~std::uint32_t{0} : ((1u << nlanes) - 1u)),
          live_(full_mask_),
          active_(full_mask_),
          block_idx_(block_idx),
          block_dim_(block_dim),
          grid_dim_(grid_dim),
          cm_(cm),
          block_(block),
          warp_(warp),
          exec_(exec) {}

    WarpCtx(const WarpCtx&) = delete;
    WarpCtx& operator=(const WarpCtx&) = delete;

    ~WarpCtx() {
        for (std::uint32_t m = lane_constructed_; m != 0; m &= m - 1) {
            lane_ptr(static_cast<unsigned>(std::countr_zero(m)))->~ThreadCtx();
        }
    }

    // --- geometry ---
    [[nodiscard]] const uint3& block_idx() const { return block_idx_; }
    [[nodiscard]] const dim3& block_dim() const { return block_dim_; }
    [[nodiscard]] const dim3& grid_dim() const { return grid_dim_; }
    /// Lanes this warp actually has (32, or fewer in a block's tail warp).
    [[nodiscard]] unsigned lanes() const { return nlanes_; }
    [[nodiscard]] unsigned warp_index() const { return base_tid_ / kWarpSize; }
    /// Linearised in-block thread id of lane `l`.
    [[nodiscard]] unsigned lane_tid(unsigned l) const { return base_tid_ + l; }
    [[nodiscard]] unsigned linear_bid() const {
        return block_idx_.x + grid_dim_.x * (block_idx_.y + grid_dim_.y * block_idx_.z);
    }
    /// Grid-global thread id of lane `l`.
    [[nodiscard]] std::uint64_t global_id(unsigned l) const {
        return std::uint64_t{linear_bid()} * block_dim_.count() + base_tid_ + l;
    }

    // --- masks ---
    /// Lanes currently executing (subset of live()).
    [[nodiscard]] std::uint32_t active() const { return active_; }
    /// Lanes that have not exited the kernel.
    [[nodiscard]] std::uint32_t live() const { return live_; }
    /// All lanes of this warp (the mask a fresh warp starts with).
    [[nodiscard]] std::uint32_t full_mask() const { return full_mask_; }

    // --- divergence -------------------------------------------------------
    /// Evaluates a branch across the warp. `preds` carries one predicate bit
    /// per lane; only active lanes participate. Charges one Op::Branch per
    /// active lane and feeds the per-site divergence estimator exactly as 32
    /// individual ThreadCtx::branch calls would. Returns the mask of active
    /// lanes whose predicate is true — feed it to push_active().
    std::uint32_t ballot(std::uint32_t preds,
                         std::source_location loc = std::source_location::current()) {
        preds &= active_;
        charge(Op::Branch);
        // base_tid_ is a multiple of kWarpSize, so lane l *is* the
        // (tid % kWarpSize) slot ThreadCtx::branch would note — the whole
        // warp's predicates go to the divergence estimator in one call.
        warp_->note_branch_lanes(SourceSite::of(loc), active_, preds);
        return preds;
    }

    /// Enters the taken side of a divergent region: saves the current mask
    /// on the reconvergence stack and restricts execution to `taken` (which
    /// is intersected with the current active mask).
    void push_active(std::uint32_t taken) {
        if (depth_ >= kMaxNesting) {
            throw Error(ErrorCode::InvalidValue,
                        "warp divergence nested deeper than " +
                            std::to_string(kMaxNesting) + " levels");
        }
        stack_[depth_].saved = active_;
        stack_[depth_].taken = taken & active_;
        active_ = stack_[depth_].taken;
        ++depth_;
    }

    /// Switches to the not-taken side of the innermost divergent region.
    void else_active() {
        check_depth("else_active");
        const Frame& f = stack_[depth_ - 1];
        active_ = f.saved & ~f.taken & live_;
    }

    /// Reconverges: restores the mask saved by the matching push_active()
    /// (minus any lanes that exited inside the region).
    void pop_active() {
        check_depth("pop_active");
        --depth_;
        active_ = stack_[depth_].saved & live_;
    }

    /// Lanes in `mask` return from the kernel. When every live lane has
    /// exited, the engine retires the warp even if the coroutine body has
    /// statements left.
    void exit_lanes(std::uint32_t mask) {
        live_ &= ~mask;
        active_ &= live_;
    }

    // --- __syncthreads() --------------------------------------------------
    struct SyncAwaitable {
        WarpCtx* w;
        /// A barrier no active lane executes is a no-op, not a suspension.
        bool await_ready() const noexcept { return w->active_ == 0; }
        void await_suspend(std::coroutine_handle<>) const noexcept {
            w->at_barrier_ = w->active_;
        }
        void await_resume() const noexcept {}
    };

    /// `co_await w.syncthreads();` — suspends the warp with its active lanes
    /// flagged at the barrier. Lanes not in the active mask do NOT arrive;
    /// the engine diagnoses that as the divergent-barrier LaunchFailure,
    /// with the same message the thread engine produces.
    [[nodiscard]] SyncAwaitable syncthreads() {
        charge(Op::SyncThreads);
        return SyncAwaitable{this};
    }

    // --- accounting -------------------------------------------------------
    /// Charges `n` instructions of class `op` to every active lane. While
    /// every lane of the warp is active the charge lands once in the
    /// warp-uniform account (see uniform_); divergent masks bit-walk the
    /// per-lane slots.
    void charge(Op op, unsigned n = 1) {
        const std::uint64_t c = std::uint64_t{cm_->issue_cycles(op)} * n;
        const std::uint64_t s = std::uint64_t{cm_->stall_cycles(op)} * n;
        if (active_ == full_mask_) [[likely]] {
            uniform_.compute_cycles += c;
            uniform_.stall_cycles += s;
            return;
        }
        for (std::uint32_t m = active_; m != 0; m &= m - 1) {
            const auto l = static_cast<unsigned>(std::countr_zero(m));
            accts_[l].compute_cycles += c;
            accts_[l].stall_cycles += s;
        }
    }

    [[nodiscard]] const CostModel& cost_model() const { return *cm_; }

    // --- shared memory ----------------------------------------------------
    /// Carves a typed array out of the block's shared arena — one carve per
    /// warp stands in for the identical carve every thread of the block
    /// performs, so the offsets match the thread-form kernel. Use this, not
    /// lane(l).shared_array(): the lane facades keep separate cursors.
    template <typename T>
    SharedArray<T> shared_array(std::uint64_t count) {
        return block_->carve<T>(shared_cursor_, count);
    }

    // --- lane-batched accounted memory ops --------------------------------
    // idx/out/v are lane-indexed arrays (kWarpSize entries); only active
    // lanes are read or written. Charges are identical per lane to the
    // per-element ThreadCtx accessors in thread_ctx.hpp.

    template <typename T>
    void read(const DevicePtr<T>& p, const std::uint64_t* idx, T* out) {
        if (memcheck::enabled()) {
            for (std::uint32_t m = active_; m != 0; m &= m - 1) {
                const auto l = static_cast<unsigned>(std::countr_zero(m));
                out[l] = p.read(lane(l), idx[l]);
            }
            return;
        }
        check_bounds(p.count_, idx, [&](unsigned l) { (void)p.read(lane(l), idx[l]); });
        charge_global(Op::GlobalRead, cm_->charged_bytes(sizeof(T)), sizeof(T),
                      /*is_read=*/true);
        if (active_ == ~std::uint32_t{0}) [[likely]] {
            if (contiguous(idx)) {
                // Coalesced access: one bulk copy moves the whole warp's data.
                std::memcpy(out, p.base_ + idx[0] * sizeof(T), kWarpSize * sizeof(T));
                return;
            }
            for (unsigned l = 0; l < kWarpSize; ++l) {
                std::memcpy(&out[l], p.base_ + idx[l] * sizeof(T), sizeof(T));
            }
            return;
        }
        for (std::uint32_t m = active_; m != 0; m &= m - 1) {
            const auto l = static_cast<unsigned>(std::countr_zero(m));
            std::memcpy(&out[l], p.base_ + idx[l] * sizeof(T), sizeof(T));
        }
    }

    template <typename T>
    void write(const DevicePtr<T>& p, const std::uint64_t* idx, const T* v) {
        if (memcheck::enabled()) {
            for (std::uint32_t m = active_; m != 0; m &= m - 1) {
                const auto l = static_cast<unsigned>(std::countr_zero(m));
                p.write(lane(l), idx[l], v[l]);
            }
            return;
        }
        check_bounds(p.count_, idx, [&](unsigned l) { p.write(lane(l), idx[l], v[l]); });
        charge_global(Op::GlobalWrite, cm_->charged_bytes(sizeof(T)), sizeof(T),
                      /*is_read=*/false);
        if (active_ == ~std::uint32_t{0}) [[likely]] {
            if (contiguous(idx)) {
                std::memcpy(p.base_ + idx[0] * sizeof(T), v, kWarpSize * sizeof(T));
                return;
            }
            for (unsigned l = 0; l < kWarpSize; ++l) {
                std::memcpy(p.base_ + idx[l] * sizeof(T), &v[l], sizeof(T));
            }
            return;
        }
        for (std::uint32_t m = active_; m != 0; m &= m - 1) {
            const auto l = static_cast<unsigned>(std::countr_zero(m));
            std::memcpy(p.base_ + idx[l] * sizeof(T), &v[l], sizeof(T));
        }
    }

    template <typename T>
    void read(const SharedArray<T>& a, const std::uint64_t* idx, T* out) {
        if (memcheck::enabled()) {
            for (std::uint32_t m = active_; m != 0; m &= m - 1) {
                const auto l = static_cast<unsigned>(std::countr_zero(m));
                out[l] = a.read(lane(l), idx[l]);
            }
            return;
        }
        check_bounds(a.count_, idx, [&](unsigned l) { (void)a.read(lane(l), idx[l]); });
        charge(Op::SharedAccess);
        note_shared_lanes([&](unsigned l) { return a.base_ + idx[l] * sizeof(T); });
        if (active_ == ~std::uint32_t{0}) [[likely]] {
            if (contiguous(idx)) {
                std::memcpy(out, a.base_ + idx[0] * sizeof(T), kWarpSize * sizeof(T));
                return;
            }
            for (unsigned l = 0; l < kWarpSize; ++l) {
                std::memcpy(&out[l], a.base_ + idx[l] * sizeof(T), sizeof(T));
            }
            return;
        }
        for (std::uint32_t m = active_; m != 0; m &= m - 1) {
            const auto l = static_cast<unsigned>(std::countr_zero(m));
            std::memcpy(&out[l], a.base_ + idx[l] * sizeof(T), sizeof(T));
        }
    }

    /// Broadcast read: every active lane reads element `i` (the tile loop
    /// of a shared-memory kernel). One bounds check, one charge and one
    /// copy stand in for the per-lane reads; the bank-conflict tracker
    /// still sees each lane's access while the profiler collects. With
    /// memcheck on, or `i` out of range, the lanes read through their
    /// facades, so diagnostics match the thread engine byte for byte.
    template <typename T>
    T read_broadcast(const SharedArray<T>& a, std::uint64_t i) {
        T v{};
        if (memcheck::enabled() || i >= a.count_) [[unlikely]] {
            for (std::uint32_t m = active_; m != 0; m &= m - 1) {
                v = a.read(lane(static_cast<unsigned>(std::countr_zero(m))), i);
            }
            return v;
        }
        charge(Op::SharedAccess);
        note_shared_lanes([&](unsigned) { return a.base_ + i * sizeof(T); });
        std::memcpy(&v, a.base_ + i * sizeof(T), sizeof(T));
        return v;
    }

    template <typename T>
    void write(const SharedArray<T>& a, const std::uint64_t* idx, const T* v) {
        if (memcheck::enabled()) {
            for (std::uint32_t m = active_; m != 0; m &= m - 1) {
                const auto l = static_cast<unsigned>(std::countr_zero(m));
                a.write(lane(l), idx[l], v[l]);
            }
            return;
        }
        check_bounds(a.count_, idx, [&](unsigned l) { a.write(lane(l), idx[l], v[l]); });
        charge(Op::SharedAccess);
        note_shared_lanes([&](unsigned l) { return a.base_ + idx[l] * sizeof(T); });
        if (active_ == ~std::uint32_t{0}) [[likely]] {
            if (contiguous(idx)) {
                std::memcpy(a.base_ + idx[0] * sizeof(T), v, kWarpSize * sizeof(T));
                return;
            }
            for (unsigned l = 0; l < kWarpSize; ++l) {
                std::memcpy(a.base_ + idx[l] * sizeof(T), &v[l], sizeof(T));
            }
            return;
        }
        for (std::uint32_t m = active_; m != 0; m &= m - 1) {
            const auto l = static_cast<unsigned>(std::countr_zero(m));
            std::memcpy(a.base_ + idx[l] * sizeof(T), &v[l], sizeof(T));
        }
    }

    // --- lane facade ------------------------------------------------------
    /// Full ThreadCtx view of lane `l`, for per-lane escape hatches (texture
    /// fetches, constant reads, per-lane helper functions written against
    /// ThreadCtx). Lazily constructed; its charges land in the same per-lane
    /// accounting slot the warp-level paths use. Do NOT co_await a lane
    /// facade's syncthreads() — warp-native kernels barrier through
    /// WarpCtx::syncthreads().
    ThreadCtx& lane(unsigned l) {
        if ((lane_constructed_ & (1u << l)) == 0) {
            new (lane_raw(l))
                ThreadCtx(delinearize(base_tid_ + l), block_idx_, block_dim_, grid_dim_,
                          cm_, block_, warp_, exec_, &accts_[l]);
            lane_constructed_ |= 1u << l;
        }
        return *lane_ptr(l);
    }

    // --- engine internals -------------------------------------------------
    [[nodiscard]] std::uint32_t at_barrier_mask() const { return at_barrier_; }
    void clear_barrier() { at_barrier_ = 0; }
    [[nodiscard]] BlockState& block_state() { return *block_; }

    /// Folds the lanes into the warp's accounting at warp retirement: cycles
    /// at the pace of the slowest lane (SIMD max), traffic summed over
    /// lanes — the same fold the thread engine performs per finished thread.
    /// Each lane's total is its own slot plus the warp-uniform account, so
    /// the integers are the ones per-lane charging would have produced.
    void fold_into_warp_acct() {
        WarpAcct& w = *warp_;
        const ThreadAcct& u = uniform_;
        for (unsigned l = 0; l < nlanes_; ++l) {
            const ThreadAcct& a = accts_[l];
            const std::uint64_t compute = a.compute_cycles + u.compute_cycles;
            const std::uint64_t stall = a.stall_cycles + u.stall_cycles;
            if (compute > w.compute_cycles) w.compute_cycles = compute;
            if (stall > w.stall_cycles) w.stall_cycles = stall;
            w.bytes_read += a.bytes_read + u.bytes_read;
            w.bytes_written += a.bytes_written + u.bytes_written;
            w.useful_bytes_read += a.useful_bytes_read + u.useful_bytes_read;
            w.useful_bytes_written += a.useful_bytes_written + u.useful_bytes_written;
        }
    }

private:
    static constexpr unsigned kMaxNesting = kWarpSize;
    struct Frame {
        std::uint32_t saved = 0;
        std::uint32_t taken = 0;
    };

    void check_depth(const char* who) const {
        if (depth_ == 0) {
            throw Error(ErrorCode::InvalidValue,
                        std::string(who) + " without a matching push_active");
        }
    }

    /// Bounds-checks all active lanes; on the first violating lane, replays
    /// the access through the lane facade so the throw carries the exact
    /// message the thread engine would produce.
    template <typename OnFault>
    void check_bounds(std::uint64_t count, const std::uint64_t* idx, OnFault&& fault) {
        if (active_ == ~std::uint32_t{0}) [[likely]] {
            for (unsigned l = 0; l < kWarpSize; ++l) {
                if (idx[l] >= count) fault(l);  // throws
            }
            return;
        }
        for (std::uint32_t m = active_; m != 0; m &= m - 1) {
            const auto l = static_cast<unsigned>(std::countr_zero(m));
            if (idx[l] >= count) fault(l);  // throws
        }
    }

    /// True when a full warp's lane indices form one ascending run — the
    /// coalesced pattern the bulk-copy fast path handles with a single
    /// memcpy. Only meaningful when all 32 lanes are active.
    [[nodiscard]] bool contiguous(const std::uint64_t* idx) const {
        const std::uint64_t base = idx[0];
        bool c = true;
        for (unsigned l = 0; l < kWarpSize; ++l) c &= idx[l] == base + l;
        return c;
    }

    /// Global-memory charge for one access per active lane: the cycles
    /// through charge(), the traffic into the same account charge() picks.
    void charge_global(Op op, std::uint64_t charged, std::uint64_t useful, bool is_read) {
        charge(op);
        const auto add_traffic = [&](ThreadAcct& a) {
            if (is_read) {
                a.bytes_read += charged;
                a.useful_bytes_read += useful;
            } else {
                a.bytes_written += charged;
                a.useful_bytes_written += useful;
            }
        };
        if (active_ == full_mask_) [[likely]] {
            add_traffic(uniform_);
            return;
        }
        for (std::uint32_t m = active_; m != 0; m &= m - 1) {
            add_traffic(accts_[std::countr_zero(m)]);
        }
    }

    /// Bank-conflict bookkeeping for a shared access by every active lane,
    /// lane l touching the byte at at(l); gated on prof like
    /// ThreadCtx::note_shared_access.
    template <typename At>
    void note_shared_lanes(At&& at) {
        if (!prof::collecting()) return;
        if (block_ == nullptr || block_->shared_arena.empty()) return;
        const std::byte* base = block_->shared_arena.data();
        for (std::uint32_t m = active_; m != 0; m &= m - 1) {
            const auto l = static_cast<unsigned>(std::countr_zero(m));
            const std::byte* p = at(l);
            if (p < base || p >= base + block_->shared_arena.size()) continue;
            warp_->shared.note((base_tid_ + l) % kWarpSize,
                               static_cast<std::uint64_t>(p - base));
        }
    }

    /// Inverse of ThreadCtx::linear_tid() (CUDA convention: x fastest).
    [[nodiscard]] uint3 delinearize(unsigned tid) const {
        uint3 t;
        t.x = tid % block_dim_.x;
        t.y = (tid / block_dim_.x) % block_dim_.y;
        t.z = tid / (block_dim_.x * block_dim_.y);
        return t;
    }

    void* lane_raw(unsigned l) { return lane_storage_ + l * sizeof(ThreadCtx); }
    ThreadCtx* lane_ptr(unsigned l) {
        return std::launder(reinterpret_cast<ThreadCtx*>(lane_raw(l)));
    }

    unsigned base_tid_;
    unsigned nlanes_;
    std::uint32_t full_mask_;
    std::uint32_t live_;
    std::uint32_t active_;
    std::uint32_t at_barrier_ = 0;
    uint3 block_idx_;
    dim3 block_dim_;
    dim3 grid_dim_;
    const CostModel* cm_;
    BlockState* block_;
    WarpAcct* warp_;
    const memcheck::ExecContext* exec_;
    std::uint64_t shared_cursor_ = 0;
    unsigned depth_ = 0;
    Frame stack_[kMaxNesting];
    /// Charges every lane of the warp owes: what charge() and the batched
    /// accessors book while the whole warp is active. Only a full mask
    /// lands here, and a mask never becomes full again once a lane has
    /// exited, so adding it to every lane at the fold is exact.
    ThreadAcct uniform_;
    /// Contiguous per-lane accounting (the structure-of-arrays lane state):
    /// divergent charges bit-walk it; lane facades alias into it.
    ThreadAcct accts_[kWarpSize] = {};
    std::uint32_t lane_constructed_ = 0;
    alignas(ThreadCtx) std::byte lane_storage_[sizeof(ThreadCtx) * kWarpSize];
};

}  // namespace cusim
