// ThreadCtx — the view a device thread has of the machine.
//
// Provides the CUDA built-in variables (threadIdx, blockIdx, blockDim,
// gridDim, §3.1.3), the __syncthreads() barrier (§3.1.4) as an awaitable,
// shared-memory allocation, and the accounting hooks that feed the
// performance model.
#pragma once

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <memory>
#include <source_location>
#include <string>
#include <vector>

#include "cusim/accounting.hpp"
#include "cusim/constant_memory.hpp"
#include "cusim/cost_model.hpp"
#include "cusim/device_ptr.hpp"
#include "cusim/memcheck.hpp"
#include "cusim/prof.hpp"
#include "cusim/shared_array.hpp"
#include "cusim/types.hpp"

namespace cusim {

/// State shared by all threads of one executing block.
struct BlockState {
    std::vector<std::byte> shared_arena;  ///< the block's shared memory
    std::uint64_t sync_episodes = 0;      ///< completed barrier rounds
    /// Per-byte race-detection shadow of the arena; created lazily on the
    /// first instrumented shared access while memcheck is enabled.
    std::unique_ptr<memcheck::SharedShadow> shared_shadow;
    /// When non-null, memcheck violations are buffered here instead of being
    /// reported through memcheck::record() immediately. The parallel launch
    /// path sets this so each worker collects its block's violations locally
    /// and Device::launch flushes them in launch order — keeping the
    /// memcheck report (dedup insertion order, counters, trace mirror)
    /// bit-identical to a serial run. Strict mode still throws at the
    /// faulting access either way.
    std::vector<memcheck::Violation>* violation_sink = nullptr;

    /// Carves `count` elements of T out of the arena at `cursor` (aligned
    /// up for T) and advances the cursor past them. Throws
    /// InvalidConfiguration when they do not fit; the check cannot wrap,
    /// whatever `count` is.
    template <typename T>
    SharedArray<T> carve(std::uint64_t& cursor, std::uint64_t count) {
        const std::uint64_t size = shared_arena.size();
        const std::uint64_t align = alignof(T);
        const std::uint64_t offset = (cursor + align - 1) / align * align;
        if (offset > size || count > (size - offset) / sizeof(T)) {
            throw Error(ErrorCode::InvalidConfiguration,
                        "shared_array exceeds the block's shared memory (" +
                            std::to_string(size) + " bytes)");
        }
        cursor = offset + count * sizeof(T);
        return SharedArray<T>(shared_arena.data() + offset, count);
    }
};

class ThreadCtx {
public:
    /// `acct` (optional) points the thread's accounting at caller-owned
    /// storage instead of the inline member — the warp-vectorized engine
    /// passes one slot of its contiguous per-lane array so charges made
    /// through a lane's ThreadCtx facade and through the warp-level batch
    /// paths land in the same place.
    ThreadCtx(uint3 thread_idx, uint3 block_idx, dim3 block_dim, dim3 grid_dim,
              const CostModel* cm, BlockState* block, WarpAcct* warp,
              const memcheck::ExecContext* exec = nullptr, ThreadAcct* acct = nullptr)
        : thread_idx_(thread_idx),
          block_idx_(block_idx),
          block_dim_(block_dim),
          grid_dim_(grid_dim),
          lane_(linear_tid() % kWarpSize),
          cm_(cm),
          block_(block),
          warp_(warp),
          exec_(exec),
          acct_(acct != nullptr ? acct : &own_acct_) {}

    ThreadCtx(const ThreadCtx&) = delete;
    ThreadCtx& operator=(const ThreadCtx&) = delete;

    // --- built-in variables ---
    [[nodiscard]] const uint3& thread_idx() const { return thread_idx_; }
    [[nodiscard]] const uint3& block_idx() const { return block_idx_; }
    [[nodiscard]] const dim3& block_dim() const { return block_dim_; }
    [[nodiscard]] const dim3& grid_dim() const { return grid_dim_; }

    /// Linearised thread index within the block (CUDA convention: x fastest).
    [[nodiscard]] unsigned linear_tid() const {
        return thread_idx_.x + block_dim_.x * (thread_idx_.y + block_dim_.y * thread_idx_.z);
    }
    /// Linearised block index within the grid (x fastest, then y, then z —
    /// the same order Device::launch deals blocks in).
    [[nodiscard]] unsigned linear_bid() const {
        return block_idx_.x + grid_dim_.x * (block_idx_.y + grid_dim_.y * block_idx_.z);
    }
    /// Linearised grid-global thread id — the usual blockIdx*blockDim+threadIdx.
    [[nodiscard]] std::uint64_t global_id() const {
        return std::uint64_t{linear_bid()} * block_dim_.count() + linear_tid();
    }

    // --- __syncthreads() ---
    struct SyncAwaitable {
        ThreadCtx* ctx;
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<>) const noexcept {
            ctx->at_barrier_ = true;
        }
        void await_resume() const noexcept {}
    };

    /// `co_await ctx.syncthreads();` — blocks until every thread of the
    /// block reaches the barrier. Costs 4 cycles + waiting time (Table 2.2);
    /// the waiting time is implicit in the max-fold over the warp.
    [[nodiscard]] SyncAwaitable syncthreads() {
        acct_->charge(*cm_, Op::SyncThreads);
        return SyncAwaitable{this};
    }

    // --- accounting hooks ---
    /// Charges `n` instructions of class `op` per Table 2.2.
    void charge(Op op, unsigned n = 1) { acct_->charge(*cm_, op, n); }

    /// The key a warp groups branches at `loc` under (SourceSite::key).
    static std::uint64_t site_key(const std::source_location& loc) {
        return SourceSite::of(loc).key();
    }

    /// Control-flow instruction with divergence tracking. Returns `pred`, so
    /// kernels write `if (ctx.branch(d2 < r2)) { ... }`. The warp records
    /// evaluations per static site; see accounting.hpp for the divergence
    /// estimator. Forced inline: it runs once per simulated branch, and the
    /// call with its register saves cost about 7% of a perfbench boids_v5
    /// step (4-core x86-64 host) when the compiler keeps it out of line.
    [[gnu::always_inline]]
    bool branch(bool pred, std::source_location loc = std::source_location::current()) {
        acct_->charge(*cm_, Op::Branch);
        warp_->note_branch(SourceSite::of(loc), lane_, pred);
        return pred;
    }

    /// Models a thread-local variable that the compiler spilled to device
    /// memory (§2.2, Table 2.1: local memory is registers *or* device
    /// memory). Version 3 of the Boids port pays these (§6.2.2).
    void local_spill_read(unsigned n = 1) { acct_->charge(*cm_, Op::LocalSpill, n); }
    void local_spill_write(unsigned n = 1) { acct_->charge(*cm_, Op::GlobalWrite, n); }

    /// Bank-conflict tracking hook, called behind prof::collecting() with a
    /// pointer into the block's shared arena (see SharedAcct). Accesses
    /// through pointers outside the arena (unit tests driving SharedArray
    /// over stack buffers) are ignored. Out of line: only the profiler
    /// reaches it.
    [[gnu::noinline]] void note_shared_access(const std::byte* p) {
        if (block_ == nullptr || block_->shared_arena.empty()) return;
        const std::byte* base = block_->shared_arena.data();
        if (p < base || p >= base + block_->shared_arena.size()) return;
        warp_->shared.note(lane_, static_cast<std::uint64_t>(p - base));
    }

    /// Accounts one texture fetch: served from the texture cache except for
    /// every `texture_miss_period`-th access, which goes to device memory.
    /// Returns whether this fetch missed (the caller charges the traffic).
    bool account_texture_fetch() {
        if (texture_fetches_++ % cm_->texture_miss_period == 0) {
            acct_->charge(*cm_, Op::GlobalRead);
            return true;
        }
        acct_->charge(*cm_, Op::TextureHit);
        return false;
    }

    // --- shared memory ---
    /// Carves a typed array out of the block's shared arena. Every thread of
    /// the block must perform the same sequence of shared_array calls (just
    /// as every CUDA thread sees the same __shared__ declarations).
    template <typename T>
    SharedArray<T> shared_array(std::uint64_t count) {
        return block_->carve<T>(shared_cursor_, count);
    }

    // --- diagnostics ---
    /// The kernel this thread belongs to ("?" when the engine was driven
    /// without an execution context, e.g. unit tests).
    [[nodiscard]] const char* kernel_name() const {
        return exec_ != nullptr ? exec_->kernel_name : "?";
    }

    /// "thread (x,y,z) block (x,y,z) of kernel 'name'" — appended to every
    /// device-side error so a diagnostic names the faulting thread.
    [[nodiscard]] std::string where() const {
        return "thread (" + std::to_string(thread_idx_.x) + "," +
               std::to_string(thread_idx_.y) + "," + std::to_string(thread_idx_.z) +
               ") block (" + std::to_string(block_idx_.x) + "," +
               std::to_string(block_idx_.y) + "," + std::to_string(block_idx_.z) +
               ") of kernel '" + kernel_name() + "'";
    }

    // --- memcheck hooks (called behind memcheck::enabled()) ---
    /// Routes a violation to the block's deferred sink when one is set (the
    /// parallel launch path), else straight to the registry.
    void report_violation(memcheck::Violation v) {
        if (block_ != nullptr && block_->violation_sink != nullptr) {
            block_->violation_sink->push_back(std::move(v));
        } else {
            memcheck::record(std::move(v));
        }
    }

    /// Checks one device-side global-memory access against the shadow map;
    /// records a violation (and throws in strict mode) on OOB,
    /// use-after-free or uninitialized read.
    void memcheck_global_access(DeviceAddr addr, std::uint64_t bytes,
                                std::uint64_t alloc_id, memcheck::Access access) {
        if (exec_ == nullptr || exec_->shadow == nullptr) return;
        const auto issue = exec_->shadow->check_access(addr, bytes, alloc_id, access);
        if (!issue) return;
        memcheck::Violation v;
        v.kind = issue->kind;
        v.kernel = exec_->kernel_name;
        v.origin = issue->origin;
        v.addr = addr;
        v.bytes = bytes;
        v.device = exec_->device;
        v.has_coords = true;
        v.thread = thread_idx_;
        v.block = block_idx_;
        v.message = std::string("invalid global ") +
                    (access == memcheck::Access::Read ? "read" : "write") + " of " +
                    std::to_string(bytes) + " byte(s) at device address " +
                    std::to_string(addr) + " by " + where() + ": " + issue->detail;
        const std::string msg = v.message;
        report_violation(std::move(v));
        if (memcheck::strict()) {
            throw Error(ErrorCode::MemcheckViolation, msg);
        }
    }

    /// Race-checks one shared-memory access: conflicting same-epoch
    /// accesses to a byte from two different threads (at least one write)
    /// are flagged with both threads' coordinates.
    void memcheck_shared_access(const std::byte* p, std::uint64_t bytes, bool is_write) {
        if (exec_ == nullptr || block_ == nullptr || block_->shared_arena.empty()) return;
        const std::byte* base = block_->shared_arena.data();
        if (p < base || p >= base + block_->shared_arena.size()) return;
        if (!block_->shared_shadow) {
            block_->shared_shadow =
                std::make_unique<memcheck::SharedShadow>(block_->shared_arena.size());
        }
        const auto offset = static_cast<std::uint64_t>(p - base);
        const auto conflict = block_->shared_shadow->note_access(
            offset, bytes, linear_tid(), block_->sync_episodes, is_write);
        if (!conflict) return;
        const uint3 other = delinearize(conflict->other_tid);
        memcheck::Violation v;
        v.kind = memcheck::Kind::SharedRace;
        v.kernel = exec_->kernel_name;
        v.addr = offset;
        v.bytes = bytes;
        v.device = exec_->device;
        v.has_coords = true;
        v.thread = thread_idx_;
        v.block = block_idx_;
        v.message = std::string("shared-memory race on byte ") +
                    std::to_string(conflict->offset) + " of the shared arena: " +
                    (is_write ? "write" : "read") + " by " + where() +
                    " conflicts with a " + (conflict->other_was_write ? "write" : "read") +
                    " by thread (" + std::to_string(other.x) + "," +
                    std::to_string(other.y) + "," + std::to_string(other.z) +
                    ") in the same barrier interval (no __syncthreads() between them)";
        const std::string msg = v.message;
        report_violation(std::move(v));
        if (memcheck::strict()) {
            throw Error(ErrorCode::MemcheckViolation, msg);
        }
    }

    // --- internals used by the engine and the memory views ---
    // The block loop drives a thread as a one-lane warp, through the same
    // three hooks WarpCtx has: its lane is live until the body returns.
    [[nodiscard]] std::uint32_t live() const { return 1; }
    [[nodiscard]] std::uint32_t at_barrier_mask() const { return at_barrier_ ? 1 : 0; }
    void clear_barrier() { at_barrier_ = false; }
    /// Folds the finished thread into its warp: cycles at the pace of the
    /// slowest lane (SIMD max), traffic summed over lanes.
    void fold_into_warp_acct() {
        WarpAcct& w = *warp_;
        const ThreadAcct& a = *acct_;
        if (a.compute_cycles > w.compute_cycles) w.compute_cycles = a.compute_cycles;
        if (a.stall_cycles > w.stall_cycles) w.stall_cycles = a.stall_cycles;
        w.bytes_read += a.bytes_read;
        w.bytes_written += a.bytes_written;
        w.useful_bytes_read += a.useful_bytes_read;
        w.useful_bytes_written += a.useful_bytes_written;
    }
    [[nodiscard]] ThreadAcct& acct() { return *acct_; }
    [[nodiscard]] WarpAcct& warp() { return *warp_; }
    [[nodiscard]] const CostModel& cost_model() const { return *cm_; }
    [[nodiscard]] BlockState& block_state() { return *block_; }

private:
    /// Throws the error of an out-of-range accounted element access:
    /// "<what> at index <i> of <count> by <where()>". Cold and out of line,
    /// so the accessors' common path carries none of the message building.
    [[noreturn, gnu::cold, gnu::noinline]] void throw_out_of_range(
        ErrorCode code, const char* what, std::uint64_t i, std::uint64_t count) const {
        throw Error(code, std::string(what) + " at index " + std::to_string(i) + " of " +
                              std::to_string(count) + " by " + where());
    }

    /// Inverse of linear_tid() (CUDA convention: x fastest).
    [[nodiscard]] uint3 delinearize(unsigned tid) const {
        uint3 t;
        t.x = tid % block_dim_.x;
        t.y = (tid / block_dim_.x) % block_dim_.y;
        t.z = tid / (block_dim_.x * block_dim_.y);
        return t;
    }

    template <typename T>
    friend class DevicePtr;
    template <typename T>
    friend class SharedArray;
    template <typename T>
    friend class ConstantPtr;

    uint3 thread_idx_;
    uint3 block_idx_;
    dim3 block_dim_;
    dim3 grid_dim_;
    unsigned lane_;  ///< linear_tid() % kWarpSize: this thread's slot in its warp
    const CostModel* cm_;
    BlockState* block_;
    WarpAcct* warp_;
    const memcheck::ExecContext* exec_;
    ThreadAcct own_acct_;
    /// Where charges land: &own_acct_, or caller-owned lane storage (see the
    /// constructor). Never null.
    ThreadAcct* acct_;
    std::uint64_t shared_cursor_ = 0;
    std::uint64_t texture_fetches_ = 0;
    bool at_barrier_ = false;
};

// --- accounted accesses (need the full ThreadCtx) ---

template <typename T>
T DevicePtr<T>::read(ThreadCtx& ctx, std::uint64_t i) const {
    if (i >= count_) {
        ctx.throw_out_of_range(ErrorCode::InvalidDevicePointer, "device read", i, count_);
    }
    if (memcheck::enabled()) {
        ctx.memcheck_global_access(addr_ + i * sizeof(T), sizeof(T), alloc_id_,
                                   memcheck::Access::Read);
    }
    ctx.acct().charge(ctx.cost_model(), Op::GlobalRead);
    ctx.acct().bytes_read += ctx.cost_model().charged_bytes(sizeof(T));
    ctx.acct().useful_bytes_read += sizeof(T);
    T v;
    std::memcpy(&v, base_ + i * sizeof(T), sizeof(T));
    return v;
}

template <typename T>
void DevicePtr<T>::write(ThreadCtx& ctx, std::uint64_t i, const T& v) const {
    if (i >= count_) {
        ctx.throw_out_of_range(ErrorCode::InvalidDevicePointer, "device write", i, count_);
    }
    if (memcheck::enabled()) {
        ctx.memcheck_global_access(addr_ + i * sizeof(T), sizeof(T), alloc_id_,
                                   memcheck::Access::Write);
    }
    ctx.acct().charge(ctx.cost_model(), Op::GlobalWrite);
    ctx.acct().bytes_written += ctx.cost_model().charged_bytes(sizeof(T));
    ctx.acct().useful_bytes_written += sizeof(T);
    std::memcpy(base_ + i * sizeof(T), &v, sizeof(T));
}

template <typename T>
T DevicePtr<T>::tex_read(ThreadCtx& ctx, std::uint64_t i) const {
    if (i >= count_) {
        ctx.throw_out_of_range(ErrorCode::InvalidDevicePointer, "texture fetch", i, count_);
    }
    if (memcheck::enabled()) {
        ctx.memcheck_global_access(addr_ + i * sizeof(T), sizeof(T), alloc_id_,
                                   memcheck::Access::Read);
    }
    if (ctx.account_texture_fetch()) {
        // Only the miss moves bus bytes, so only it contributes to the
        // useful/charged coalescing ratio.
        ctx.acct().bytes_read += ctx.cost_model().charged_bytes(sizeof(T));
        ctx.acct().useful_bytes_read += sizeof(T);
    }
    T v;
    std::memcpy(&v, base_ + i * sizeof(T), sizeof(T));
    return v;
}

template <typename T>
T ConstantPtr<T>::read(ThreadCtx& ctx, std::uint64_t i) const {
    if (i >= count_) {
        ctx.throw_out_of_range(ErrorCode::InvalidDevicePointer, "constant read", i, count_);
    }
    ctx.charge(Op::ConstantRead);
    T v;
    std::memcpy(&v, base_ + i * sizeof(T), sizeof(T));
    return v;
}

template <typename T>
T SharedArray<T>::read(ThreadCtx& ctx, std::uint64_t i) const {
    if (i >= count_) {
        ctx.throw_out_of_range(ErrorCode::InvalidValue, "shared read", i, count_);
    }
    if (memcheck::enabled()) {
        ctx.memcheck_shared_access(base_ + i * sizeof(T), sizeof(T), /*is_write=*/false);
    }
    ctx.acct().charge(ctx.cost_model(), Op::SharedAccess);
    if (prof::collecting()) ctx.note_shared_access(base_ + i * sizeof(T));
    T v;
    std::memcpy(&v, base_ + i * sizeof(T), sizeof(T));
    return v;
}

template <typename T>
void SharedArray<T>::write(ThreadCtx& ctx, std::uint64_t i, const T& v) const {
    if (i >= count_) {
        ctx.throw_out_of_range(ErrorCode::InvalidValue, "shared write", i, count_);
    }
    if (memcheck::enabled()) {
        ctx.memcheck_shared_access(base_ + i * sizeof(T), sizeof(T), /*is_write=*/true);
    }
    ctx.acct().charge(ctx.cost_model(), Op::SharedAccess);
    if (prof::collecting()) ctx.note_shared_access(base_ + i * sizeof(T));
    std::memcpy(base_ + i * sizeof(T), &v, sizeof(T));
}

}  // namespace cusim
