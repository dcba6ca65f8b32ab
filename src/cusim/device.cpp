#include "cusim/device.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>

#include "cusim/block_pool.hpp"
#include "cusim/engine.hpp"
#include "cusim/multiprocessor.hpp"

namespace cusim {

namespace {

/// Inverse of ThreadCtx::linear_bid() (x fastest, then y, then z).
uint3 unlinearize_block(std::uint64_t i, const dim3& g) {
    uint3 b;
    b.x = static_cast<unsigned>(i % g.x);
    b.y = static_cast<unsigned>((i / g.x) % g.y);
    b.z = static_cast<unsigned>(i / (std::uint64_t{g.x} * g.y));
    return b;
}

}  // namespace

LaunchStats Device::launch(const LaunchConfig& cfg, const KernelEntry& entry,
                           std::string_view name) {
    return launch(cfg, KernelSpec(entry), name);
}

LaunchStats Device::launch(const LaunchConfig& cfg, KernelSpec spec,
                           std::string_view name) {
    launch_async(cfg, std::move(spec), name, kDefaultStream);
    return last_launch_;
}

void Device::copy_to_constant(DeviceAddr addr, const void* src, std::uint64_t bytes) {
    prof::ApiScope prof_scope(prof::Api::MemcpyH2D, trace_ordinal_, 0, bytes,
                              "constant");
    timeline::FailScope tl_fail(trace_ordinal_, 0, timeline::Category::MemcpyH2D,
                                "memcpy H2C", bytes, prof_scope.correlation(),
                                tl_abs(host_time_));
    fault_preflight(faults::Site::MemcpyH2D, "constant");
    join_streams();
    // Like a blocking copy: wait for the device, then pay the PCIe cost.
    const double t0 = host_time_;
    const double wait = std::max(0.0, device_free_at_ - host_time_);
    host_time_ = std::max(host_time_, device_free_at_);
    host_time_ += props_.cost.transfer_latency_s +
                  static_cast<double>(bytes) / props_.cost.pcie_bandwidth_bytes_per_s;
    constant_.write(addr, src, bytes);
    bytes_to_device_ += bytes;
    if (cupp::trace::enabled()) {
        cupp::trace::emit_complete(host_track(), "memcpy H2C", trace_time_us(t0),
                                   (host_time_ - t0) * 1e6,
                                   {{"bytes", bytes},
                                    {"kind", "H2C"},
                                    {"device_wait_us", wait * 1e6}});
        // Registers the same three counters a blocking copy does (D2H at
        // zero), so the trace's counter list does not depend on which kind
        // of transfer ran first.
        static const cupp::trace::counter_handle h2d("cusim.bytes_h2d");
        static const cupp::trace::counter_handle d2h("cusim.bytes_d2h");
        static const cupp::trace::counter_handle n_xfers("cusim.transfers");
        (void)d2h;
        h2d.add(bytes);
        n_xfers.add();
    }
    if (timeline::enabled()) {
        timeline::host_op(trace_ordinal_, timeline::Category::MemcpyH2D, "memcpy H2C",
                          bytes, prof_scope.correlation(), tl_abs(t0 + wait),
                          tl_abs(host_time_),
                          wait > 0.0 ? timeline::device_tail(trace_ordinal_) : 0);
    }
}

LaunchStats Device::run_grid(const LaunchConfig& cfg, const KernelSpec& spec,
                             const std::string& name) {
    LaunchStats stats;
    stats.blocks = cfg.grid.count();
    stats.threads = cfg.total_threads();
    stats.threads_per_block = cfg.block.count();
    stats.warps = std::uint64_t{cfg.warps_per_block()} * cfg.grid.count();

    const std::uint64_t nblocks = cfg.grid.count();
    // This thread's launch scratch: the serial path runs every block on it,
    // and both paths reduce into its cost buffer.
    BlockScratch& scratch = BlockScratch::local();
    std::vector<BlockCost>& costs = scratch.costs;
    costs.clear();
    costs.reserve(static_cast<std::size_t>(nblocks));

    // Threaded into every ThreadCtx so device-side diagnostics (memcheck
    // violations, out-of-range accesses) can name the kernel and check
    // against this device's global-memory shadow.
    const memcheck::ExecContext exec{name.c_str(), &memory_.shadow(), trace_ordinal_};

    // Blocks are independent (§2.2), so the grid is dealt to host workers —
    // DeviceProperties::sim_threads if set, else CUPP_SIM_THREADS /
    // hardware_concurrency. Everything observable is reduced in launch
    // order below, so the thread count never changes a result bit.
    const unsigned want =
        props_.sim_threads != 0 ? props_.sim_threads : BlockPool::configured_threads();
    const unsigned threads =
        static_cast<unsigned>(std::min<std::uint64_t>(want, nblocks));

    auto accumulate = [&](const BlockResult& br) {
        stats.syncthreads_count += br.sync_episodes;
        for (const WarpAcct& w : br.warps) {
            stats.divergent_events += w.divergent_events();
            stats.branch_evaluations += w.total_branch_evaluations();
            stats.bytes_read += w.bytes_read;
            stats.bytes_written += w.bytes_written;
            stats.useful_bytes_read += w.useful_bytes_read;
            stats.useful_bytes_written += w.useful_bytes_written;
            stats.shared_accesses += w.shared.accesses;
            stats.shared_bank_conflicts += w.shared.conflicts;
        }
        costs.push_back(BlockCost::from(br, props_.cost));
        stats.compute_cycles += costs.back().compute_cycles;
        stats.stall_cycles += costs.back().stall_cycles;
    };

    if (threads <= 1) {
        // The classic serial engine: blocks run in launch order on this
        // thread, reporting memcheck violations and trace events inline, and
        // the first failure propagates before any later block runs.
        for (std::uint64_t i = 0; i < nblocks; ++i) {
            accumulate(run_block(scratch, props_.cost, cfg, spec,
                                 unlinearize_block(i, cfg.grid), &exec));
        }
    } else {
        // Parallel path. Each worker runs whole blocks on its own scratch,
        // writing only to its block's index-addressed slot: results,
        // deferred memcheck violations and captured trace events all flush
        // in launch order afterwards, so stats, reports and the trace are
        // bit-identical to the serial path for any thread count.
        struct BlockRun {
            BlockResult result;
            std::vector<memcheck::Violation> violations;
            std::vector<cupp::trace::Event> trace_events;
            std::exception_ptr error;
        };
        std::vector<BlockRun> runs(static_cast<std::size_t>(nblocks));
        // Lowest faulting linear block index — the same block whose failure
        // a serial run would report. Also lets workers skip blocks a serial
        // run would never have started (their outputs are discarded; device
        // memory contents after a failed launch are undefined, as on real
        // hardware).
        std::atomic<std::uint64_t> first_error{nblocks};
        const bool tracing = cupp::trace::enabled();

        BlockPool::instance().run(nblocks, threads, [&](std::uint64_t i) {
            if (first_error.load(std::memory_order_acquire) < i) return;
            try {
                std::optional<cupp::trace::ScopedCapture> capture;
                if (tracing) capture.emplace(&runs[i].trace_events);
                runs[i].result = std::move(run_block(BlockScratch::local(), props_.cost, cfg,
                                                     spec, unlinearize_block(i, cfg.grid),
                                                     &exec, &runs[i].violations));
            } catch (...) {
                runs[i].error = std::current_exception();
                std::uint64_t expected = first_error.load(std::memory_order_relaxed);
                while (i < expected &&
                       !first_error.compare_exchange_weak(expected, i,
                                                          std::memory_order_acq_rel)) {
                }
            }
        });

        const std::uint64_t err = first_error.load(std::memory_order_acquire);
        if (err < nblocks) {
            // Serial semantics: everything blocks 0..err reported before the
            // fault is flushed in order; later blocks' exceptions,
            // violations and trace are drained unreported.
            for (std::uint64_t i = 0; i <= err; ++i) {
                for (memcheck::Violation& v : runs[i].violations) {
                    memcheck::record(std::move(v));
                }
                if (tracing) cupp::trace::replay(std::move(runs[i].trace_events));
            }
            std::rethrow_exception(runs[err].error);
        }
        for (std::uint64_t i = 0; i < nblocks; ++i) {
            accumulate(runs[i].result);
            for (memcheck::Violation& v : runs[i].violations) {
                memcheck::record(std::move(v));
            }
            if (tracing) cupp::trace::replay(std::move(runs[i].trace_events));
        }
    }

    stats.device_seconds =
        model_grid_seconds(props_.cost, cfg, costs, &stats.resident_blocks_per_mp);
    return stats;
}

void Device::poison() {
    lost_ = true;
    faults::note_device_poisoned();
    cupp::trace::metrics().add("cusim.device_lost");
    if (cupp::trace::enabled()) {
        cupp::trace::emit_instant("faults", "device lost",
                                  trace_time_us(std::max(host_time_, device_free_at_)),
                                  {{"device", trace_ordinal_}});
    }
}

void Device::reset_device() {
    lost_ = false;
    // Whatever the device was doing died with it — including work still
    // queued on explicit streams (dropped, never executed; pending event
    // records complete at the reset point so waits can't stall).
    if (streams_) abandon_streams();
    device_free_at_ = host_time_;
    memory_.wipe_for_recovery();
    cupp::trace::metrics().add("cusim.device_resets");
    if (cupp::trace::enabled()) {
        cupp::trace::emit_instant("faults", "device reset",
                                  trace_time_us(host_time_),
                                  {{"device", trace_ordinal_}});
    }
}

void Device::record_launch(std::string name, const LaunchStats& stats, double start,
                           double end) {
    LaunchRecord rec;
    rec.kernel_name = std::move(name);
    rec.stats = stats;
    rec.start_seconds = trace_base_ + start;
    rec.end_seconds = trace_base_ + end;
    if (history_.size() < kLaunchHistoryCapacity) {
        history_.push_back(std::move(rec));
    } else {
        history_[history_head_] = std::move(rec);
        history_head_ = (history_head_ + 1) % kLaunchHistoryCapacity;
    }
}

}  // namespace cusim
