#include "gpusteer/plugin.hpp"

#include "steer/behaviors.hpp"
#include "steer/neighbor_search.hpp"

namespace gpusteer {

using steer::Agent;
using steer::NeighborList;
using steer::StageTimes;
using steer::Vec3;

namespace {

/// Host-side cycle cost of extracting one agent's state into the staging
/// vectors (the copy loop of listing 6.1).
constexpr double kExtractCyclesPerAgent = 22.0;

cusim::dim3 grid_for(std::uint32_t threads) {
    return cusim::dim3{(threads + kThreadsPerBlock - 1) / kThreadsPerBlock};
}

/// RAII span over a per-step phase (neighbor search, steering, grid
/// rebuild, draw ...) on the plugin device's host lane of the trace.
class ScopedPhase {
public:
    ScopedPhase(cusim::Device& sim, const char* name)
        : sim_(sim), name_(name), on_(cupp::trace::enabled()),
          t0_(on_ ? sim.host_time() : 0.0) {}
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;
    ~ScopedPhase() {
        if (on_) {
            cupp::trace::emit_complete(sim_.host_track(), name_,
                                       sim_.trace_time_us(t0_),
                                       (sim_.host_time() - t0_) * 1e6);
        }
    }

private:
    cusim::Device& sim_;
    const char* name_;
    bool on_;
    double t0_;
};

}  // namespace

GpuBoidsPlugin::GpuBoidsPlugin(Version version, bool double_buffering, bool with_draw_stage)
    : version_(version),
      double_buffer_(double_buffering),
      with_draw_(with_draw_stage),
      name_("boids-gpu-v" + std::to_string(static_cast<int>(version)) +
            (double_buffering ? "-db" : "")),
      ns_kernel_(version == Version::V1_NeighborSearchGlobal ? &ns_global_kernel
                                                             : &ns_shared_kernel),
      sim_kernel_(&sim_kernel, &sim_kernel_warp),
      mod_kernel_(&modify_kernel),
      grid_sim_kernel_(&sim_grid_kernel) {
    ns_kernel_.set_block_dim(cusim::dim3{kThreadsPerBlock});
    sim_kernel_.set_block_dim(cusim::dim3{kThreadsPerBlock});
    mod_kernel_.set_block_dim(cusim::dim3{kThreadsPerBlock});
    grid_sim_kernel_.set_block_dim(cusim::dim3{kThreadsPerBlock});
    if (version != Version::V1_NeighborSearchGlobal) {
        ns_kernel_.set_shared_bytes(kThreadsPerBlock * sizeof(Vec3));
    }
    sim_kernel_.set_shared_bytes(kThreadsPerBlock * sizeof(Vec3));
    ns_kernel_.set_name(version == Version::V1_NeighborSearchGlobal ? "ns_global"
                                                                    : "ns_shared");
    sim_kernel_.set_name("sim_substage");
    mod_kernel_.set_name("modify");
    grid_sim_kernel_.set_name("sim_grid");
}

void GpuBoidsPlugin::open(const steer::WorldSpec& spec) {
    const bool needs_tile_multiple = version_ != Version::V1_NeighborSearchGlobal &&
                                     version_ != Version::V6_GridNeighborSearch;
    if (spec.agents % kThreadsPerBlock != 0 && needs_tile_multiple) {
        // §6.2.1: "the number of agents has to be a multiply of
        // threads_per_block" for the shared-memory kernels.
        throw cupp::usage_error("agent count must be a multiple of " +
                                std::to_string(kThreadsPerBlock));
    }
    spec_ = spec;
    flock_ = steer::make_flock(spec);
    steering_host_.assign(spec.agents, steer::kZero);
    drawn_.clear();

    const auto n = spec.agents;
    positions_ = cupp::vector<Vec3>(n);
    forwards_ = cupp::vector<Vec3>(n);
    speeds_ = cupp::vector<float>(n);
    steerings_ = cupp::vector<Vec3>(n, steer::kZero);
    result_ = cupp::vector<std::uint32_t>(std::uint64_t{n} * NeighborList::kCapacity);
    result_count_ = cupp::vector<std::uint32_t>(n);
    matrices_[0] = cupp::vector<steer::Mat4>(n);
    matrices_[1] = cupp::vector<steer::Mat4>(n);
    current_buffer_ = 0;

    // Initial upload of the full agent state.
    extract_positions();
    extract_forwards();
    {
        auto& s = speeds_.mutate();
        for (std::uint32_t i = 0; i < n; ++i) s[i] = flock_[i].speed;
    }
    // Prime every vector's device storage *and* its cached global-memory
    // handle now, while the device is idle: a first-use upload (even the
    // 32-byte handle copy of get_device_reference) would otherwise
    // synchronise with a running kernel mid-frame, costing the overlap the
    // asynchronous launches are supposed to buy.
    (void)positions_.get_device_reference(dev_);
    (void)forwards_.get_device_reference(dev_);
    (void)speeds_.get_device_reference(dev_);
    (void)steerings_.get_device_reference(dev_);
    (void)result_.get_device_reference(dev_);
    (void)result_count_.get_device_reference(dev_);
    (void)matrices_[0].get_device_reference(dev_);
    (void)matrices_[1].get_device_reference(dev_);

    totals_ = {};
    step_index_ = 0;
    divergent_events_ = 0;
    branch_evaluations_ = 0;
    launches_ = 0;
    // Device-lost recovery baseline: the initial state is the first
    // checkpoint (steering carry-over starts at zero, like steerings_).
    checkpoint_flock_ = flock_;
    checkpoint_steering_ = steering_host_;
    checkpoint_step_ = 0;
    cpu_fallback_steps_ = 0;
    device_resets_ = 0;
    dev_.sim().reset_clock();
}

void GpuBoidsPlugin::close() {
    flock_.clear();
    steering_host_.clear();
    drawn_.clear();
}

ThinkMap GpuBoidsPlugin::think_map() const {
    ThinkMap map;
    map.period = spec_.think_period <= 1 ? 1 : spec_.think_period;
    map.phase = static_cast<std::uint32_t>(step_index_ % map.period);
    return map;
}

void GpuBoidsPlugin::accumulate_stats(const cusim::LaunchStats& s) {
    divergent_events_ += s.divergent_events;
    branch_evaluations_ += s.branch_evaluations;
    ++launches_;
}

void GpuBoidsPlugin::extract_positions() {
    ScopedPhase span(dev_.sim(), "extract_positions");
    auto& p = positions_.mutate();
    for (std::uint32_t i = 0; i < spec_.agents; ++i) p[i] = flock_[i].position;
    dev_.sim().advance_host(cpu_.seconds(kExtractCyclesPerAgent * spec_.agents));
}

void GpuBoidsPlugin::extract_forwards() {
    ScopedPhase span(dev_.sim(), "extract_forwards");
    auto& f = forwards_.mutate();
    for (std::uint32_t i = 0; i < spec_.agents; ++i) f[i] = flock_[i].forward;
    dev_.sim().advance_host(cpu_.seconds(kExtractCyclesPerAgent * spec_.agents));
}

void GpuBoidsPlugin::host_steering(const std::vector<std::uint32_t>& thinking) {
    ScopedPhase span(dev_.sim(), "host_steering");
    // Versions 1/2: the device found the neighbors, the host computes the
    // steering vectors from them ("continue with the old CPU simulation",
    // listing 6.1).
    const steer::FlockingWeights weights{spec_.weight_separation, spec_.weight_alignment,
                                         spec_.weight_cohesion};
    std::vector<Vec3> positions(spec_.agents);
    std::vector<Vec3> forwards(spec_.agents);
    for (std::uint32_t i = 0; i < spec_.agents; ++i) {
        positions[i] = flock_[i].position;
        forwards[i] = flock_[i].forward;
    }
    std::uint64_t neighbors_total = 0;
    const auto& counts = result_count_;  // const access: lazy download once
    const auto& indices = result_;
    for (const std::uint32_t me : thinking) {
        NeighborList list;
        list.count = counts[me];
        for (std::uint32_t k = 0; k < list.count; ++k) {
            list.index[k] = indices[std::uint64_t{me} * NeighborList::kCapacity + k];
        }
        steering_host_[me] = steer::flocking(positions[me], forwards[me], list, positions,
                                             forwards, weights);
        neighbors_total += list.count;
    }
    totals_.neighbors_found += neighbors_total;
    dev_.sim().advance_host(
        cpu_.seconds(static_cast<double>(thinking.size()) * cpu_.cycles_per_think +
                     static_cast<double>(neighbors_total) * cpu_.cycles_per_neighbor));
}

void GpuBoidsPlugin::host_modification() {
    ScopedPhase span(dev_.sim(), "host_modification");
    for (std::uint32_t i = 0; i < spec_.agents; ++i) {
        steer::apply_steering(flock_[i], steering_host_[i], spec_.dt, spec_.params);
        steer::wrap_world(flock_[i], spec_.world_radius);
    }
    totals_.modifies += spec_.agents;
    dev_.sim().advance_host(
        cpu_.seconds(static_cast<double>(spec_.agents) * cpu_.cycles_per_modify));
}

double GpuBoidsPlugin::draw_stage(bool from_device_matrices) {
    ScopedPhase span(dev_.sim(), "draw");
    const double t0 = dev_.sim().host_time();
    if (!from_device_matrices) {
        steer::build_draw_matrices(flock_, drawn_);
    }
    if (with_draw_) {
        dev_.sim().advance_host(steer::draw_stage_seconds(spec_.agents, cpu_));
    }
    return dev_.sim().host_time() - t0;
}

StageTimes GpuBoidsPlugin::step_host_versions() {
    auto& sim = dev_.sim();
    StageTimes times;
    const ThinkMap map = think_map();
    const std::uint32_t thinking_count = map.thinking_count(spec_.agents);

    const double t0 = sim.host_time();

    // --- simulation substage ---
    extract_positions();
    const bool steering_on_device = VersionTraits::of(version_).steering_on_device;
    if (steering_on_device) {
        extract_forwards();
        const FlockParams fp{spec_.search_radius, spec_.weight_separation,
                             spec_.weight_alignment, spec_.weight_cohesion,
                             spec_.max_neighbors};
        const NeighborData mode = version_ == Version::V3_SimSubstageCached
                                      ? NeighborData::CacheLocal
                                      : NeighborData::Recompute;
        sim_kernel_.set_grid_dim(grid_for(thinking_count));
        sim_kernel_(dev_, positions_, forwards_, steerings_, fp, map, mode);
        accumulate_stats(sim_kernel_.last_stats());
        // Download the updated steering vectors; the lazy vector fetches
        // them once, synchronising with the kernel.
        const auto steerings = steerings_.snapshot();
        for (std::uint32_t i = 0; i < spec_.agents; ++i) steering_host_[i] = steerings[i];
    } else {
        {
            ScopedPhase span(sim, "neighbor_search");
            ns_kernel_.set_grid_dim(grid_for(thinking_count));
            ns_kernel_(dev_, positions_, spec_.search_radius, result_, result_count_, map);
            accumulate_stats(ns_kernel_.last_stats());
        }
        std::vector<std::uint32_t> thinking;
        thinking.reserve(thinking_count);
        for (std::uint32_t i = 0; i < spec_.agents; ++i) {
            if (steer::thinks_this_step(i, step_index_, spec_.think_period)) {
                thinking.push_back(i);
            }
        }
        host_steering(thinking);
    }
    totals_.thinks += thinking_count;
    totals_.pairs_examined += std::uint64_t{thinking_count} * spec_.agents;
    times.simulation = sim.host_time() - t0;

    // --- modification substage (host) ---
    const double t1 = sim.host_time();
    host_modification();
    times.modification = sim.host_time() - t1;

    // --- graphics stage ---
    times.draw = draw_stage(/*from_device_matrices=*/false);

    ++step_index_;
    return times;
}

void GpuBoidsPlugin::launch_simulation_kernel(const ThinkMap& map, const FlockParams& fp,
                                              std::uint32_t thinking_count) {
    if (version_ == Version::V6_GridNeighborSearch) {
        // Future-work §7 pipeline: download the current positions (the
        // device owns them in version 6), build the grid on the host, and
        // let the lazy vectors carry the CSR arrays across.
        auto& sim = dev_.sim();
        {
            ScopedPhase span(sim, "grid_rebuild");
            const auto host_positions = positions_.snapshot();
            grid_upload_.build(host_positions, spec_.search_radius, spec_.world_radius);
            sim.advance_host(
                cpu_.seconds(cpu_.cycles_per_grid_agent * spec_.agents +
                             cpu_.cycles_per_grid_cell * grid_upload_.spec().cells()));
        }
        grid_sim_kernel_.set_grid_dim(grid_for(thinking_count));
        grid_sim_kernel_(dev_, positions_, forwards_, grid_upload_.cell_start(),
                         grid_upload_.entries(), grid_upload_.spec(), steerings_, fp, map);
        accumulate_stats(grid_sim_kernel_.last_stats());
    } else {
        sim_kernel_.set_grid_dim(grid_for(thinking_count));
        sim_kernel_(dev_, positions_, forwards_, steerings_, fp, map,
                    NeighborData::Recompute);
        accumulate_stats(sim_kernel_.last_stats());
    }
}

StageTimes GpuBoidsPlugin::step_device_version() {
    auto& sim = dev_.sim();
    StageTimes times;
    const ThinkMap map = think_map();
    const std::uint32_t thinking_count = map.thinking_count(spec_.agents);
    const FlockParams fp{spec_.search_radius, spec_.weight_separation,
                         spec_.weight_alignment, spec_.weight_cohesion, spec_.max_neighbors};
    const ModifyParams mp{spec_.dt, spec_.world_radius, spec_.params};

    const double t0 = sim.host_time();

    if (double_buffer_) {
        // §6.3.2: read the *previous* step's draw data first (the device is
        // usually idle by now), then launch step n+1 and draw step n on the
        // host while the device computes.
        const int prev = 1 - current_buffer_;
        const double d0 = sim.host_time();
        {
            ScopedPhase span(sim, "matrices_download");
            drawn_ = matrices_[prev].snapshot();
        }
        const double download = sim.host_time() - d0;

        launch_simulation_kernel(map, fp, thinking_count);
        mod_kernel_.set_grid_dim(grid_for(spec_.agents));
        mod_kernel_(dev_, positions_, forwards_, speeds_, steerings_, matrices_[current_buffer_],
                    mp);
        accumulate_stats(mod_kernel_.last_stats());

        times.transfer = download;
        times.draw = draw_stage(/*from_device_matrices=*/true);
        // The update "time" of this frame is whatever of the device work
        // could not hide under the draw stage; it surfaces as the wait at
        // the *next* host access. For reporting we bill the launch window.
        times.simulation = sim.host_time() - t0 - times.draw - times.transfer;
        current_buffer_ = prev;
    } else {
        launch_simulation_kernel(map, fp, thinking_count);
        mod_kernel_.set_grid_dim(grid_for(spec_.agents));
        mod_kernel_(dev_, positions_, forwards_, speeds_, steerings_, matrices_[current_buffer_],
                    mp);
        accumulate_stats(mod_kernel_.last_stats());

        // Draw this step's matrices: the download blocks until the kernels
        // are done, so update and draw serialise.
        drawn_ = matrices_[current_buffer_].snapshot();
        times.simulation = sim.host_time() - t0;  // launches + device wait + download
        times.draw = draw_stage(/*from_device_matrices=*/true);
    }

    totals_.thinks += thinking_count;
    totals_.pairs_examined += std::uint64_t{thinking_count} * spec_.agents;
    totals_.modifies += spec_.agents;

    ++step_index_;
    return times;
}

StageTimes GpuBoidsPlugin::step() {
    try {
        return VersionTraits::of(version_).modification_on_device ? step_device_version()
                                                                  : step_host_versions();
    } catch (const cupp::device_lost_error&) {
        // Transient failures were already absorbed by cupp's retry layer;
        // a sticky DeviceLost escaping the step means the device is gone.
        // Degrade gracefully: recover the state on the CPU, finish the
        // step there, reset the device and resume on the GPU.
        return recover_and_step_on_cpu();
    }
}

void GpuBoidsPlugin::cpu_update_step(std::uint64_t step, bool count_stats) {
    const std::uint32_t n = spec_.agents;
    // Exactly the CpuBoidsPlugin update (§5.3): snapshot, steering for the
    // thinking agents, modification for all. The GPU kernels compute the
    // identical flock (that equivalence is what the tier-1 version tests
    // pin down), so CPU-replayed steps are bit-identical to lost GPU ones.
    std::vector<Vec3> positions(n);
    std::vector<Vec3> forwards(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        positions[i] = flock_[i].position;
        forwards[i] = flock_[i].forward;
    }
    const steer::FlockingWeights weights{spec_.weight_separation, spec_.weight_alignment,
                                         spec_.weight_cohesion};
    const bool use_grid = version_ == Version::V6_GridNeighborSearch;
    steer::SpatialGrid grid;
    if (use_grid) grid.build(positions, spec_.search_radius, spec_.world_radius);
    steer::SearchCounters sc;
    std::uint64_t thinks = 0;
    std::uint64_t neighbors_total = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (!steer::thinks_this_step(i, step, spec_.think_period)) continue;
        const NeighborList neighbors =
            use_grid ? grid.find_neighbors(i, positions, spec_.search_radius,
                                           spec_.max_neighbors, &sc)
                     : steer::find_neighbors(i, positions, spec_.search_radius,
                                             spec_.max_neighbors, &sc);
        steering_host_[i] = steer::flocking(positions[i], forwards[i], neighbors,
                                            positions, forwards, weights);
        ++thinks;
        neighbors_total += neighbors.count;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        steer::apply_steering(flock_[i], steering_host_[i], spec_.dt, spec_.params);
        steer::wrap_world(flock_[i], spec_.world_radius);
    }
    if (count_stats) {
        // Mirror exactly what the interrupted GPU step would have added,
        // so a recovered run's totals equal a fault-free run's.
        totals_.thinks += thinks;
        totals_.pairs_examined += thinks * n;
        totals_.modifies += n;
        if (!VersionTraits::of(version_).steering_on_device) {
            totals_.neighbors_found += neighbors_total;
        }
    }
    dev_.sim().advance_host(
        cpu_.seconds(static_cast<double>(sc.pairs_examined) * cpu_.cycles_per_pair +
                     static_cast<double>(neighbors_total) * cpu_.cycles_per_neighbor +
                     static_cast<double>(thinks) * cpu_.cycles_per_think +
                     static_cast<double>(n) * cpu_.cycles_per_modify));
}

void GpuBoidsPlugin::abandon_device_vectors() {
    positions_.abandon_device_data();
    forwards_.abandon_device_data();
    speeds_.abandon_device_data();
    steerings_.abandon_device_data();
    result_.abandon_device_data();
    result_count_.abandon_device_data();
    matrices_[0].abandon_device_data();
    matrices_[1].abandon_device_data();
    grid_upload_.abandon_device_data();
}

void GpuBoidsPlugin::reupload_state() {
    ScopedPhase span(dev_.sim(), "reupload_state");
    const std::uint32_t n = spec_.agents;
    {
        auto& p = positions_.mutate();
        for (std::uint32_t i = 0; i < n; ++i) p[i] = flock_[i].position;
    }
    {
        auto& f = forwards_.mutate();
        for (std::uint32_t i = 0; i < n; ++i) f[i] = flock_[i].forward;
    }
    {
        auto& s = speeds_.mutate();
        for (std::uint32_t i = 0; i < n; ++i) s[i] = flock_[i].speed;
    }
    {
        auto& st = steerings_.mutate();
        for (std::uint32_t i = 0; i < n; ++i) st[i] = steering_host_[i];
    }
    dev_.sim().advance_host(cpu_.seconds(3.0 * kExtractCyclesPerAgent * n));
    // Re-prime buffers and cached global-memory handles like open() does,
    // so the resumed GPU steps pay no mid-frame first-use upload.
    (void)positions_.get_device_reference(dev_);
    (void)forwards_.get_device_reference(dev_);
    (void)speeds_.get_device_reference(dev_);
    (void)steerings_.get_device_reference(dev_);
    (void)result_.get_device_reference(dev_);
    (void)result_count_.get_device_reference(dev_);
    (void)matrices_[0].get_device_reference(dev_);
    (void)matrices_[1].get_device_reference(dev_);
}

StageTimes GpuBoidsPlugin::recover_and_step_on_cpu() {
    auto& sim = dev_.sim();
    ScopedPhase span(sim, "device_lost_recovery");
    const double t0 = sim.host_time();
    ++device_resets_;
    dev_.reset();
    abandon_device_vectors();

    const bool device_owns_state = VersionTraits::of(version_).modification_on_device;
    if (device_owns_state) {
        // Versions 5/6: the lost device held the only current flock.
        // Rewind to the checkpoint and replay the committed steps on the
        // CPU (their stats are already in totals_, so no re-counting).
        flock_ = checkpoint_flock_;
        steering_host_ = checkpoint_steering_;
        for (std::uint64_t s = checkpoint_step_; s < step_index_; ++s) {
            cpu_update_step(s, /*count_stats=*/false);
        }
    }
    // In double-buffer mode this step presents the *previous* step's
    // matrices (§6.3.2), which also died with the device.
    std::vector<steer::Mat4> prev_matrices;
    if (device_owns_state && double_buffer_) {
        steer::build_draw_matrices(flock_, prev_matrices);
    }

    // The step the device failed: finish it on the CPU.
    cpu_update_step(step_index_, /*count_stats=*/true);
    ++cpu_fallback_steps_;
    cupp::trace::metrics().add("gpusteer.cpu_fallback_steps");

    if (device_owns_state) {
        std::vector<steer::Mat4> now;
        steer::build_draw_matrices(flock_, now);
        // Leave this step's matrices in the buffer the GPU path would have
        // written, so the next double-buffered step downloads the right one.
        matrices_[current_buffer_].mutate() = now;
        if (double_buffer_) {
            drawn_ = std::move(prev_matrices);
            current_buffer_ = 1 - current_buffer_;
        } else {
            drawn_ = std::move(now);
        }
        reupload_state();
        checkpoint_flock_ = flock_;
        checkpoint_steering_ = steering_host_;
        checkpoint_step_ = step_index_ + 1;
    } else {
        // Versions 1-4: the host copy was authoritative all along; the
        // CPU step above recomputed every thinking agent of this step, so
        // any partially-updated steering is overwritten.
        steer::build_draw_matrices(flock_, drawn_);
        reupload_state();
    }

    ++step_index_;
    StageTimes times;
    times.draw = draw_stage(/*from_device_matrices=*/true);
    times.simulation = sim.host_time() - t0 - times.draw;
    return times;
}

std::vector<Agent> GpuBoidsPlugin::snapshot() const {
    if (!VersionTraits::of(version_).modification_on_device) return flock_;
    // Version 5: the truth lives on the device; download it.
    const auto p = positions_.snapshot();
    const auto f = forwards_.snapshot();
    const auto s = speeds_.snapshot();
    std::vector<Agent> out(spec_.agents);
    for (std::uint32_t i = 0; i < spec_.agents; ++i) {
        out[i].position = p[i];
        out[i].forward = f[i];
        out[i].speed = s[i];
    }
    return out;
}

}  // namespace gpusteer
