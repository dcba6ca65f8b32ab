#include "cusim/runtime_api.hpp"

#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>

#include "cusim/registry.hpp"

namespace cusim::rt {

namespace {

/// Per-host-thread launch staging area (config + argument stack), matching
/// the statefulness of the real three-step launch protocol.
struct LaunchState {
    LaunchConfig config;
    bool configured = false;
    std::array<std::byte, kKernelStackSize> stack{};
    std::size_t stack_high_water = 0;
};

thread_local LaunchState t_launch;
thread_local ErrorCode t_last_error = ErrorCode::Success;

ErrorCode set_error(ErrorCode code) {
    t_last_error = code;
    return code;
}

/// One registered kernel. Keyless registrations keep the null key, which
/// no lookup matches.
struct Registered {
    KernelKey key;
    Trampoline thread;
    WarpTrampoline warp;
};

/// Registered kernels. A deque keeps element addresses stable, so the
/// element address itself can serve as the handle.
struct KernelRegistry {
    std::mutex mutex;
    std::deque<Registered> kernels;

    static KernelRegistry& instance() {
        static KernelRegistry r;
        return r;
    }
};

template <typename F>
ErrorCode guarded(F&& f) {
    try {
        f();
        return set_error(ErrorCode::Success);
    } catch (const Error& e) {
        return set_error(e.code());
    } catch (...) {
        return set_error(ErrorCode::LaunchFailure);
    }
}

/// Graph/exec handle registries. Mutex-guarded like the kernels: the C API
/// may be driven from several host threads.
struct GraphRegistry {
    std::mutex mutex;
    std::map<GraphHandle, Graph> graphs;
    std::map<GraphExecHandle, GraphExec> execs;
    GraphHandle next_graph = 1;
    GraphExecHandle next_exec = 1;

    static GraphRegistry& instance() {
        static GraphRegistry r;
        return r;
    }
};

}  // namespace

KernelHandle register_kernel(Trampoline trampoline, WarpTrampoline warp, KernelKey key) {
    KernelRegistry& r = KernelRegistry::instance();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (key != KernelKey{}) {
        for (const Registered& k : r.kernels) {
            if (k.key == key) return &k;
        }
    }
    r.kernels.push_back(Registered{key, std::move(trampoline), std::move(warp)});
    return &r.kernels.back();
}

std::size_t registered_kernel_count() {
    KernelRegistry& r = KernelRegistry::instance();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.kernels.size();
}

ErrorCode cusimSetDevice(int device) {
    return guarded([&] { Registry::instance().set_device(device); });
}

ErrorCode cusimGetDevice(int* device) {
    if (!device) return set_error(ErrorCode::InvalidValue);
    return guarded([&] { *device = Registry::instance().current_ordinal(); });
}

ErrorCode cusimGetDeviceCount(int* count) {
    if (!count) return set_error(ErrorCode::InvalidValue);
    *count = Registry::instance().device_count();
    return set_error(ErrorCode::Success);
}

ErrorCode cusimChooseDevice(int* device, const DeviceProperties* prop) {
    if (!device || !prop) return set_error(ErrorCode::InvalidValue);
    return guarded([&] { *device = Registry::instance().choose_device(*prop); });
}

ErrorCode cusimGetDeviceProperties(DeviceProperties* prop, int device) {
    if (!prop) return set_error(ErrorCode::InvalidValue);
    return guarded([&] { *prop = Registry::instance().device(device).properties(); });
}

ErrorCode cusimMalloc(DeviceAddr* dev_ptr, std::size_t count, std::source_location loc) {
    if (!dev_ptr) return set_error(ErrorCode::InvalidValue);
    return guarded([&] {
        *dev_ptr = Registry::instance().current_device().malloc_bytes(count, loc,
                                                                      "cusimMalloc");
    });
}

ErrorCode cusimFree(DeviceAddr dev_ptr, std::source_location loc) {
    return guarded(
        [&] { Registry::instance().current_device().free_bytes(dev_ptr, loc); });
}

ErrorCode cusimMemcpy(void* dst, const void* src, std::size_t count, CopyKind kind) {
    if (kind != CopyKind::HostToHost) return set_error(ErrorCode::InvalidMemcpyDirection);
    if (!dst || !src) return set_error(ErrorCode::InvalidValue);
    std::memmove(dst, src, count);
    return set_error(ErrorCode::Success);
}

ErrorCode cusimMemcpyToDevice(DeviceAddr dst, const void* src, std::size_t count) {
    if (!src) return set_error(ErrorCode::InvalidValue);
    return guarded(
        [&] { Registry::instance().current_device().copy_to_device(dst, src, count); });
}

ErrorCode cusimMemcpyToHost(void* dst, DeviceAddr src, std::size_t count) {
    if (!dst) return set_error(ErrorCode::InvalidValue);
    return guarded(
        [&] { Registry::instance().current_device().copy_to_host(dst, src, count); });
}

ErrorCode cusimMemcpyDeviceToDevice(DeviceAddr dst, DeviceAddr src, std::size_t count) {
    return guarded([&] {
        Registry::instance().current_device().copy_device_to_device(dst, src, count);
    });
}

ErrorCode cusimConfigureCall(dim3 grid, dim3 block, std::uint32_t shared_bytes,
                             std::uint32_t regs_per_thread) {
    return guarded([&] {
        LaunchConfig cfg{grid, block, shared_bytes, regs_per_thread};
        cfg.validate();
        t_launch.config = cfg;
        t_launch.configured = true;
        t_launch.stack.fill(std::byte{0});
        t_launch.stack_high_water = 0;
    });
}

ErrorCode cusimSetupArgument(const void* arg, std::size_t size, std::size_t offset) {
    if (!arg) return set_error(ErrorCode::InvalidValue);
    if (offset + size > kKernelStackSize) return set_error(ErrorCode::InvalidValue);
    if (!t_launch.configured) return set_error(ErrorCode::InvalidConfiguration);
    std::memcpy(t_launch.stack.data() + offset, arg, size);
    t_launch.stack_high_water = std::max(t_launch.stack_high_water, offset + size);
    return set_error(ErrorCode::Success);
}

ErrorCode cusimLaunch(KernelHandle kernel) { return cusimLaunchNamed(kernel, nullptr); }

ErrorCode cusimLaunchNamed(KernelHandle kernel, const char* name) {
    return cusimLaunchAsync(kernel, name, kDefaultStream);
}

ErrorCode cusimStreamCreate(StreamId* stream) {
    if (!stream) return set_error(ErrorCode::InvalidValue);
    return guarded(
        [&] { *stream = Registry::instance().current_device().stream_create(); });
}

ErrorCode cusimStreamDestroy(StreamId stream) {
    return guarded([&] { Registry::instance().current_device().stream_destroy(stream); });
}

ErrorCode cusimStreamQuery(StreamId stream) {
    bool idle = false;
    const ErrorCode e =
        guarded([&] { idle = Registry::instance().current_device().stream_query(stream); });
    if (e != ErrorCode::Success) return e;
    // NotReady is a status, not a sticky error (cudaStreamQuery semantics).
    return idle ? ErrorCode::Success : ErrorCode::NotReady;
}

ErrorCode cusimStreamSynchronize(StreamId stream) {
    return guarded(
        [&] { Registry::instance().current_device().stream_synchronize(stream); });
}

ErrorCode cusimStreamWaitEvent(StreamId stream, EventId event) {
    return guarded(
        [&] { Registry::instance().current_device().stream_wait_event(stream, event); });
}

ErrorCode cusimEventCreate(EventId* event) {
    if (!event) return set_error(ErrorCode::InvalidValue);
    return guarded(
        [&] { *event = Registry::instance().current_device().event_create(); });
}

ErrorCode cusimEventDestroy(EventId event) {
    return guarded([&] { Registry::instance().current_device().event_destroy(event); });
}

ErrorCode cusimEventRecord(EventId event, StreamId stream) {
    return guarded(
        [&] { Registry::instance().current_device().event_record(event, stream); });
}

ErrorCode cusimEventQuery(EventId event) {
    bool done = false;
    const ErrorCode e =
        guarded([&] { done = Registry::instance().current_device().event_query(event); });
    if (e != ErrorCode::Success) return e;
    return done ? ErrorCode::Success : ErrorCode::NotReady;
}

ErrorCode cusimEventSynchronize(EventId event) {
    return guarded(
        [&] { Registry::instance().current_device().event_synchronize(event); });
}

ErrorCode cusimEventElapsedTime(float* ms, EventId start, EventId stop) {
    if (!ms) return set_error(ErrorCode::InvalidValue);
    // Defined output on every failure path (never-recorded event, re-recorded
    // but unreached record, unknown id): the caller must not read garbage.
    *ms = 0.0f;
    return guarded([&] {
        *ms = static_cast<float>(
            Registry::instance().current_device().event_elapsed_ms(start, stop));
    });
}

ErrorCode cusimMemcpyToDeviceAsync(DeviceAddr dst, const void* src, std::size_t count,
                                   StreamId stream) {
    if (!src) return set_error(ErrorCode::InvalidValue);
    return guarded([&] {
        Registry::instance().current_device().memcpy_to_device_async(dst, src, count,
                                                                     stream);
    });
}

ErrorCode cusimMemcpyToHostAsync(void* dst, DeviceAddr src, std::size_t count,
                                 StreamId stream) {
    if (!dst) return set_error(ErrorCode::InvalidValue);
    return guarded([&] {
        Registry::instance().current_device().memcpy_to_host_async(dst, src, count,
                                                                   stream);
    });
}

ErrorCode cusimLaunchAsync(KernelHandle kernel, const char* name, StreamId stream) {
    if (!kernel) return set_error(ErrorCode::InvalidValue);
    if (!t_launch.configured) return set_error(ErrorCode::InvalidConfiguration);
    const auto* k = static_cast<const Registered*>(kernel);
    return guarded([&] {
        Device& dev = Registry::instance().current_device();
        // The closures own a copy of the stack, so the thread-local staging
        // area is free for the next configure/setup sequence immediately
        // (an enqueued launch runs after this call returns).
        auto stack = std::make_shared<std::array<std::byte, kKernelStackSize>>(t_launch.stack);
        KernelSpec spec([k, &dev, stack](ThreadCtx& ctx) {
            return k->thread(ctx, dev, stack->data());
        });
        if (k->warp) {
            spec.warp = [k, &dev, stack](WarpCtx& w) { return k->warp(w, dev, stack->data()); };
        }
        dev.launch_async(t_launch.config, std::move(spec),
                         name ? std::string_view(name) : std::string_view{}, stream);
        t_launch.configured = false;
    });
}

const LaunchStats& cusimLastLaunchStats() {
    return Registry::instance().current_device().last_launch();
}

ErrorCode cusimGetLastError() {
    const ErrorCode e = t_last_error;
    t_last_error = ErrorCode::Success;
    return e;
}

const char* cusimGetErrorString(ErrorCode code) { return error_string(code); }

ErrorCode cusimStreamBeginCapture(StreamId stream) {
    return guarded([&] {
        Registry::instance().current_device().stream_begin_capture(stream);
    });
}

ErrorCode cusimStreamEndCapture(StreamId stream, GraphHandle* graph) {
    if (!graph) return set_error(ErrorCode::InvalidValue);
    *graph = 0;
    return guarded([&] {
        Graph g = Registry::instance().current_device().stream_end_capture(stream);
        GraphRegistry& r = GraphRegistry::instance();
        std::lock_guard<std::mutex> lock(r.mutex);
        const GraphHandle h = r.next_graph++;
        r.graphs.emplace(h, std::move(g));
        *graph = h;
    });
}

ErrorCode cusimGraphInstantiate(GraphExecHandle* exec, GraphHandle graph) {
    if (!exec) return set_error(ErrorCode::InvalidValue);
    *exec = 0;
    return guarded([&] {
        GraphRegistry& r = GraphRegistry::instance();
        Graph g;
        {
            std::lock_guard<std::mutex> lock(r.mutex);
            const auto it = r.graphs.find(graph);
            if (it == r.graphs.end()) {
                throw Error(ErrorCode::InvalidValue,
                            "cusimGraphInstantiate: unknown graph handle");
            }
            g = it->second;  // shares the immutable IR
        }
        // Instantiate outside the lock: it validates against the device.
        GraphExec e = Registry::instance().current_device().graph_instantiate(g);
        std::lock_guard<std::mutex> lock(r.mutex);
        const GraphExecHandle h = r.next_exec++;
        r.execs.emplace(h, std::move(e));
        *exec = h;
    });
}

ErrorCode cusimGraphLaunch(GraphExecHandle exec) {
    return guarded([&] {
        GraphRegistry& r = GraphRegistry::instance();
        GraphExec e;
        {
            std::lock_guard<std::mutex> lock(r.mutex);
            const auto it = r.execs.find(exec);
            if (it == r.execs.end()) {
                throw Error(ErrorCode::InvalidValue,
                            "cusimGraphLaunch: unknown exec handle");
            }
            e = it->second;
        }
        Registry::instance().current_device().graph_launch(e);
    });
}

ErrorCode cusimGraphDestroy(GraphHandle graph) {
    GraphRegistry& r = GraphRegistry::instance();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (r.graphs.erase(graph) == 0) return set_error(ErrorCode::InvalidValue);
    return set_error(ErrorCode::Success);
}

ErrorCode cusimGraphExecDestroy(GraphExecHandle exec) {
    GraphRegistry& r = GraphRegistry::instance();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (r.execs.erase(exec) == 0) return set_error(ErrorCode::InvalidValue);
    return set_error(ErrorCode::Success);
}

ErrorCode cusimProfilerStart() {
    return guarded([] {
        prof::ApiScope prof_scope(prof::Api::ProfilerStart, -1);
        prof::start();
    });
}

ErrorCode cusimProfilerStop() {
    return guarded([] {
        prof::ApiScope prof_scope(prof::Api::ProfilerStop, -1);
        prof::stop();
    });
}

ErrorCode cusimThreadSynchronize() {
    return guarded([] { Registry::instance().current_device().synchronize(); });
}

ErrorCode cusimDeviceReset() {
    return guarded([] { Registry::instance().current_device().reset_device(); });
}

}  // namespace cusim::rt
