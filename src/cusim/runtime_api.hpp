// The CUDA-1.0-style host runtime API (§3.2).
//
// This is the C-flavoured layer the thesis builds CuPP on: error codes, a
// per-host-thread bound device, and the three-step kernel launch of §3.2.2
// (cusimConfigureCall -> cusimSetupArgument xN -> cusimLaunch). The CuPP
// kernel functor (cupp/kernel.hpp) issues exactly these calls.
//
// Because the simulator has no nvcc, "__global__ function pointers" are
// handles obtained by registering a trampoline that unpacks the kernel
// stack into the typed coroutine call — and, for a kernel that also has a
// warp-native form, a second trampoline that unpacks it into the warp call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <source_location>

#include "cusim/device.hpp"
#include "cusim/device_properties.hpp"
#include "cusim/error.hpp"
#include "cusim/kernel_task.hpp"
#include "cusim/types.hpp"

namespace cusim::rt {

/// Opaque handle standing in for a __global__ function pointer.
using KernelHandle = const void*;

/// A registered kernel: unpacks the launch stack and creates one device
/// thread's coroutine.
using Trampoline =
    std::function<KernelTask(ThreadCtx&, Device&, const std::byte* stack)>;
/// The warp form of a registered kernel: unpacks the same stack and creates
/// one warp's coroutine (warp_ctx.hpp).
using WarpTrampoline =
    std::function<KernelTask(WarpCtx&, Device&, const std::byte* stack)>;

/// Names a kernel function across registrations: the addresses of its
/// thread form and, if it has one, its warp form. cupp::kernel passes its
/// function pointers here.
struct KernelKey {
    void (*thread)() = nullptr;
    void (*warp)() = nullptr;

    friend bool operator==(const KernelKey&, const KernelKey&) = default;
};

/// Registers a kernel trampoline, optionally with its warp form; the
/// returned handle is what cusimLaunch accepts. A launch of a kernel with
/// both forms carries both (KernelSpec), and the engine selection picks
/// one. With a `key`, only the first call for that key registers: later
/// calls return its handle and drop their trampolines, which unpack the
/// same function. Handles stay valid for the process lifetime: enqueued
/// launches hold the trampolines, so nothing is ever unregistered.
KernelHandle register_kernel(Trampoline trampoline, WarpTrampoline warp = {},
                             KernelKey key = {});

/// Kernels registered so far in this process.
std::size_t registered_kernel_count();

// --- device management (§3.2.1) ---
ErrorCode cusimSetDevice(int device);
ErrorCode cusimGetDevice(int* device);
ErrorCode cusimGetDeviceCount(int* count);
ErrorCode cusimChooseDevice(int* device, const DeviceProperties* prop);
ErrorCode cusimGetDeviceProperties(DeviceProperties* prop, int device);

// --- memory management (§3.2.3) ---
// The implicit source_location captures the caller's line, giving memcheck
// reports the real cudaMalloc/cudaFree call sites.
ErrorCode cusimMalloc(DeviceAddr* dev_ptr, std::size_t count,
                      std::source_location loc = std::source_location::current());
ErrorCode cusimFree(DeviceAddr dev_ptr,
                    std::source_location loc = std::source_location::current());
ErrorCode cusimMemcpy(void* dst, const void* src, std::size_t count, CopyKind kind);
/// Device-addressed variants (device "pointers" are arena offsets, so the
/// void* flavour cannot express them; these are the checked equivalents).
ErrorCode cusimMemcpyToDevice(DeviceAddr dst, const void* src, std::size_t count);
ErrorCode cusimMemcpyToHost(void* dst, DeviceAddr src, std::size_t count);
ErrorCode cusimMemcpyDeviceToDevice(DeviceAddr dst, DeviceAddr src, std::size_t count);

// --- execution control (§3.2.2) ---
ErrorCode cusimConfigureCall(dim3 grid, dim3 block, std::uint32_t shared_bytes = 0,
                             std::uint32_t regs_per_thread = 16);
ErrorCode cusimSetupArgument(const void* arg, std::size_t size, std::size_t offset);
ErrorCode cusimLaunch(KernelHandle kernel);
/// cusimLaunch with a kernel name for the trace and launch history (the
/// real runtime derives it from the symbol; the simulator has no nvcc, so
/// callers pass it). A null/empty name behaves like cusimLaunch. This is
/// cusimLaunchAsync on the default stream.
ErrorCode cusimLaunchNamed(KernelHandle kernel, const char* name);

/// Stats of the most recent successful launch on the calling thread's device.
const LaunchStats& cusimLastLaunchStats();

// --- streams & events (cudaStream_t / cudaEvent_t mirrors) ---
// Handles are plain ids on the calling thread's bound device. Enqueue-only
// calls never run device work; queued ops execute at the next synchronize
// (see cusim/stream.hpp for the determinism contract).
ErrorCode cusimStreamCreate(StreamId* stream);
ErrorCode cusimStreamDestroy(StreamId stream);
/// Success when the stream is idle, NotReady while work is outstanding.
ErrorCode cusimStreamQuery(StreamId stream);
ErrorCode cusimStreamSynchronize(StreamId stream);
ErrorCode cusimStreamWaitEvent(StreamId stream, EventId event);

ErrorCode cusimEventCreate(EventId* event);
ErrorCode cusimEventDestroy(EventId event);
ErrorCode cusimEventRecord(EventId event, StreamId stream = kDefaultStream);
/// Success when the last record completed, NotReady while pending.
ErrorCode cusimEventQuery(EventId event);
ErrorCode cusimEventSynchronize(EventId event);
ErrorCode cusimEventElapsedTime(float* ms, EventId start, EventId stop);

/// cudaMemcpyAsync flavours. The H2D source is snapshotted at enqueue
/// (pageable semantics); the D2H destination is written when the op
/// executes and must not be read before the covering synchronize.
ErrorCode cusimMemcpyToDeviceAsync(DeviceAddr dst, const void* src, std::size_t count,
                                   StreamId stream);
ErrorCode cusimMemcpyToHostAsync(void* dst, DeviceAddr src, std::size_t count,
                                 StreamId stream);

/// The stream-bound cusimLaunchNamed: consumes the staged configure/setup
/// state and enqueues the launch on `stream` (on stream 0 the grid runs
/// before the call returns).
ErrorCode cusimLaunchAsync(KernelHandle kernel, const char* name, StreamId stream);

// --- graphs (cudaGraph_t / cudaGraphExec_t mirrors, cusim/graph.hpp) ---
// Handles are process-wide ids over the C++ Graph/GraphExec objects;
// destroy calls release the handle (the underlying DAG is shared and
// reference-counted, so a GraphExec outlives its Graph's destroy).
using GraphHandle = std::uint64_t;
using GraphExecHandle = std::uint64_t;

/// Starts capture on `stream` (Origin mode: the stream plus any stream
/// joined to it via captured event edges).
ErrorCode cusimStreamBeginCapture(StreamId stream);
/// Ends the capture and returns the recorded DAG's handle.
ErrorCode cusimStreamEndCapture(StreamId stream, GraphHandle* graph);
/// Validates the DAG once and returns a launchable exec handle.
ErrorCode cusimGraphInstantiate(GraphExecHandle* exec, GraphHandle graph);
/// Replays the whole DAG for one launch-overhead charge.
ErrorCode cusimGraphLaunch(GraphExecHandle exec);
ErrorCode cusimGraphDestroy(GraphHandle graph);
ErrorCode cusimGraphExecDestroy(GraphExecHandle exec);

// --- profiler control (cudaProfilerStart/Stop mirrors, cusim/prof.hpp) ---
// Scope collection to a region of interest. No-ops (returning Success)
// unless the profiler's collector is enabled — CUPP_PROF or prof::enable()
// — exactly like cudaProfilerStart without an attached profiler.
ErrorCode cusimProfilerStart();
ErrorCode cusimProfilerStop();

// --- error handling ---
ErrorCode cusimGetLastError();
const char* cusimGetErrorString(ErrorCode code);
/// cudaThreadSynchronize.
ErrorCode cusimThreadSynchronize();
/// cudaDeviceReset-flavoured recovery from a sticky DeviceLost fault:
/// clears the poisoned state and wipes device memory contents while
/// keeping allocations live (see Device::reset_device()).
ErrorCode cusimDeviceReset();

/// Size of the kernel argument stack (CUDA 1.0: 256 bytes).
inline constexpr std::size_t kKernelStackSize = 256;

}  // namespace cusim::rt
