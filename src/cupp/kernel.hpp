// cupp::kernel — the C++ kernel-call functor (thesis §4.3).
//
// "CuPP supports CUDA kernel calls by offering a so called functor called
// cupp::kernel. [...] The call of operator() of cupp::kernel calls the
// kernel and issues all instructions described in section 3.2.2" — i.e. it
// drives the raw three-step launch protocol (ConfigureCall / SetupArgument
// / Launch) underneath a C++ function-call syntax with full call-by-value
// and call-by-reference semantics:
//
//  * by value (§4.3.1): the host object is transform()ed into its device
//    type and byte-wise copied onto the kernel stack;
//  * by reference (§4.3.2): the object is copied to global memory, its
//    *address* goes onto the kernel stack, and after the launch the data is
//    copied back over the host object — unless the kernel declares the
//    parameter `const T&`, which the signature analysis (type_traits.hpp)
//    detects and then skips the copy-back entirely;
//  * classes customise all of this via transform()/get_device_reference()/
//    dirty() (call_traits.hpp).
//
// Kernels are ordinary functions `cusim::KernelTask k(cusim::ThreadCtx&,
// Params...)` — the simulator's equivalent of a __global__ function. A
// kernel may also come with a warp-native form `cusim::KernelTask
// k_warp(cusim::WarpCtx&, Params...)` (cusim/warp_ctx.hpp) that runs once
// per warp; both forms unpack the same kernel stack, and the engine
// selection picks which one executes. Plain
// `T&` parameters arrive as references into simulated global memory;
// element accesses through them are not cycle-accounted (use the accounted
// container device types, e.g. deviceT::vector, in performance-relevant
// kernels).
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <variant>

#include "cupp/call_traits.hpp"
#include "cupp/device.hpp"
#include "cupp/exception.hpp"
#include "cupp/future.hpp"
#include "cupp/retry.hpp"
#include "cupp/stream.hpp"
#include "cupp/trace.hpp"
#include "cupp/type_traits.hpp"
#include "cusim/prof.hpp"
#include "cusim/runtime_api.hpp"

namespace cupp {

namespace detail {

constexpr std::size_t align_up(std::size_t v, std::size_t a) { return (v + a - 1) / a * a; }

/// What actually lives on the kernel stack for a parameter: the device
/// value for by-value parameters, the global-memory address for references.
template <typename A>
using stored_t = std::conditional_t<param_traits<A>::is_reference, cusim::DeviceAddr,
                                    typename param_traits<A>::value_type>;

/// Byte offsets of the parameters on the kernel stack, laid out in
/// declaration order with natural alignment (what nvcc does).
template <typename... Args>
constexpr std::array<std::size_t, sizeof...(Args)> stack_offsets() {
    std::array<std::size_t, sizeof...(Args)> offs{};
    [[maybe_unused]] std::size_t cur = 0;
    std::size_t i = 0;
    ((offs[i] = cur = align_up(cur, alignof(stored_t<Args>)), cur += sizeof(stored_t<Args>),
      ++i),
     ...);
    return offs;
}

template <typename... Args>
constexpr std::size_t stack_size() {
    std::size_t cur = 0;
    ((cur = align_up(cur, alignof(stored_t<Args>)) + sizeof(stored_t<Args>)), ...);
    return cur;
}

/// Slot holding the device_reference of a by-reference parameter between
/// launch and copy-back; by-value parameters need no slot.
template <typename A, bool = param_traits<A>::is_reference>
struct ref_slot {
    using type = std::monostate;
};
template <typename A>
struct ref_slot<A, true> {
    using type = std::optional<device_reference<typename param_traits<A>::value_type>>;
};

inline void check(cusim::ErrorCode code, const char* what) {
    if (code != cusim::ErrorCode::Success) {
        // Through the shared mapping, so a memory code surfaces as
        // memory_error (not kernel_error) and the code is preserved.
        rethrow(code, std::string(what) + ": " + cusim::rt::cusimGetErrorString(code));
    }
}

}  // namespace detail

template <typename F>
class kernel;

template <typename... Args>
class kernel<cusim::KernelTask (*)(cusim::ThreadCtx&, Args...)> {
public:
    using fn_type = cusim::KernelTask (*)(cusim::ThreadCtx&, Args...);
    /// The warp-native form of the same kernel: one call per warp.
    using warp_fn_type = cusim::KernelTask (*)(cusim::WarpCtx&, Args...);
    static constexpr std::size_t arity = sizeof...(Args);

    /// Wraps a kernel function pointer; grid and block dimensions may be
    /// given here or set later (§4.3: "Grid and block dimension [...] can
    /// be passed as an optional parameter to the constructor or may be
    /// changed later with set-methods").
    explicit kernel(fn_type f, cusim::dim3 grid_dim = cusim::dim3{1},
                    cusim::dim3 block_dim = cusim::dim3{cusim::kWarpSize})
        : kernel(f, nullptr, grid_dim, block_dim) {}

    /// Wraps a kernel given in both forms. The thread form stays the
    /// reference; the warp form must charge every lane what the thread form
    /// charges its thread (cusim/warp_ctx.hpp), and the engine selection
    /// (CUPP_SIM_ENGINE) decides which one runs. The call protocol is the
    /// same either way.
    kernel(fn_type f, warp_fn_type warp_f, cusim::dim3 grid_dim = cusim::dim3{1},
           cusim::dim3 block_dim = cusim::dim3{cusim::kWarpSize})
        : grid_(grid_dim), block_(block_dim) {
        static_assert(detail::stack_size<Args...>() <= cusim::rt::kKernelStackSize,
                      "kernel parameters exceed the 256-byte kernel stack");
        cusim::rt::WarpTrampoline warp;
        if (warp_f != nullptr) {
            warp = [warp_f](cusim::WarpCtx& w, cusim::Device& dev, const std::byte* stack) {
                return invoke(warp_f, w, dev, stack, std::index_sequence_for<Args...>{});
            };
        }
        // Keyed by the function pointers: every kernel object of one
        // function shares one registration.
        handle_ = cusim::rt::register_kernel(
            [f](cusim::ThreadCtx& ctx, cusim::Device& dev, const std::byte* stack) {
                return invoke(f, ctx, dev, stack, std::index_sequence_for<Args...>{});
            },
            std::move(warp),
            cusim::rt::KernelKey{reinterpret_cast<void (*)()>(f),
                                 reinterpret_cast<void (*)()>(warp_f)});
    }

    // --- configuration ---
    void set_grid_dim(cusim::dim3 g) { grid_ = g; }
    void set_block_dim(cusim::dim3 b) { block_ = b; }
    void set_shared_bytes(std::uint32_t bytes) { shared_bytes_ = bytes; }
    void set_regs_per_thread(std::uint32_t regs) { regs_per_thread_ = regs; }
    /// Labels this kernel in traces, reports and the launch history (the
    /// simulator has no nvcc to read the symbol name from).
    void set_name(std::string name) {
        name_ = std::move(name);
        launch_site_ = "launch " + name_;
    }
    [[nodiscard]] const std::string& name() const { return name_; }
    /// Per-kernel override of the transient-failure retry policy
    /// (default_retry_policy() otherwise).
    void set_retry_policy(retry_policy policy) { retry_ = std::move(policy); }
    [[nodiscard]] cusim::dim3 grid_dim() const { return grid_; }
    [[nodiscard]] cusim::dim3 block_dim() const { return block_; }

    /// The C++-style kernel call: first parameter is the device the kernel
    /// runs on, all following parameters are passed to the kernel
    /// (listing 4.3). The constraint keeps a non-const `stream` lvalue from
    /// being swallowed as a kernel argument by perfect forwarding — it must
    /// select the stream-bound overload below.
    void operator()(const device& d) { call_impl(d, cusim::kDefaultStream); }
    template <typename First, typename... Rest>
        requires(!std::is_same_v<std::remove_cvref_t<First>, stream>)
    void operator()(const device& d, First&& first, Rest&&... rest) {
        call_impl(d, cusim::kDefaultStream, std::forward<First>(first),
                  std::forward<Rest>(rest)...);
    }

    /// The stream-bound call: identical protocol, but the launch is
    /// *enqueued* on `s` and executes at the next synchronization point.
    /// Argument transforms (uploads for by-reference containers) still
    /// happen here, so the kernel sees the data as of this call. Note that
    /// last_stats() only updates for synchronous calls — an enqueued
    /// launch's stats exist only once it has executed (the device's launch
    /// history has them after the covering synchronize). A plain `T&`
    /// parameter holds a temporary device copy whose teardown at the end
    /// of this call joins with the stream; container and by-value
    /// parameters keep the call fully asynchronous.
    template <typename... CallArgs>
    void operator()(const device& d, const stream& s, CallArgs&&... call_args) {
        call_impl(d, s.id(), std::forward<CallArgs>(call_args)...);
    }

    /// Asynchronous call returning a future: the launch is enqueued on a
    /// fresh future-owned stream (kept alive by the continuation chain)
    /// and the future completes when the kernel has executed. Argument
    /// transforms still run here, synchronously, exactly like the
    /// stream-bound operator() — the future covers the *launch*.
    future<void> async(const device& d) {
        return with_owned_stream(d, [&](const stream& s) { call_impl(d, s.id()); });
    }
    template <typename First, typename... Rest>
        requires(!std::is_same_v<std::remove_cvref_t<First>, stream>)
    future<void> async(const device& d, First&& first, Rest&&... rest) {
        return with_owned_stream(d, [&](const stream& s) {
            call_impl(d, s.id(), std::forward<First>(first),
                      std::forward<Rest>(rest)...);
        });
    }

    /// Asynchronous call bound to a caller-owned stream. The caller keeps
    /// `s` alive for as long as the returned future (or any continuation
    /// chained from it) is in use.
    template <typename... CallArgs>
    future<void> async(const device& d, const stream& s, CallArgs&&... call_args) {
        return detail::make_async(d, &s, nullptr, [&](const stream& bound) {
            call_impl(d, bound.id(), std::forward<CallArgs>(call_args)...);
        });
    }

private:
    /// Owned-stream async flavour: even the stream *creation* failure is
    /// captured into the returned future (no async entry point throws).
    template <typename Enqueue>
    future<void> with_owned_stream(const device& d, Enqueue&& enqueue) {
        std::shared_ptr<stream> owned;
        try {
            owned = std::make_shared<stream>(d);
        } catch (...) {
            return detail::future_factory::wrap_void(detail::future_factory::error_core(
                nullptr, std::current_exception()));
        }
        return detail::make_async(d, nullptr, std::move(owned),
                                  std::forward<Enqueue>(enqueue));
    }

    template <typename... CallArgs>
    void call_impl(const device& d, cusim::StreamId sid, CallArgs&&... call_args) {
        static_assert(sizeof...(CallArgs) == arity,
                      "wrong number of kernel arguments");
        // Trace bookkeeping: one enclosing call span on the host lane, with
        // child spans per argument transform, the launch, and per copy-back
        // (the four phases of the §4.3 call protocol).
        cusim::Device& sim = d.sim();
        const bool tracing = trace::enabled();
        const double call_t0 = sim.host_time();
        // Host-side cost of the whole call protocol (transforms + launch +
        // copy-backs) in real wall time — the profiler's view of what the
        // framework itself costs, next to the kernel's modelled time.
        const bool profiling = cusim::prof::collecting();
        const double wall0 = profiling ? trace::wall_clock_us() : 0.0;

        detail::check(cusim::rt::cusimSetDevice(d.ordinal()), "set device");
        detail::check(
            cusim::rt::cusimConfigureCall(grid_, block_, shared_bytes_, regs_per_thread_),
            "configure call");

        slots_t slots;
        // Host copies for by-value parameters (§4.3.1 step 1). They stay
        // alive until after the launch: their destructors run "after the
        // kernel has started", never before.
        std::tuple<std::optional<std::remove_cvref_t<CallArgs>>...> copies;
        auto args = std::forward_as_tuple(call_args...);
        [&]<std::size_t... I>(std::index_sequence<I...>) {
            (([&] {
                 const double t0 = sim.host_time();
                 push_arg<I>(d, slots, copies, std::get<I>(args));
                 if (tracing) trace_arg_span<I>(sim, "transform", t0);
             }()),
             ...);
        }(std::index_sequence_for<Args...>{});

        // The launch itself is retried on transient failures: an injected
        // LaunchFailure rejects the grid (or the enqueue) before any state
        // changes and leaves the staged configuration + argument stack
        // untouched, so re-issuing really is the same launch.
        with_retry(retry_ ? *retry_ : default_retry_policy(), &sim,
                   launch_site_.c_str(), [&] {
                       detail::check(
                           cusim::rt::cusimLaunchAsync(handle_, name_.c_str(), sid),
                           "launch");
                   });
        if (sid == cusim::kDefaultStream) stats_ = cusim::rt::cusimLastLaunchStats();

        // Copy-back for non-const references (§4.3.2 step 4; skipped for
        // const ones thanks to the signature analysis).
        [&]<std::size_t... I>(std::index_sequence<I...>) {
            (([&] {
                 const double t0 = sim.host_time();
                 finish_arg<I>(slots, std::get<I>(args));
                 if (tracing && param_traits<arg_t<I>>::is_reference &&
                     !param_traits<arg_t<I>>::is_const_reference) {
                     trace_arg_span<I>(sim, "copy_back", t0);
                 }
             }()),
             ...);
        }(std::index_sequence_for<Args...>{});

        if (tracing) {
            trace::emit_complete(sim.host_track(), "cupp::call " + name_,
                                 sim.trace_time_us(call_t0),
                                 (sim.host_time() - call_t0) * 1e6,
                                 {{"kernel", name_},
                                  {"args", arity},
                                  {"stream", sid},
                                  {"blocks", stats_.blocks},
                                  {"threads", stats_.threads}});
            static const trace::counter_handle calls("cupp.kernel.calls");
            calls.add();
        }
        if (profiling) {
            trace::metrics().record("cusim.prof.call_host_us",
                                    trace::wall_clock_us() - wall0);
        }
    }

public:
    /// Simulator statistics of the most recent call through this functor.
    [[nodiscard]] const cusim::LaunchStats& last_stats() const { return stats_; }

private:
    template <std::size_t I>
    using arg_t = std::tuple_element_t<I, std::tuple<Args...>>;

    using slots_t = std::tuple<typename detail::ref_slot<Args>::type...>;
    static constexpr auto kOffsets = detail::stack_offsets<Args...>();

    /// Emits one per-argument protocol span ("transform arg2 (ref)") on the
    /// host lane of `sim`, covering [t0, now].
    template <std::size_t I>
    void trace_arg_span(cusim::Device& sim, const char* phase, double t0) const {
        using P = param_traits<arg_t<I>>;
        const char* mode = P::is_const_reference ? "const_ref"
                           : P::is_reference    ? "ref"
                                                : "value";
        trace::emit_complete(sim.host_track(),
                             trace::format("%s arg%zu (%s)", phase, I, mode),
                             sim.trace_time_us(t0), (sim.host_time() - t0) * 1e6,
                             {{"kernel", name_}, {"index", I}, {"mode", mode}});
    }

    template <std::size_t I, typename CopyTuple, typename CallArg>
    void push_arg(const device& d, slots_t& slots, CopyTuple& copies, CallArg& host_arg) {
        using A = arg_t<I>;
        using P = param_traits<A>;
        using H = std::remove_cv_t<std::remove_reference_t<CallArg>>;
        static_assert(std::is_same_v<device_type_t<H>, typename P::value_type>,
                      "argument's device type does not match the kernel parameter");
        if constexpr (P::is_reference) {
            auto& slot = std::get<I>(slots);
            slot.emplace(make_device_reference(host_arg, d));
            const cusim::DeviceAddr addr = slot->addr();
            detail::check(
                cusim::rt::cusimSetupArgument(&addr, sizeof(addr), kOffsets[I]),
                "setup argument");
        } else {
            // Call-by-value (§4.3.1): 1. copy-construct on the host,
            // 2. transform the copy and push the bytes onto the kernel
            // stack. This is what makes passing a cupp::vector by value
            // expensive — every element is copied (thesis conclusion).
            auto& copy = std::get<I>(copies);
            copy.emplace(host_arg);
            const auto device_value = transform_for_device(*copy, d);
            detail::check(cusim::rt::cusimSetupArgument(&device_value, sizeof(device_value),
                                                        kOffsets[I]),
                          "setup argument");
        }
    }

    template <std::size_t I, typename CallArg>
    void finish_arg(slots_t& slots, CallArg& host_arg) {
        using A = arg_t<I>;
        using P = param_traits<A>;
        if constexpr (P::is_reference && !P::is_const_reference) {
            apply_dirty(host_arg, *std::get<I>(slots));
        } else {
            (void)slots;
            (void)host_arg;
        }
    }

    template <std::size_t I>
    static decltype(auto) unpack(cusim::Device& dev, const std::byte* stack) {
        using A = arg_t<I>;
        using P = param_traits<A>;
        if constexpr (P::is_reference) {
            cusim::DeviceAddr addr;
            std::memcpy(&addr, stack + kOffsets[I], sizeof(addr));
            using T = typename P::value_type;
            // The reference the kernel sees aims straight into simulated
            // global memory — the byte-wise copy placed there by
            // device_reference.
            return static_cast<A>(*reinterpret_cast<T*>(dev.memory().raw(addr)));
        } else {
            typename P::value_type value;
            std::memcpy(&value, stack + kOffsets[I], sizeof(value));
            return value;
        }
    }

    /// Calls either form of the kernel with the arguments on `stack`.
    template <typename Ctx, std::size_t... I>
    static cusim::KernelTask invoke(cusim::KernelTask (*f)(Ctx&, Args...), Ctx& ctx,
                                    cusim::Device& dev, const std::byte* stack,
                                    std::index_sequence<I...>) {
        return f(ctx, unpack<I>(dev, stack)...);
    }

    cusim::rt::KernelHandle handle_;
    cusim::dim3 grid_;
    cusim::dim3 block_;
    std::uint32_t shared_bytes_ = 0;
    std::uint32_t regs_per_thread_ = 16;
    std::string name_ = "kernel";
    std::string launch_site_ = "launch kernel";  ///< the launch's retry site label
    std::optional<retry_policy> retry_;
    cusim::LaunchStats stats_{};
};

/// Deduction guide: `cupp::kernel f(get_kernel_ptr(), grid, block);`
template <typename... Args>
kernel(cusim::KernelTask (*)(cusim::ThreadCtx&, Args...), cusim::dim3, cusim::dim3)
    -> kernel<cusim::KernelTask (*)(cusim::ThreadCtx&, Args...)>;
template <typename... Args>
kernel(cusim::KernelTask (*)(cusim::ThreadCtx&, Args...))
    -> kernel<cusim::KernelTask (*)(cusim::ThreadCtx&, Args...)>;
/// Both forms: `cupp::kernel f(&k, &k_warp, grid, block);`
template <typename... Args>
kernel(cusim::KernelTask (*)(cusim::ThreadCtx&, Args...),
       cusim::KernelTask (*)(cusim::WarpCtx&, Args...), cusim::dim3, cusim::dim3)
    -> kernel<cusim::KernelTask (*)(cusim::ThreadCtx&, Args...)>;
template <typename... Args>
kernel(cusim::KernelTask (*)(cusim::ThreadCtx&, Args...),
       cusim::KernelTask (*)(cusim::WarpCtx&, Args...))
    -> kernel<cusim::KernelTask (*)(cusim::ThreadCtx&, Args...)>;

}  // namespace cupp
