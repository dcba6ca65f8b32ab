// cupp::kernel call-semantics tests, built around the thesis' own examples:
// the `kernel(int i, int& j)` of listings 4.2/4.3, const-reference copy-back
// elision, the transform()/get_device_reference()/dirty() protocol of §4.4,
// and the host/device type transformation of §4.5.
#include <gtest/gtest.h>

#include <cstring>

#include "cupp/cupp.hpp"
#include "cusim/engine.hpp"
#include "cusim/registry.hpp"
#include "cusim/runtime_api.hpp"
#include "cusim/warp_ctx.hpp"

namespace {

using cusim::KernelTask;
using cusim::ThreadCtx;

// --- listing 4.2: the CUDA file ---
KernelTask half_kernel(ThreadCtx& ctx, int i, int& j) {
    if (ctx.global_id() == 0) j = i / 2;
    co_return;
}
using HalfKernelT = KernelTask (*)(ThreadCtx&, int, int&);
HalfKernelT get_half_kernel_ptr() { return half_kernel; }

TEST(Kernel, Listing43CallByReference) {
    cupp::device device_hdl;
    int j = 0;
    cupp::kernel f(get_half_kernel_ptr(), cusim::make_dim3(10, 10), cusim::make_dim3(8, 8));
    f(device_hdl, 10, j);
    EXPECT_EQ(j, 5);  // "// j == 5"
}

// --- const references skip the copy-back (§4.3.2) ---
KernelTask sum_kernel(ThreadCtx& ctx, const int& a, const int& b, int& out) {
    if (ctx.global_id() == 0) out = a + b;
    co_return;
}

TEST(Kernel, ConstReferenceSkipsCopyBack) {
    using F = KernelTask (*)(ThreadCtx&, const int&, const int&, int&);
    static_assert(cupp::mutable_reference_count<F>() == 1);

    cupp::device d;
    auto& sim = d.sim();
    int a = 3, b = 4, out = 0;
    cupp::kernel k(static_cast<F>(sum_kernel), cusim::dim3{1}, cusim::dim3{32});

    const auto to_host_before = sim.bytes_to_host();
    k(d, a, b, out);
    const auto to_host = sim.bytes_to_host() - to_host_before;

    EXPECT_EQ(out, 7);
    // Only `out` travels back: one int, not three.
    EXPECT_EQ(to_host, sizeof(int));
}

TEST(Kernel, MutableReferenceCopyBackHappens) {
    using F = KernelTask (*)(ThreadCtx&, const int&, const int&, int&);
    cupp::device d;
    int a = 20, b = 22, out = -1;
    cupp::kernel k(static_cast<F>(sum_kernel), cusim::dim3{1}, cusim::dim3{32});
    k(d, a, b, out);
    EXPECT_EQ(out, 42);
    EXPECT_EQ(a, 20);
    EXPECT_EQ(b, 22);
}

// --- call-by-value leaves the host object untouched (§4.3.1) ---
KernelTask scale_by_value(ThreadCtx& ctx, float x, float& out) {
    if (ctx.global_id() == 0) out = x * 2.0f;
    co_return;
}

TEST(Kernel, CallByValueDoesNotWriteBack) {
    cupp::device d;
    float x = 1.5f, out = 0.0f;
    cupp::kernel k(static_cast<KernelTask (*)(ThreadCtx&, float, float&)>(scale_by_value),
                   cusim::dim3{1}, cusim::dim3{32});
    k(d, x, out);
    EXPECT_FLOAT_EQ(out, 3.0f);
    EXPECT_FLOAT_EQ(x, 1.5f);
}

// --- §4.4/§4.5: a host type with a distinct device type and the full
//     transform/dirty protocol ---
struct DevParticle {
    float x, vx;
    using device_type = DevParticle;
    // host_type declared below; the 1:1 pairing is completed by HostParticle.
};

struct HostParticle {
    using device_type = DevParticle;
    using host_type = HostParticle;

    double x = 0.0;   // host uses doubles; device wants floats
    double vx = 0.0;
    int transforms = 0;
    int dirties = 0;

    DevParticle transform(const cupp::device&) const {
        ++const_cast<HostParticle*>(this)->transforms;
        return DevParticle{static_cast<float>(x), static_cast<float>(vx)};
    }
    cupp::device_reference<DevParticle> get_device_reference(const cupp::device& d) const {
        return cupp::device_reference<DevParticle>(d, transform(d));
    }
    void dirty(cupp::device_reference<DevParticle> ref) {
        ++dirties;
        const DevParticle p = ref.get();
        x = p.x;
        vx = p.vx;
    }
};

KernelTask integrate_kernel(ThreadCtx& ctx, DevParticle& p, const float& dt) {
    if (ctx.global_id() == 0) p.x += p.vx * dt;
    co_return;
}

TEST(Kernel, TypeTransformationRoundTrip) {
    static_assert(cupp::has_device_type<HostParticle>);
    static_assert(std::is_same_v<cupp::device_type_t<HostParticle>, DevParticle>);
    static_assert(std::is_same_v<cupp::host_type_t<DevParticle>, DevParticle>);
    static_assert(cupp::has_transform<HostParticle>);
    static_assert(cupp::has_dirty<HostParticle>);
    static_assert(cupp::has_get_device_reference<HostParticle>);

    cupp::device d;
    HostParticle p;
    p.x = 1.0;
    p.vx = 4.0;
    float dt = 0.5f;
    cupp::kernel k(
        static_cast<KernelTask (*)(ThreadCtx&, DevParticle&, const float&)>(integrate_kernel),
        cusim::dim3{1}, cusim::dim3{32});
    k(d, p, dt);

    EXPECT_DOUBLE_EQ(p.x, 3.0);  // 1 + 4*0.5
    EXPECT_EQ(p.dirties, 1);
    EXPECT_GE(p.transforms, 1);
}

// POD without any of the three members uses the defaults of listing 4.5.
struct PlainPod {
    int a;
    int b;
};

KernelTask pod_kernel(ThreadCtx& ctx, PlainPod in, PlainPod& out) {
    if (ctx.global_id() == 0) {
        out.a = in.a + 1;
        out.b = in.b + 2;
    }
    co_return;
}

TEST(Kernel, PodDefaultsWork) {
    static_assert(!cupp::has_transform<PlainPod>);
    static_assert(!cupp::has_dirty<PlainPod>);
    static_assert(std::is_same_v<cupp::device_type_t<PlainPod>, PlainPod>);

    cupp::device d;
    PlainPod in{10, 20}, out{0, 0};
    cupp::kernel k(static_cast<KernelTask (*)(ThreadCtx&, PlainPod, PlainPod&)>(pod_kernel),
                   cusim::dim3{1}, cusim::dim3{32});
    k(d, in, out);
    EXPECT_EQ(out.a, 11);
    EXPECT_EQ(out.b, 22);
}

// Grid/block dimensions changeable with set-methods (§4.3). The counter
// vector must be passed by reference: "Changes done by the kernel are only
// reflected back, when an argument is passed as a reference" (§6.2.1).
KernelTask count_threads(ThreadCtx& ctx, cupp::deviceT::vector<int>& counter) {
    if (ctx.global_id() == 0) {
        counter.write(ctx, 0,
                      static_cast<int>(ctx.grid_dim().count() * ctx.block_dim().count()));
    }
    co_return;
}

TEST(Kernel, SetMethodsChangeGeometry) {
    cupp::device d;
    cupp::vector<int> counter = {0};
    cupp::kernel k(
        static_cast<KernelTask (*)(ThreadCtx&, cupp::deviceT::vector<int>&)>(count_threads));
    k.set_grid_dim(cusim::dim3{4});
    k.set_block_dim(cusim::dim3{64});
    k(d, counter);
    EXPECT_EQ(static_cast<int>(counter[0]), 4 * 64);
    EXPECT_EQ(k.last_stats().threads, 256u);
}

// cupp::kernel drives the same 3-step protocol as hand-written runtime-API
// code; both must produce identical results and stats.
KernelTask fill_kernel(ThreadCtx& ctx, cupp::deviceT::vector<int>& out, int value) {
    const std::uint64_t gid = ctx.global_id();
    if (gid < out.size()) out.write(ctx, gid, value);
    co_return;
}

TEST(Kernel, MatchesHandWrittenRuntimeApiLaunch) {
    using F = KernelTask (*)(ThreadCtx&, cupp::deviceT::vector<int>&, int);
    cupp::device d;

    // Through CuPP.
    cupp::vector<int> via_cupp(64, 0);
    cupp::kernel k(static_cast<F>(fill_kernel), cusim::dim3{2}, cusim::dim3{32});
    k(d, via_cupp, 7);
    const auto cupp_threads = k.last_stats().threads;

    // Through the raw three-step protocol: stage the handle by hand.
    cupp::vector<int> via_rt(64, 0);
    const auto ref = via_rt.get_device_reference(d);
    const cusim::DeviceAddr addr = ref.addr();
    const int value = 7;
    const auto handle = cusim::rt::register_kernel(
        [](ThreadCtx& ctx, cusim::Device& dev, const std::byte* stack) {
            cusim::DeviceAddr a;
            int v;
            std::memcpy(&a, stack, 8);
            std::memcpy(&v, stack + 8, 4);
            auto& out = *reinterpret_cast<cupp::deviceT::vector<int>*>(dev.memory().raw(a));
            return fill_kernel(ctx, out, v);
        });
    ASSERT_EQ(cusim::rt::cusimConfigureCall(cusim::dim3{2}, cusim::dim3{32}),
              cusim::ErrorCode::Success);
    ASSERT_EQ(cusim::rt::cusimSetupArgument(&addr, 8, 0), cusim::ErrorCode::Success);
    ASSERT_EQ(cusim::rt::cusimSetupArgument(&value, 4, 8), cusim::ErrorCode::Success);
    ASSERT_EQ(cusim::rt::cusimLaunch(handle), cusim::ErrorCode::Success);
    via_rt.dirty(ref);

    EXPECT_EQ(cusim::rt::cusimLastLaunchStats().threads, cupp_threads);
    for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(static_cast<int>(via_cupp[i]), 7);
        EXPECT_EQ(static_cast<int>(via_rt[i]), 7);
    }
}

// A kernel in both forms (cusim/warp_ctx.hpp). The forms here write
// different values, against the contract, so the one that ran is visible.
KernelTask stamp_kernel(ThreadCtx& ctx, cupp::deviceT::vector<int>& out, int value) {
    out.write(ctx, ctx.global_id(), value);
    co_return;
}

KernelTask stamp_kernel_warp(cusim::WarpCtx& w, cupp::deviceT::vector<int>& out,
                             int value) {
    std::uint64_t idx[cusim::kWarpSize]{};
    int v[cusim::kWarpSize]{};
    for (unsigned l = 0; l < w.lanes(); ++l) {
        idx[l] = w.global_id(l);
        v[l] = value + 1;
    }
    w.write(out.data, idx, v);
    co_return;
}

TEST(Kernel, TwoFormKernelRunsTheFormTheEngineSelects) {
    cupp::device d;
    cupp::kernel k(&stamp_kernel, &stamp_kernel_warp, cusim::dim3{2}, cusim::dim3{64});
    static_assert(std::is_same_v<decltype(k), cupp::kernel<decltype(&stamp_kernel)>>);
    cupp::stream s(d);
    for (const cusim::EngineMode mode : {cusim::EngineMode::Thread, cusim::EngineMode::Warp}) {
        cusim::set_engine_mode(mode);
        const int expected = mode == cusim::EngineMode::Warp ? 8 : 7;
        cupp::vector<int> out(128, 0);
        k(d, out, 7);
        for (std::uint64_t i = 0; i < 128; ++i) EXPECT_EQ(static_cast<int>(out[i]), expected);
        // The stream-bound call enqueues the same two forms.
        cupp::vector<int> queued(128, 0);
        k(d, s, queued, 7);
        s.synchronize();
        for (std::uint64_t i = 0; i < 128; ++i) {
            EXPECT_EQ(static_cast<int>(queued[i]), expected);
        }
    }
    // A thread-only kernel object of the same function has no warp form.
    cupp::kernel thread_only(&stamp_kernel, cusim::dim3{2}, cusim::dim3{64});
    cupp::vector<int> out(128, 0);
    thread_only(d, out, 7);
    EXPECT_EQ(static_cast<int>(out[127]), 7);
    cusim::clear_engine_mode();
    EXPECT_EQ(k.last_stats().threads, 128u);
}

// Registrations live as long as the process, so kernel objects of one
// function share one: a process that builds kernel objects per request
// must not register more and more kernels.
TEST(Kernel, OneFunctionIsRegisteredOnce) {
    using F = KernelTask (*)(ThreadCtx&, cupp::deviceT::vector<int>&, int);
    {
        cupp::kernel thread_form(static_cast<F>(fill_kernel));
        cupp::kernel both_forms(&stamp_kernel, &stamp_kernel_warp);
    }
    const std::size_t registered = cusim::rt::registered_kernel_count();
    for (int i = 0; i < 100; ++i) {
        cupp::kernel thread_form(static_cast<F>(fill_kernel));
        cupp::kernel both_forms(&stamp_kernel, &stamp_kernel_warp);
    }
    EXPECT_EQ(cusim::rt::registered_kernel_count(), registered);

    // Kernel objects built from one function still run independently.
    cupp::device d;
    cupp::kernel a(static_cast<F>(fill_kernel), cusim::dim3{1}, cusim::dim3{32});
    cupp::kernel b(static_cast<F>(fill_kernel), cusim::dim3{2}, cusim::dim3{32});
    cupp::vector<int> out(64, 0);
    a(d, out, 1);
    EXPECT_EQ(static_cast<int>(out[31]), 1);
    EXPECT_EQ(static_cast<int>(out[32]), 0);
    b(d, out, 2);
    EXPECT_EQ(static_cast<int>(out[63]), 2);
    EXPECT_EQ(a.last_stats().threads, 32u);
    EXPECT_EQ(b.last_stats().threads, 64u);
}

// Launch failures surface as cupp::kernel_error.
KernelTask bad_kernel(ThreadCtx& ctx, int& x) {
    if (ctx.global_id() == 0) throw std::runtime_error("kernel bug");
    (void)x;
    co_return;
}

TEST(Kernel, LaunchFailureThrowsKernelError) {
    cupp::device d;
    int x = 0;
    cupp::kernel k(static_cast<KernelTask (*)(ThreadCtx&, int&)>(bad_kernel), cusim::dim3{1},
                   cusim::dim3{8});
    EXPECT_THROW(k(d, x), cupp::kernel_error);
}

}  // namespace
