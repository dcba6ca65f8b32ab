// Tests of the classic OpenSteer behavior repertoire (basic_behaviors.hpp)
// and the demo main-loop driver.
#include <gtest/gtest.h>

#include "cusim/cusim.hpp"
#include "gpusteer/registry.hpp"
#include "steer/basic_behaviors.hpp"
#include "steer/demo.hpp"
#include "steer/steer.hpp"

namespace {

using namespace steer;

Agent make_agent(Vec3 pos, Vec3 fwd, float speed) {
    Agent a;
    a.position = pos;
    a.forward = fwd.normalized();
    a.speed = speed;
    return a;
}

TEST(BasicBehaviors, SeekPointsAtTheTarget) {
    const Agent a = make_agent({0, 0, 0}, {0, 0, 1}, 0.0f);
    const Vec3 s = seek(a, Vec3{10, 0, 0}, 5.0f);
    EXPECT_GT(s.x, 0.0f);
    EXPECT_FLOAT_EQ(s.y, 0.0f);
    EXPECT_FLOAT_EQ(s.length(), 5.0f);  // at rest: desired velocity itself
}

TEST(BasicBehaviors, FleeIsOppositeOfSeek) {
    const Agent a = make_agent({1, 2, 3}, {0, 0, 1}, 2.0f);
    const Vec3 target{9, -4, 0};
    const Vec3 s = seek(a, target, 5.0f);
    const Vec3 f = flee(a, target, 5.0f);
    // seek + flee = -2 * velocity (the two desired velocities cancel).
    const Vec3 sum = s + f;
    const Vec3 expect = -2.0f * a.velocity();
    EXPECT_NEAR(sum.x, expect.x, 1e-5f);
    EXPECT_NEAR(sum.y, expect.y, 1e-5f);
    EXPECT_NEAR(sum.z, expect.z, 1e-5f);
}

TEST(BasicBehaviors, SeekingAgentReachesTheTarget) {
    Agent a = make_agent({0, 0, 0}, {1, 0, 0}, 0.0f);
    AgentParams params;
    const Vec3 target{0, 0, 30};
    float best = 1e9f;
    for (int i = 0; i < 600; ++i) {
        apply_steering(a, seek(a, target, params.max_speed), 1.0f / 60.0f, params);
        best = std::min(best, (target - a.position).length());
    }
    EXPECT_LT(best, 2.0f);
}

TEST(BasicBehaviors, ArrivalSlowsDownNearTheTarget) {
    AgentParams params;
    Agent a = make_agent({0, 0, 0}, {1, 0, 0}, params.max_speed);
    const Vec3 target{40, 0, 0};
    for (int i = 0; i < 1200; ++i) {
        apply_steering(a, arrival(a, target, params.max_speed, 10.0f), 1.0f / 60.0f,
                       params);
    }
    // Arrived and (nearly) stopped.
    EXPECT_LT((target - a.position).length(), 1.0f);
    EXPECT_LT(a.speed, 1.0f);
}

TEST(BasicBehaviors, PursuitLeadsTheQuarry) {
    const Agent hunter = make_agent({0, 0, 0}, {0, 0, 1}, 5.0f);
    const Agent quarry = make_agent({10, 0, 0}, {0, 0, 1}, 5.0f);  // moving +z
    const Vec3 plain = seek(hunter, quarry.position, 9.0f);
    const Vec3 lead = pursue(hunter, quarry, 9.0f);
    // The pursuit vector tilts towards the quarry's direction of travel.
    EXPECT_GT(lead.z, plain.z);
}

TEST(BasicBehaviors, PursuitCatchesFasterThanPlainSeek) {
    AgentParams params;
    params.max_speed = 10.0f;
    auto chase = [&](bool lead) {
        Agent hunter = make_agent({0, 0, 0}, {1, 0, 0}, 0.0f);
        Agent quarry = make_agent({20, 0, 0}, {0, 0, 1}, 6.0f);
        AgentParams quarry_params;
        for (int step = 0; step < 2000; ++step) {
            const Vec3 s = lead ? pursue(hunter, quarry, params.max_speed)
                                : seek(hunter, quarry.position, params.max_speed);
            apply_steering(hunter, s, 1.0f / 60.0f, params);
            apply_steering(quarry, kZero, 1.0f / 60.0f, quarry_params);
            if ((hunter.position - quarry.position).length() < 1.0f) return step;
        }
        return 2000;
    };
    EXPECT_LE(chase(true), chase(false));
}

TEST(BasicBehaviors, EvasionIncreasesDistance) {
    AgentParams params;
    Agent prey = make_agent({0, 0, 0}, {1, 0, 0}, 3.0f);
    const Agent menace = make_agent({5, 0, 0}, {-1, 0, 0}, 3.0f);  // incoming
    const float before = (menace.position - prey.position).length();
    // The prey starts out moving *towards* the menace; give it time to turn.
    for (int i = 0; i < 300; ++i) {
        apply_steering(prey, evade(prey, menace, params.max_speed), 1.0f / 60.0f, params);
    }
    EXPECT_GT((menace.position - prey.position).length(), before);
}

TEST(BasicBehaviors, WanderStaysBoundedAndDeterministic) {
    AgentParams params;
    Agent a = make_agent({0, 0, 0}, {0, 0, 1}, 1.0f);
    WanderState w1, w2;
    Vec3 last1{}, last2{};
    for (int i = 0; i < 500; ++i) {
        const Vec3 s1 = w1.step(a, 4.0f);
        const Vec3 s2 = w2.step(a, 4.0f);
        EXPECT_NEAR(s1.length(), 4.0f, 1e-3f);  // constant strength
        last1 = s1;
        last2 = s2;
    }
    EXPECT_EQ(last1, last2);  // same seed, same walk
}

TEST(Demo, RunsAnyRegisteredPluginAndAggregates) {
    PlugInRegistry registry;
    gpusteer::register_all_plugins(registry);
    Demo demo(registry);

    WorldSpec spec;
    spec.agents = 128;
    ASSERT_FALSE(demo.select("nope", spec));
    ASSERT_TRUE(demo.select("boids-cpu", spec));
    demo.run(5);
    EXPECT_EQ(demo.frames(), 5u);
    EXPECT_GT(demo.update_rate(), 0.0);
    EXPECT_GT(demo.frame_rate(), 0.0);
    EXPECT_LT(demo.frame_rate(), demo.update_rate());  // draw costs something

    // Switching plugins re-opens cleanly and resets the statistics.
    ASSERT_TRUE(demo.select("boids-gpu-v5", spec));
    EXPECT_EQ(demo.frames(), 0u);
    demo.run(3);
    EXPECT_EQ(demo.frames(), 3u);
    demo.close();
    EXPECT_FALSE(demo.has_plugin());
}

TEST(DeviceEvents, BracketKernelTime) {
    cusim::Device dev(cusim::tiny_properties());
    const cusim::EventId start = dev.event_create();
    const cusim::EventId stop = dev.event_create();
    dev.event_record(start, cusim::kDefaultStream);
    auto entry = [](cusim::ThreadCtx& ctx) -> cusim::KernelTask {
        ctx.charge(cusim::Op::FAdd, 120000);
        co_return;
    };
    const auto stats = dev.launch(cusim::LaunchConfig{cusim::dim3{1}, cusim::dim3{32}}, entry);
    dev.event_record(stop, cusim::kDefaultStream);
    dev.event_synchronize(stop);
    EXPECT_NEAR(dev.event_elapsed_ms(start, stop), stats.device_seconds * 1e3, 1e-9);
}

}  // namespace
