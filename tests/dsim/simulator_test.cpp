#include "dsim/simulator.hpp"

#include "test_support.hpp"

#include <gtest/gtest.h>

namespace {

using namespace amp::dsim;
using namespace amp::core;
using amp::testing::make_chain;
using amp::testing::uniform_chain;

SimulationConfig ideal_config()
{
    SimulationConfig config;
    config.frames = 5000;
    config.warmup_frames = 500;
    config.overhead.adaptor_crossing_us = 0.0;
    config.overhead.service_inflation = 0.0;
    config.overhead.jitter_cv = 0.0;
    config.overhead.replication_penalty = 0.0;
    config.overhead.little_replication_penalty = 0.0;
    return config;
}

TEST(Dsim, IdealPipelineMatchesExpectedPeriod)
{
    const auto chain = make_chain({{100, 200, false}, {40, 90, true}, {60, 150, false}});
    const Solution solution{{Stage{1, 1, 1, CoreType::big}, Stage{2, 2, 1, CoreType::big},
                             Stage{3, 3, 1, CoreType::big}}};
    const auto result = simulate(chain, solution, ideal_config());
    EXPECT_NEAR(result.period_us, solution.period(chain), 1e-6);
    EXPECT_NEAR(result.fps, 1e6 / 100.0, 1.0);
}

TEST(Dsim, ReplicationDividesPeriod)
{
    const auto chain = uniform_chain(1, 100.0, true);
    const Solution solo{{Stage{1, 1, 1, CoreType::big}}};
    const Solution replicated{{Stage{1, 1, 4, CoreType::big}}};
    const auto config = ideal_config();
    const auto slow = simulate(chain, solo, config);
    const auto fast = simulate(chain, replicated, config);
    EXPECT_NEAR(slow.period_us, 100.0, 1e-6);
    EXPECT_NEAR(fast.period_us, 25.0, 1e-6);
}

TEST(Dsim, BottleneckStageSetsThroughput)
{
    const auto chain = make_chain({{10, 10, false}, {80, 80, false}, {10, 10, false}});
    const Solution solution{{Stage{1, 1, 1, CoreType::big}, Stage{2, 2, 1, CoreType::big},
                             Stage{3, 3, 1, CoreType::big}}};
    const auto result = simulate(chain, solution, ideal_config());
    EXPECT_NEAR(result.period_us, 80.0, 1e-6);
    // Bottleneck stage saturated, the others mostly idle.
    EXPECT_GT(result.stages[1].utilization, 0.95);
    EXPECT_LT(result.stages[0].utilization, 0.2);
}

TEST(Dsim, LittleStageUsesLittleWeights)
{
    const auto chain = make_chain({{10, 50, false}});
    const Solution solution{{Stage{1, 1, 1, CoreType::little}}};
    const auto result = simulate(chain, solution, ideal_config());
    EXPECT_NEAR(result.period_us, 50.0, 1e-6);
}

TEST(Dsim, OverheadsSlowThePipelineDown)
{
    const auto chain = make_chain({{50, 120, true}, {50, 130, true}});
    const Solution solution{{Stage{1, 1, 2, CoreType::big}, Stage{2, 2, 3, CoreType::little}}};
    auto config = ideal_config();
    const auto ideal = simulate(chain, solution, config);
    config.overhead.adaptor_crossing_us = 2.0;
    config.overhead.jitter_cv = 0.02;
    config.overhead.replication_penalty = 0.02;
    config.overhead.little_replication_penalty = 0.08;
    const auto real = simulate(chain, solution, config);
    EXPECT_GT(real.period_us, ideal.period_us);
    // The gap should stay in the "moving from theory to practice" band the
    // paper reports (single-digit to low-double-digit percent).
    EXPECT_LT(real.period_us, ideal.period_us * 1.35);
}

TEST(Dsim, LittleReplicationPenalizedMoreThanBig)
{
    const auto chain = make_chain({{100, 100, true}});
    auto config = ideal_config();
    config.overhead.replication_penalty = 0.02;
    config.overhead.little_replication_penalty = 0.08;
    const auto big = simulate(chain, Solution{{Stage{1, 1, 2, CoreType::big}}}, config);
    const auto little = simulate(chain, Solution{{Stage{1, 1, 2, CoreType::little}}}, config);
    EXPECT_GT(little.period_us, big.period_us);
}

TEST(Dsim, JitterIsDeterministicPerSeed)
{
    const auto chain = uniform_chain(3, 50.0, true);
    const Solution solution{{Stage{1, 3, 2, CoreType::big}}};
    auto config = ideal_config();
    config.overhead.jitter_cv = 0.05;
    const auto a = simulate(chain, solution, config);
    const auto b = simulate(chain, solution, config);
    EXPECT_DOUBLE_EQ(a.period_us, b.period_us);
}

TEST(Dsim, RejectsBadInputs)
{
    const auto chain = uniform_chain(2, 10.0, true);
    EXPECT_THROW((void)simulate(chain, Solution{}, {}), std::invalid_argument);
    SimulationConfig config;
    config.frames = 10;
    config.warmup_frames = 10;
    EXPECT_THROW(
        (void)simulate(chain, Solution{{Stage{1, 2, 1, CoreType::big}}}, config),
        std::invalid_argument);
    EXPECT_THROW((void)simulate(chain, Solution{{Stage{1, 1, 1, CoreType::big}}}, {}),
                 std::invalid_argument)
        << "solution must cover the chain";
}

} // namespace

namespace {

TEST(Dsim, StageStatsReportMeanService)
{
    const auto chain = amp::testing::make_chain({{40, 80, true}, {60, 130, false}});
    const Solution solution{{Stage{1, 1, 2, CoreType::big}, Stage{2, 2, 1, CoreType::big}}};
    const auto result = simulate(chain, solution, ideal_config());
    ASSERT_EQ(result.stages.size(), 2u);
    EXPECT_NEAR(result.stages[0].mean_service_us, 40.0, 1e-6)
        << "per-replica service is the full interval latency";
    EXPECT_NEAR(result.stages[1].mean_service_us, 60.0, 1e-6);
    EXPECT_GT(result.stages[1].utilization, result.stages[0].utilization);
}

TEST(Dsim, ServiceInflationShiftsPeriod)
{
    const auto chain = amp::testing::uniform_chain(1, 100.0, false);
    const Solution solution{{Stage{1, 1, 1, CoreType::big}}};
    auto config = ideal_config();
    config.overhead.service_inflation = 0.10;
    const auto result = simulate(chain, solution, config);
    EXPECT_NEAR(result.period_us, 110.0, 1e-6);
}

TEST(Dsim, AdaptorCrossingDoesNotChangeSteadyStatePeriod)
{
    // Fixed per-crossing latency delays every frame equally: the
    // inter-departure time (period) is untouched (see ALGORITHMS.md).
    const auto chain = amp::testing::make_chain({{50, 50, false}, {80, 80, false}});
    const Solution solution{{Stage{1, 1, 1, CoreType::big}, Stage{2, 2, 1, CoreType::big}}};
    auto config = ideal_config();
    config.overhead.adaptor_crossing_us = 25.0;
    const auto result = simulate(chain, solution, config);
    EXPECT_NEAR(result.period_us, 80.0, 1e-6);
}

} // namespace
