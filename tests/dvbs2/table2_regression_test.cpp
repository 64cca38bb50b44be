// Regression tests pinning the Table II reproduction against the paper's
// published schedules: with the embedded Table III profiles, our strategy
// implementations compute the same pipeline decompositions the authors
// report (exactly for most rows; period- and usage-equal for the rows where
// tie-breaking between period-equal solutions legitimately differs).

#include "core/scheduler.hpp"
#include "dvbs2/profiles.hpp"

#include <gtest/gtest.h>

namespace {

using namespace amp::core;
using amp::dvbs2::mac_studio_profile;
using amp::dvbs2::profile_chain;
using amp::dvbs2::x7ti_profile;

struct PinnedRow {
    const char* id;
    Strategy strategy;
    const amp::dvbs2::PlatformProfile& profile;
    Resources resources;
    const char* paper_decomposition; ///< nullptr = only period/usage pinned
    double paper_period_us;
    int paper_big_used;
    int paper_little_used;
};

// gtest prints a parameter it cannot format as a byte dump, which here would
// include the addresses of `id` and `profile`; those move with every process
// under ASLR, and the dump ends up in the test names `gtest_discover_tests`
// registers. Printing the row id keeps the names stable.
void PrintTo(const PinnedRow& row, std::ostream* os) { *os << row.id; }

Solution compute(const PinnedRow& row)
{
    return schedule(ScheduleRequest{profile_chain(row.profile), row.resources, row.strategy})
        .solution;
}

class Table2Regression : public ::testing::TestWithParam<PinnedRow> {};

TEST_P(Table2Regression, MatchesPaper)
{
    const PinnedRow& row = GetParam();
    const auto chain = profile_chain(row.profile);
    const Solution solution = compute(row);
    ASSERT_FALSE(solution.empty()) << row.id;
    EXPECT_TRUE(solution.is_well_formed(chain)) << row.id;
    EXPECT_NEAR(solution.period(chain), row.paper_period_us, 0.25) << row.id;
    if (row.paper_decomposition != nullptr) {
        EXPECT_EQ(solution.decomposition(), row.paper_decomposition) << row.id;
    }
    EXPECT_EQ(solution.used(CoreType::big), row.paper_big_used) << row.id;
    EXPECT_EQ(solution.used(CoreType::little), row.paper_little_used) << row.id;
}

// clang-format off
INSTANTIATE_TEST_SUITE_P(PaperRows, Table2Regression, ::testing::Values(
    // --- Mac Studio, R = (8B, 2L) -----------------------------------------
    PinnedRow{"S1", Strategy::herad, mac_studio_profile(), {8, 2},
              "(5,1B),(1,1B),(9,1B),(1,2B),(2,1L),(1,3B),(4,1L)", 1128.7, 8, 2},
    PinnedRow{"S2", Strategy::twocatac, mac_studio_profile(), {8, 2},
              "(5,1B),(3,1B),(7,1B),(4,5B),(4,1L)", 1154.3, 8, 1},
    PinnedRow{"S3", Strategy::fertac, mac_studio_profile(), {8, 2},
              "(3,1L),(1,1L),(2,1B),(9,1B),(5,5B),(3,1B)", 1265.6, 8, 2},
    PinnedRow{"S4", Strategy::otac_big, mac_studio_profile(), {8, 2},
              "(5,1B),(4,1B),(6,1B),(4,4B),(4,1B)", 1442.9, 8, 0},
    PinnedRow{"S5", Strategy::otac_little, mac_studio_profile(), {8, 2},
              "(16,1L),(7,1L)", 11440.0, 0, 2},
    // --- Mac Studio, R = (16B, 4L) ----------------------------------------
    PinnedRow{"S6", Strategy::herad, mac_studio_profile(), {16, 4},
              "(3,1L),(1,1L),(1,1L),(1,1B),(6,1B),(7,7B),(4,1L)", 950.6, 9, 4},
    // S7 (2CATAC) ties in period and usage; the interval split differs.
    PinnedRow{"S7", Strategy::twocatac, mac_studio_profile(), {16, 4},
              nullptr, 950.6, 9, 4},
    // S8 (FERTAC) ties in period and usage; the interval split differs.
    PinnedRow{"S8", Strategy::fertac, mac_studio_profile(), {16, 4},
              nullptr, 950.6, 10, 4},
    PinnedRow{"S9", Strategy::otac_big, mac_studio_profile(), {16, 4},
              "(5,1B),(1,1B),(9,1B),(5,7B),(3,1B)", 950.6, 11, 0},
    PinnedRow{"S10", Strategy::otac_little, mac_studio_profile(), {16, 4},
              "(13,1L),(6,2L),(4,1L)", 6470.9, 0, 4},
    // --- X7 Ti, R = (3B, 4L) ------------------------------------------------
    PinnedRow{"S11", Strategy::herad, x7ti_profile(), {3, 4},
              "(5,1B),(10,1B),(3,1B),(1,3L),(4,1L)", 2722.1, 3, 4},
    // S12 (2CATAC) ties in period and usage; the interval split differs.
    PinnedRow{"S12", Strategy::twocatac, x7ti_profile(), {3, 4},
              nullptr, 2722.1, 3, 4},
    PinnedRow{"S13", Strategy::fertac, x7ti_profile(), {3, 4},
              "(5,1L),(3,1L),(7,1L),(4,3B),(4,1L)", 2867.0, 3, 4},
    PinnedRow{"S14", Strategy::otac_big, x7ti_profile(), {3, 4},
              "(18,1B),(1,1B),(4,1B)", 6209.0, 3, 0},
    PinnedRow{"S15", Strategy::otac_little, x7ti_profile(), {3, 4},
              "(15,1L),(4,2L),(4,1L)", 7490.3, 0, 4},
    // --- X7 Ti, R = (6B, 8L) ------------------------------------------------
    // The paper prints (b=6, l=8) for S16 but its own decomposition sums to
    // 5 big cores; we pin our (self-consistent) counts.
    PinnedRow{"S16", Strategy::herad, x7ti_profile(), {6, 8},
              "(5,1B),(1,1B),(6,1B),(4,2B),(3,7L),(4,1L)", 1341.9, 5, 8},
    PinnedRow{"S17", Strategy::twocatac, x7ti_profile(), {6, 8},
              nullptr, 1341.9, 6, 8},
    PinnedRow{"S18", Strategy::fertac, x7ti_profile(), {6, 8},
              "(3,1L),(2,1L),(3,1B),(4,1L),(6,5L),(1,4B),(4,1B)", 1552.3, 6, 8},
    PinnedRow{"S19", Strategy::otac_big, x7ti_profile(), {6, 8},
              "(8,1B),(7,1B),(4,3B),(4,1B)", 2867.0, 6, 0},
    PinnedRow{"S20", Strategy::otac_little, x7ti_profile(), {6, 8},
              "(5,1L),(5,1L),(5,1L),(4,4L),(4,1L)", 3745.1, 0, 8}),
    [](const ::testing::TestParamInfo<PinnedRow>& info) { return info.param.id; });
// clang-format on

TEST(Table2Regression, HeradDominatesAllStrategiesInPeriod)
{
    for (const auto* profile : {&mac_studio_profile(), &x7ti_profile()}) {
        const auto chain = profile_chain(*profile);
        for (const Resources resources : {profile->cores_half, profile->cores_full}) {
            const double optimal = schedule(ScheduleRequest{chain, resources, Strategy::herad})
                                       .solution.period(chain);
            for (const Strategy strategy : kAllStrategies) {
                const ScheduleResult result =
                    schedule(ScheduleRequest{chain, resources, strategy});
                const Solution& solution = result.solution;
                if (result.ok()) {
                    EXPECT_GE(solution.period(chain), optimal - 1e-6)
                        << to_string(strategy) << " on " << profile->name;
                }
            }
        }
    }
}

} // namespace
