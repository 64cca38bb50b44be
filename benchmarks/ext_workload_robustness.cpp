// Extension bench: robustness of the strategies to the workload shape. The
// paper's generator draws weights uniformly; real chains (Table III) are
// closer to bimodal -- a few decoder-class tasks dominate. This bench runs
// the Table I statistics under uniform, bimodal and lognormal weights.
//
// Flags: --chains=N per scenario (default 250).

#include "common/argparse.hpp"
#include "common/table.hpp"
#include "core/scheduler.hpp"
#include "sim/generator.hpp"
#include "sim/stats.hpp"

#include <cstdio>

int main(int argc, char** argv)
{
    using namespace amp;
    const ArgParse args(argc, argv);
    const int chains = static_cast<int>(args.get_int("chains", 250));

    std::printf("== Extension: strategy quality vs weight distribution ==\n");
    std::printf("(R = (10, 10), SR = 0.5, %d chains per distribution)\n\n", chains);

    TextTable table({"distribution", "2CATAC %opt / avg / max", "FERTAC %opt / avg / max",
                     "OTAC(B) avg"});
    for (const auto& [distribution, label] :
         {std::pair{sim::WeightDistribution::uniform, "uniform [1,100]"},
          std::pair{sim::WeightDistribution::bimodal, "bimodal (15% x10)"},
          std::pair{sim::WeightDistribution::lognormal, "lognormal"}}) {
        Rng rng{0xd157};
        sim::GeneratorConfig config;
        config.distribution = distribution;
        std::vector<double> two;
        std::vector<double> fer;
        std::vector<double> otb;
        for (int c = 0; c < chains; ++c) {
            const auto chain = sim::generate_chain(config, rng);
            const double optimal = core::herad_optimal_period(chain, {10, 10});
            const auto period_of = [&](core::Strategy strategy) {
                return core::schedule(core::ScheduleRequest{chain, {10, 10}, strategy})
                    .solution.period(chain);
            };
            two.push_back(period_of(core::Strategy::twocatac) / optimal);
            fer.push_back(period_of(core::Strategy::fertac) / optimal);
            otb.push_back(core::schedule(core::ScheduleRequest{chain, {10, 0},
                                                               core::Strategy::otac_big})
                              .solution.period(chain)
                          / optimal);
        }
        const auto s2 = sim::summarize_slowdowns(two);
        const auto sf = sim::summarize_slowdowns(fer);
        table.add_row({label,
                       fmt_pct(s2.pct_optimal, 0) + " / " + fmt(s2.average, 3) + " / "
                           + fmt(s2.maximum, 2),
                       fmt_pct(sf.pct_optimal, 0) + " / " + fmt(sf.average, 3) + " / "
                           + fmt(sf.maximum, 2),
                       fmt(sim::mean(otb), 3)});
    }
    std::printf("%s", table.str().c_str());
    std::printf("\nHeavy-tailed weights concentrate the period in few tasks, which makes\n"
                "the heuristics' packing decisions easier -- quality should not collapse.\n");
    return 0;
}
