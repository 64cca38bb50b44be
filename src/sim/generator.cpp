#include "sim/generator.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace amp::sim {

core::TaskChain generate_chain(const GeneratorConfig& config, Rng& rng)
{
    if (config.num_tasks < 1)
        throw std::invalid_argument{"generate_chain: num_tasks must be >= 1"};
    if (config.weight_min < 1 || config.weight_max < config.weight_min)
        throw std::invalid_argument{"generate_chain: invalid weight interval"};
    if (config.slowdown_min < 1.0 || config.slowdown_max < config.slowdown_min)
        throw std::invalid_argument{"generate_chain: invalid slowdown interval"};
    if (config.stateless_ratio < 0.0 || config.stateless_ratio > 1.0)
        throw std::invalid_argument{"generate_chain: stateless_ratio must be in [0, 1]"};

    const int n = config.num_tasks;
    std::vector<core::TaskDesc> tasks(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto& task = tasks[static_cast<std::size_t>(i)];
        char name[16] = "tau";
        task.name.assign(name, std::to_chars(name + 3, std::end(name), i + 1).ptr);
        switch (config.distribution) {
        case WeightDistribution::uniform:
            task.w_big =
                static_cast<double>(rng.uniform_int(config.weight_min, config.weight_max));
            break;
        case WeightDistribution::bimodal: {
            const double base =
                static_cast<double>(rng.uniform_int(config.weight_min, config.weight_max));
            task.w_big = rng.bernoulli(config.bimodal_heavy_fraction) ? base * 10.0 : base;
            break;
        }
        case WeightDistribution::lognormal: {
            // Median at the interval midpoint, sigma ~ one octave, clamped
            // below at weight_min (weights must stay positive).
            const double median = (config.weight_min + config.weight_max) / 2.0;
            task.w_big = std::max(static_cast<double>(config.weight_min),
                                  std::ceil(median * std::exp(0.7 * rng.normal())));
            break;
        }
        }
        const double slowdown = rng.uniform_real(config.slowdown_min, config.slowdown_max);
        task.w_little = std::ceil(task.w_big * slowdown);
    }

    // Pick exactly round(SR * n) replicable positions via a partial
    // Fisher-Yates shuffle for an unbiased subset.
    const int replicable = static_cast<int>(std::lround(config.stateless_ratio * n));
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    for (int i = 0; i < replicable; ++i) {
        const auto j = static_cast<std::size_t>(rng.uniform_int(i, n - 1));
        std::swap(order[static_cast<std::size_t>(i)], order[j]);
        tasks[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])].replicable = true;
    }

    return core::TaskChain{std::move(tasks)};
}

} // namespace amp::sim
