#pragma once
// Umbrella header and unified scheduling API.
//
// The single entry point is `schedule(const ScheduleRequest&)`: it validates
// the request, dispatches to the strategy implementation, and returns a
// `ScheduleResult` carrying the solution, the binary-search stats, an
// explicit error status, and the solve latency. The old per-strategy free
// functions (`herad`, `fertac`, `otac`, `twocatac`) are gone -- the
// strategy implementations live in `core::detail` and are reachable only
// through this API; see docs/SOLVER_SERVICE.md for the batched, caching
// solver service built on top of it.

#include "core/brute_force.hpp"
#include "core/chain.hpp"
#include "core/energy.hpp"
#include "core/fertac.hpp"
#include "core/greedy_common.hpp"
#include "core/herad.hpp"
#include "core/otac.hpp"
#include "core/power.hpp"
#include "core/solution.hpp"
#include "core/twocatac.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace amp::core {

/// Every strategy evaluated in the paper.
enum class Strategy { herad, twocatac, fertac, otac_big, otac_little };

inline constexpr Strategy kAllStrategies[] = {Strategy::herad, Strategy::twocatac,
                                              Strategy::fertac, Strategy::otac_big,
                                              Strategy::otac_little};

/// Display name in the paper's notation ("HeRAD", "OTAC (B)", ...).
[[nodiscard]] constexpr const char* to_string(Strategy strategy) noexcept
{
    switch (strategy) {
    case Strategy::herad: return "HeRAD";
    case Strategy::twocatac: return "2CATAC";
    case Strategy::fertac: return "FERTAC";
    case Strategy::otac_big: return "OTAC (B)";
    case Strategy::otac_little: return "OTAC (L)";
    }
    return "?";
}

/// Canonical machine key; unlike to_string, round-trips through
/// parse_strategy. Used by the bench JSON reports and the solver-service
/// metric labels.
[[nodiscard]] constexpr const char* to_key(Strategy strategy) noexcept
{
    switch (strategy) {
    case Strategy::herad: return "herad";
    case Strategy::twocatac: return "2catac";
    case Strategy::fertac: return "fertac";
    case Strategy::otac_big: return "otac-b";
    case Strategy::otac_little: return "otac-l";
    }
    return "?";
}

/// parse_strategy failure: the name matched no strategy. Derives from
/// std::invalid_argument so pre-existing handlers keep working; `name()`
/// carries the offending spelling.
class StrategyParseError : public std::invalid_argument {
public:
    explicit StrategyParseError(std::string name);
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    std::string name_;
};

/// Parses a strategy name, case-insensitively and ignoring spaces: every
/// to_key spelling ("herad", "2catac", "fertac", "otac-b", "otac-l"), the
/// paper display names ("HeRAD", "OTAC (B)", ...) and the legacy aliases
/// ("twocatac", "otac_big", "otac_little"). Returns nullopt on anything
/// else.
[[nodiscard]] std::optional<Strategy> try_parse_strategy(std::string_view name) noexcept;

/// Throwing form of try_parse_strategy: raises StrategyParseError (never a
/// silent default) when the name matches no strategy.
[[nodiscard]] Strategy parse_strategy(const std::string& name);

/// What a solve optimizes (docs/ENERGY.md). min_period is the paper's
/// objective: the smallest achievable period (with each strategy's own
/// secondary objective). min_energy_under_period minimizes the active
/// energy_per_item (core/power.hpp) subject to period <= target_period;
/// every strategy has an energy-aware variant behind the same entry point
/// (EnergyHeRAD is exact, the greedy variants are heuristics, the OTAC
/// variants reduce to feasibility at the target).
enum class Objective : std::uint8_t { min_period = 0, min_energy_under_period = 1 };

[[nodiscard]] constexpr const char* to_string(Objective objective) noexcept
{
    switch (objective) {
    case Objective::min_period: return "min_period";
    case Objective::min_energy_under_period: return "min_energy_under_period";
    }
    return "?";
}

/// Strategy knobs, unified across all five strategies. Strategies ignore
/// the fields that do not apply to them (FERTAC reads only `preference`,
/// HeRAD only the other two, OTAC/2CATAC none), so one options value can
/// drive a whole request grid. The objective block at the bottom applies to
/// every strategy: with min_energy_under_period, `target_period` must be
/// strictly positive (invalid_request otherwise) and `power` parameterizes
/// the energy being minimized.
struct ScheduleOptions {
    /// HeRAD: merge consecutive replicable same-type stages (period-neutral).
    bool merge_stages = true;
    /// HeRAD: sound lower-bound break on the stage-start loop.
    bool prune = true;
    /// FERTAC: which core type each stage is offered first.
    FertacPreference preference = FertacPreference::little_first;

    // -- objective (docs/ENERGY.md) ---------------------------------------
    /// What to optimize; min_period ignores the two fields below.
    Objective objective = Objective::min_period;
    /// Period bound for min_energy_under_period (same unit as the task
    /// weights); must be > 0 for that objective.
    double target_period = 0.0;
    /// Power model the energy objective minimizes against.
    PowerModel power{};

    [[nodiscard]] constexpr bool operator==(const ScheduleOptions&) const noexcept = default;

    /// The HeRAD view of these options.
    [[nodiscard]] constexpr HeradOptions herad() const noexcept
    {
        return {.merge_stages = merge_stages, .prune = prune};
    }

    /// Dense encoding of the boolean/enum options for cache keys
    /// (svc::SolverService). Widened to 16 bits: the original 8-bit
    /// encoding had 4 of 8 bits in use, and packing the objective (and any
    /// future flags) into the remaining nibble would have silently aliased
    /// cache entries once it overflowed. The continuous objective
    /// parameters (target_period, power) do NOT fit in bit flags -- they
    /// are carried by energy_fingerprint() in a separate key field.
    [[nodiscard]] constexpr std::uint16_t key_bits() const noexcept
    {
        return static_cast<std::uint16_t>(
            (merge_stages ? 1u : 0u) | (prune ? 2u : 0u)
            | (preference == FertacPreference::big_first ? 8u : 0u)
            | (objective == Objective::min_energy_under_period ? 16u : 0u));
    }

    /// Digest of the continuous objective parameters for cache identity:
    /// 0 for min_period requests (which ignore them), otherwise a
    /// splitmix64 chain over target_period and the power model, so two
    /// energy solves differing only in target or watts never share a cache
    /// entry (svc::CacheKey::energy).
    [[nodiscard]] std::uint64_t energy_fingerprint() const noexcept;
};

/// Warm-start hint for resize re-solves (the autoscaling control loop,
/// docs/AUTOSCALING.md): carry the DP frontier retained by a previous HeRAD
/// solve of the SAME chain and the solver answers a changed resource vector
/// incrementally -- a shrink by a pure backwalk, a grow by computing only
/// the new budget cells -- with a solution bit-identical to the cold solve.
/// The hint is NOT part of the cache identity (svc::key_of): it changes
/// how fast the answer is computed, never what it is. Non-HeRAD strategies
/// and mismatched frontiers fall back to the cold solve transparently.
struct WarmStart {
    /// Frontier from a previous solve (ScheduleResult::frontier); null on
    /// the first solve of a control loop.
    std::shared_ptr<const HeradFrontier> frontier;
    /// Retain a frontier on the result even when `frontier` is null (or no
    /// longer matches), so the NEXT re-solve can warm-start. Implied by a
    /// non-null `frontier`.
    bool keep_frontier = false;

    /// True when the hint asks for warm-start handling at all.
    [[nodiscard]] bool engaged() const noexcept { return frontier != nullptr || keep_frontier; }
};

/// One scheduling query: solve `chain` on resources R = (b, l) with
/// `strategy`. OTAC (B) / OTAC (L) ignore the cores of the other type, as
/// in the paper.
struct ScheduleRequest {
    TaskChain chain;
    Resources resources;
    Strategy strategy = Strategy::herad;
    ScheduleOptions options{};

    /// Warm-start hint; never part of the cache identity.
    WarmStart warm{};
};

/// Explicit failure signal. The old API signalled failure with an empty
/// Solution (or an exception), which conflated "the request makes no sense"
/// with "no valid schedule exists within the budget".
enum class ScheduleError : std::uint8_t {
    ok = 0,
    /// The solver ran but produced no valid schedule within the budget.
    infeasible,
    /// The request itself is malformed: empty chain, negative or all-zero
    /// resource vector, or an OTAC variant with zero cores of its type.
    invalid_request,
    /// The solver service was stopped (svc::SolverService::stop) before
    /// the solver ran. Unlike infeasible this says nothing about the chain.
    rejected,
};

[[nodiscard]] constexpr const char* to_string(ScheduleError error) noexcept
{
    switch (error) {
    case ScheduleError::ok: return "ok";
    case ScheduleError::infeasible: return "infeasible";
    case ScheduleError::invalid_request: return "invalid_request";
    case ScheduleError::rejected: return "rejected";
    }
    return "?";
}

/// Outcome of one request. `solution` is empty unless `error == ok`.
struct ScheduleResult {
    Solution solution;
    ScheduleStats stats; ///< binary-search telemetry (zero for HeRAD)
    ScheduleError error = ScheduleError::ok;
    bool cache_hit = false;  ///< set by svc::SolverService on cache hits
    std::uint64_t solve_ns = 0; ///< wall time of the solve (or cache lookup)

    /// DP frontier for warm-starting the next re-solve. Set only for HeRAD
    /// requests with an engaged WarmStart hint; a frontier is O(n * b * l)
    /// cells, so svc::SolverService strips it from cached copies (a cache
    /// hit returns none -- keep the one you already hold, it still matches).
    std::shared_ptr<const HeradFrontier> frontier;
    /// True when the solve reused the hint's frontier (backwalk or
    /// extension) instead of running the full recurrence.
    bool warm_start = false;

    [[nodiscard]] bool ok() const noexcept { return error == ScheduleError::ok; }
};

/// Unified entry point: validates, dispatches, never throws. Infeasibility
/// and malformed requests are reported through `ScheduleResult::error`.
[[nodiscard]] ScheduleResult schedule(const ScheduleRequest& request);

/// Thin convenience wrapper for one-off solves: returns just the solution,
/// empty on any error (use the request form to distinguish infeasible from
/// invalid).
[[nodiscard]] Solution schedule(Strategy strategy, const TaskChain& chain, Resources resources);

} // namespace amp::core
