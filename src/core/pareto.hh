/**
 * @file
 * Pareto-frontier analysis over strategy reports (Fig. 7's operational
 * regimes and Fig. 8's cost guidance): which configuration wins at each
 * latency or cost budget, and where the crossovers fall.
 */

#ifndef EDGEREASON_CORE_PARETO_HH
#define EDGEREASON_CORE_PARETO_HH

#include <functional>
#include <vector>

#include "core/evaluator.hh"

namespace edgereason {
namespace core {

/** The x-axis metric a frontier is computed against. */
enum class FrontierAxis { Latency, Cost, Tokens };

/**
 * Evaluate a whole strategy grid, fanning independent evaluations out
 * over the thread pool, one strategy per block (the hot layer behind
 * the Fig. 7-8 frontiers and the Table X-XIII sweeps).  Each thread
 * starts on its own contiguous slice of the grid, so the lazy
 * per-model builds of a cold evaluator overlap instead of queueing.
 * Reports come back in grid order and are bit-identical to a serial
 * evaluation at any thread count (see StrategyEvaluator's determinism
 * contract).
 */
std::vector<StrategyReport>
sweepStrategies(StrategyEvaluator &evaluator,
                const std::vector<strategy::InferenceStrategy> &grid,
                acc::Dataset dataset, std::size_t question_limit = 0);

/** @return the axis value of a report. */
double axisValue(const StrategyReport &r, FrontierAxis axis);

/**
 * Pareto-optimal subset: reports for which no other report has both a
 * lower (or equal) axis value and strictly higher accuracy.  Returned
 * sorted by the axis value.
 */
std::vector<StrategyReport>
paretoFrontier(std::vector<StrategyReport> reports, FrontierAxis axis);

/** One operational regime: a budget interval and its winning strategy. */
struct Regime
{
    double budgetLo = 0.0;
    double budgetHi = 0.0;
    StrategyReport best;
};

/**
 * Partition a budget axis into regimes (Section V-A: sub-5 s is 1.5B
 * territory, 15-30 s non-reasoning 8B, >30 s DSR1-Qwen-14B).  For each
 * budget in @p budgets the winner is the highest-accuracy report whose
 * axis value fits; consecutive budgets with the same winner merge.
 * Budgets with no feasible strategy are skipped.
 */
std::vector<Regime> budgetRegimes(const std::vector<StrategyReport> &all,
                                  const std::vector<double> &budgets,
                                  FrontierAxis axis);

} // namespace core
} // namespace edgereason

#endif // EDGEREASON_CORE_PARETO_HH
