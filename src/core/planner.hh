/**
 * @file
 * Deployment planner: the paper's headline use case (Fig. 1, Takeaway
 * #6).  Given a task's latency budget, invert the fitted latency model
 * to a maximum decodable token budget, enumerate candidate strategies
 * (model x precision x token policy x parallel factor), and return the
 * configuration with the highest predicted accuracy that meets the
 * budget — turning the discrete accuracy-latency tradeoff into a
 * continuous dial an autonomous system can set per request.
 */

#ifndef EDGEREASON_CORE_PLANNER_HH
#define EDGEREASON_CORE_PLANNER_HH

#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "core/evaluator.hh"

namespace edgereason {
namespace core {

/** A planning request. */
struct PlanRequest
{
    acc::Dataset dataset = acc::Dataset::MmluRedux;
    Seconds latencyBudget = 5.0;
    /** Prompt length; 0 uses the dataset's mean prompt length. */
    Tokens promptTokens = 0;
    /** Largest parallel scaling factor to consider. */
    int maxParallel = 8;
    /** Questions used to estimate each candidate's accuracy. */
    std::size_t sampleQuestions = 400;
    /** Also consider W4A16-quantized variants. */
    bool allowQuantized = true;
    /**
     * Optional per-question energy budget in joules (0 = none).  A
     * battery-powered robot can cap the joules it will spend on one
     * decision; candidates above the cap are rejected even when they
     * meet the latency budget.
     */
    Joules energyBudgetJ = 0.0;
};

/** The planner's decision. */
struct PlanDecision
{
    strategy::InferenceStrategy strategy;
    /** Max decodable tokens the latency model allows for the budget. */
    Tokens maxTokenBudget = 0;
    StrategyReport predicted;
    /** All feasible candidates considered, best first. */
    std::vector<StrategyReport> candidates;
};

/**
 * Latency-budget-driven strategy selection.
 *
 * Candidate table: a candidate's StrategyReport depends only on the
 * strategy, the dataset and the question count (the evaluator's seed,
 * question limit and cost rates are fixed for its lifetime), never on
 * the budget.  So the planner keeps, for as long as it lives, the
 * report evaluate() returned for each (model, quantized, policy,
 * parallel, dataset, question count) it has evaluated.  A plan() call
 * evaluates only the pre-filter survivors not yet in the table, so a
 * ladder of budgets costs one evaluation per candidate in total.  The
 * prompt length enters only the pre-filter and maxTokensForBudget().
 *
 * plan() is safe to call concurrently on one planner: the table's
 * lookups and inserts are serialized, the evaluation fan-out is not.
 * Two callers may then evaluate the same missing candidate; the first
 * insert wins and both reports are bit-identical anyway.
 */
class DeploymentPlanner
{
  public:
    /** @param evaluator  shared evaluator (borrowed). */
    explicit DeploymentPlanner(StrategyEvaluator &evaluator);

    /**
     * Pick the accuracy-optimal strategy within the latency budget.
     * @return nullopt when no candidate fits (budget below the fastest
     *   model's prefill time).
     */
    std::optional<PlanDecision> plan(const PlanRequest &request);

    /**
     * The latency-to-token mapping of Takeaway #6: max decodable
     * tokens for a model under a budget.
     */
    Tokens maxTokensForBudget(model::ModelId id, bool quantized,
                              Tokens prompt_tokens, Seconds budget,
                              int parallel = 1);

    /**
     * Enumerate the model x precision x token-policy x parallel-factor
     * candidate grid for a request (also the grid the sweep tools and
     * Pareto benches iterate).
     */
    std::vector<strategy::InferenceStrategy>
    candidateStrategies(const PlanRequest &request);

  private:
    /** (model, quantized, policy, parallel, dataset, questions). */
    using CandidateKey = std::tuple<model::ModelId, bool,
                                    strategy::TokenPolicy, int,
                                    acc::Dataset, std::size_t>;

    StrategyEvaluator &evaluator_;
    std::mutex tableMu_; //!< guards the map shape; reports are immutable
    std::map<CandidateKey, StrategyReport> table_;
};

} // namespace core
} // namespace edgereason

#endif // EDGEREASON_CORE_PLANNER_HH
