/**
 * @file
 * Strategy evaluator: combines the behavioural accuracy simulation with
 * the fitted analytical performance models to produce, per inference
 * strategy and benchmark, the paper's four reported metrics — accuracy,
 * average decoded tokens, average latency, and cost per million tokens
 * (Section V's evaluation protocol).
 */

#ifndef EDGEREASON_CORE_EVALUATOR_HH
#define EDGEREASON_CORE_EVALUATOR_HH

#include <map>
#include <memory>
#include <shared_mutex>

#include "accuracy/simulate.hh"
#include "core/registry.hh"
#include "cost/cost_model.hh"
#include "strategy/policy.hh"

namespace edgereason {
namespace core {

/** Aggregate result of evaluating one strategy on one benchmark. */
struct StrategyReport
{
    strategy::InferenceStrategy strat;
    acc::Dataset dataset = acc::Dataset::MmluRedux;

    double accuracyPct = 0.0;
    double avgTokens = 0.0;     //!< mean longest-sample tokens/question
    double avgSumTokens = 0.0;  //!< mean total generated tokens/question
    Seconds avgLatency = 0.0;   //!< mean end-to-end seconds/question
    Joules avgEnergy = 0.0;     //!< mean joules/question
    cost::CostBreakdown cost;   //!< per-1M-generated-tokens economics
    std::size_t questions = 0;
};

/** Evaluation knobs. */
struct EvalOptions
{
    /** 0 = the full benchmark; otherwise a deterministic subset. */
    std::size_t questionLimit = 0;
    std::uint64_t seed = 99;
    cost::CostRates rates;
};

/**
 * Evaluates inference strategies against benchmarks.
 *
 * Concurrency model: evaluate() draws every question from its own RNG
 * stream derived from (seed, dataset, question index), so the result is
 * bit-identical whether the question loop runs serially or fans out
 * over the work-stealing pool — and independent evaluate() calls can
 * themselves run on separate workers (the planner's candidate sweep
 * does).  Streams exclude the strategy on purpose: common random
 * numbers pair the question-level latents across strategies so accuracy
 * gaps carry low Monte-Carlo variance.  Everything fixed for a strategy
 * (the resolved policy with its capped-length mean, the registry entry,
 * perf models, batch decode model and power model) is resolved once,
 * before the question fan-out, so workers take no lock per question.
 * The profile/bank/batch-model memo caches are shared-mutex guarded;
 * cached objects are immutable after construction and returned by
 * stable reference.
 */
class StrategyEvaluator
{
  public:
    /** @param registry  shared model registry (borrowed). */
    explicit StrategyEvaluator(ModelRegistry &registry,
                               EvalOptions opts = {});

    /** Run the full evaluation of one strategy. */
    StrategyReport evaluate(const strategy::InferenceStrategy &strat,
                            acc::Dataset dataset,
                            std::size_t question_limit = 0);

    /** @return cached behavioural profile for a combination. */
    const acc::ResponseProfile &profile(model::ModelId id,
                                        acc::Dataset dataset,
                                        bool quantized);

    /** @return cached question bank for a dataset. */
    const acc::QuestionBank &bank(acc::Dataset dataset);

    /**
     * Batch-adjusted decode latency model: TBT measured at two context
     * lengths with the given decode batch, solved for (m, n).
     */
    perf::DecodeLatencyModel decodeModelAtBatch(model::ModelId id,
                                                bool quantized,
                                                int batch);

    /**
     * Analytic per-question latency under a strategy (prefill at batch
     * 1 plus batched decode of @p output_tokens).
     */
    Seconds questionLatency(const strategy::InferenceStrategy &strat,
                            Tokens input_tokens, Tokens output_tokens);

    /** Analytic per-question energy under a strategy. */
    Joules questionEnergy(const strategy::InferenceStrategy &strat,
                          Tokens input_tokens, Tokens output_tokens);

    /** @return the registry. */
    ModelRegistry &registry() { return registry_; }
    /** @return evaluation options. */
    const EvalOptions &options() const { return opts_; }

  private:
    ModelRegistry &registry_;
    EvalOptions opts_;
    std::shared_mutex profilesMu_;
    std::map<std::tuple<model::ModelId, acc::Dataset, bool>,
             std::unique_ptr<acc::ResponseProfile>> profiles_;
    std::shared_mutex banksMu_;
    std::map<acc::Dataset, std::unique_ptr<acc::QuestionBank>> banks_;
    std::shared_mutex batchModelsMu_;
    std::map<std::tuple<model::ModelId, bool, int>,
             perf::DecodeLatencyModel> batch_models_;
};

} // namespace core
} // namespace edgereason

#endif // EDGEREASON_CORE_EVALUATOR_HH
