#include "core/planner.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "accuracy/anchors.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace edgereason {
namespace core {

using model::ModelId;
using strategy::InferenceStrategy;
using strategy::TokenPolicy;

DeploymentPlanner::DeploymentPlanner(StrategyEvaluator &evaluator)
    : evaluator_(evaluator)
{
}

Tokens
DeploymentPlanner::maxTokensForBudget(ModelId id, bool quantized,
                                      Tokens prompt_tokens,
                                      Seconds budget, int parallel)
{
    const auto &pm = evaluator_.registry().perfFor(id, quantized);
    perf::LatencyModel lm = pm.latency;
    lm.decode = evaluator_.decodeModelAtBatch(id, quantized, parallel);
    return lm.maxOutputTokens(prompt_tokens, budget);
}

std::vector<InferenceStrategy>
DeploymentPlanner::candidateStrategies(const PlanRequest &request)
{
    static const Tokens hard_budgets[] = {32, 48, 64, 96, 128, 192,
                                          256, 384, 512, 768, 1024};
    std::vector<InferenceStrategy> out;
    for (ModelId id : model::allModels()) {
        for (bool quant : {false, true}) {
            if (quant && !request.allowQuantized)
                continue;
            if (!acc::hasAnchors(id, request.dataset, quant))
                continue;

            std::vector<TokenPolicy> policies;
            policies.push_back(TokenPolicy::base());
            const auto cat = model::modelCategory(id);
            if (cat != model::ModelCategory::NonReasoning) {
                if (request.dataset == acc::Dataset::MmluRedux &&
                    cat == model::ModelCategory::Reasoning) {
                    policies.push_back(TokenPolicy::noReasoning());
                    policies.push_back(TokenPolicy::soft(128));
                    policies.push_back(TokenPolicy::soft(256));
                }
                for (Tokens n : hard_budgets) {
                    policies.push_back(
                        cat == model::ModelCategory::BudgetAware
                            ? TokenPolicy::l1(n)
                            : TokenPolicy::hard(n));
                }
            }

            for (const auto &policy : policies) {
                for (int par = 1; par <= request.maxParallel; par *= 2) {
                    InferenceStrategy s;
                    s.model = id;
                    s.quantized = quant;
                    s.policy = policy;
                    s.parallel = par;
                    out.push_back(s);
                }
            }
        }
    }
    return out;
}

std::optional<PlanDecision>
DeploymentPlanner::plan(const PlanRequest &request)
{
    fatal_if(!std::isfinite(request.latencyBudget) ||
                 request.latencyBudget <= 0.0,
             "latency budget must be finite and positive, got ",
             request.latencyBudget);
    const Tokens prompt = request.promptTokens > 0
        ? request.promptTokens
        : static_cast<Tokens>(
              acc::datasetInfo(request.dataset).meanPromptTokens);

    // 1. The analytic 2x pre-filter: skip candidates whose expected
    // output length already misses the budget by 2x.  It fans out so
    // a cold evaluator characterizes the models in parallel; the
    // survivors keep candidate order.
    const auto candidates = candidateStrategies(request);
    const auto pass = ThreadPool::global().parallelMap(
        candidates, [&](const InferenceStrategy &cand) -> char {
            const auto &prof = evaluator_.profile(
                cand.model, request.dataset, cand.quantized);
            const Seconds rough = evaluator_.questionLatency(
                cand, prompt,
                static_cast<Tokens>(prof.meanTokens(cand.policy)));
            return rough <= 2.0 * request.latencyBudget;
        });
    std::vector<InferenceStrategy> passing;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (pass[i])
            passing.push_back(candidates[i]);
    }
    const auto keyOf = [&](const InferenceStrategy &s) {
        return CandidateKey{s.model, s.quantized, s.policy, s.parallel,
                            request.dataset, request.sampleQuestions};
    };

    // 2. Evaluate the survivors the table lacks.  Evaluations are
    // independent, so they fan out over the work-stealing pool; map
    // nodes are stable, so the pointers outlive the lock.
    std::vector<const StrategyReport *> reports(passing.size());
    std::vector<InferenceStrategy> missing;
    {
        std::lock_guard<std::mutex> g(tableMu_);
        for (std::size_t i = 0; i < passing.size(); ++i) {
            auto it = table_.find(keyOf(passing[i]));
            if (it != table_.end())
                reports[i] = &it->second;
            else
                missing.push_back(passing[i]);
        }
    }
    auto fresh = ThreadPool::global().parallelMap(
        missing, [&](const InferenceStrategy &cand) {
            return evaluator_.evaluate(cand, request.dataset,
                                       request.sampleQuestions);
        });

    // 3. Insert the new reports serially.
    {
        std::lock_guard<std::mutex> g(tableMu_);
        for (std::size_t i = 0, m = 0; i < passing.size(); ++i) {
            if (!reports[i])
                reports[i] = &table_.emplace(keyOf(passing[i]),
                                             std::move(fresh[m++]))
                                  .first->second;
        }
    }

    // 4. Feasibility in candidate order, so the sort's ties break as
    // in a serial run.
    std::vector<StrategyReport> feasible;
    for (const StrategyReport *rep : reports) {
        if (rep->avgLatency > request.latencyBudget)
            continue;
        if (request.energyBudgetJ > 0.0 &&
            rep->avgEnergy > request.energyBudgetJ)
            continue;
        feasible.push_back(*rep);
    }
    if (feasible.empty())
        return std::nullopt;

    std::sort(feasible.begin(), feasible.end(),
              [](const StrategyReport &a, const StrategyReport &b) {
                  if (a.accuracyPct != b.accuracyPct)
                      return a.accuracyPct > b.accuracyPct;
                  if (a.avgEnergy != b.avgEnergy)
                      return a.avgEnergy < b.avgEnergy;
                  return a.avgLatency < b.avgLatency;
              });

    PlanDecision d;
    d.strategy = feasible.front().strat;
    d.predicted = feasible.front();
    d.maxTokenBudget = maxTokensForBudget(
        d.strategy.model, d.strategy.quantized, prompt,
        request.latencyBudget, d.strategy.parallel);
    d.candidates = std::move(feasible);
    return d;
}

} // namespace core
} // namespace edgereason
