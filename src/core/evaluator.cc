#include "core/evaluator.hh"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "hw/power.hh"

namespace edgereason {
namespace core {

StrategyEvaluator::StrategyEvaluator(ModelRegistry &registry,
                                     EvalOptions opts)
    : registry_(registry), opts_(opts)
{
}

const acc::ResponseProfile &
StrategyEvaluator::profile(model::ModelId id, acc::Dataset dataset,
                           bool quantized)
{
    const auto key = std::make_tuple(id, dataset, quantized);
    {
        std::shared_lock<std::shared_mutex> g(profilesMu_);
        auto it = profiles_.find(key);
        if (it != profiles_.end())
            return *it->second;
    }
    // Build under the exclusive lock: same-key racers wait and reuse.
    std::unique_lock<std::shared_mutex> g(profilesMu_);
    auto it = profiles_.find(key);
    if (it == profiles_.end()) {
        it = profiles_.emplace(key,
            std::make_unique<acc::ResponseProfile>(id, dataset,
                                                   quantized)).first;
    }
    return *it->second;
}

const acc::QuestionBank &
StrategyEvaluator::bank(acc::Dataset dataset)
{
    {
        std::shared_lock<std::shared_mutex> g(banksMu_);
        auto it = banks_.find(dataset);
        if (it != banks_.end())
            return *it->second;
    }
    std::unique_lock<std::shared_mutex> g(banksMu_);
    auto it = banks_.find(dataset);
    if (it == banks_.end()) {
        it = banks_.emplace(dataset,
            std::make_unique<acc::QuestionBank>(dataset,
                                                opts_.seed)).first;
    }
    return *it->second;
}

perf::DecodeLatencyModel
StrategyEvaluator::decodeModelAtBatch(model::ModelId id, bool quantized,
                                      int batch)
{
    const auto key = std::make_tuple(id, quantized, batch);
    {
        std::shared_lock<std::shared_mutex> g(batchModelsMu_);
        auto it = batch_models_.find(key);
        if (it != batch_models_.end())
            return it->second;
    }

    // The two-point solve only calls the engine's const query surface;
    // run it outside the lock so distinct keys solve concurrently.
    auto &eng = registry_.engineFor(id, quantized);
    const Tokens c0 = 512;
    const Tokens c1 = 4096;
    const Seconds t0 = eng.decodeStepLatency(c0, batch);
    const Seconds t1 = eng.decodeStepLatency(c1, batch);
    perf::DecodeLatencyModel m;
    m.m = (t1 - t0) / static_cast<double>(c1 - c0);
    m.n = t0 - m.m * static_cast<double>(c0);
    std::unique_lock<std::shared_mutex> g(batchModelsMu_);
    batch_models_.emplace(key, m);
    return m;
}

namespace {

// The per-question cost formulas.  Both the evaluate() loop (inputs
// looked up once per strategy) and the public per-call queries (inputs
// looked up per call) go through these, so there is one copy of each.

Seconds
latencyOf(const perf::CharacterizationResult &pm,
          const perf::DecodeLatencyModel &dm, Tokens input_tokens,
          Tokens output_tokens)
{
    return pm.latency.prefill(input_tokens) +
        dm(input_tokens, output_tokens);
}

Joules
energyOf(const perf::CharacterizationResult &pm,
         const perf::DecodeLatencyModel &dm, const hw::PowerModel &power,
         const hw::PowerProfile &profile, int parallel,
         Tokens input_tokens, Tokens output_tokens)
{
    Joules total = pm.prefillPower(input_tokens) *
        pm.latency.prefill(input_tokens);
    if (output_tokens <= 0)
        return total;

    // Batched decode energy: integrate P(o, B) over segments of the
    // affine batched TBT model.
    const int segments = 8;
    Tokens prev = 0;
    for (int s = 1; s <= segments; ++s) {
        const Tokens upto = output_tokens * s / segments;
        const Tokens steps = upto - prev;
        if (steps <= 0)
            continue;
        const Tokens o_mid = std::max<Tokens>(1, (prev + upto) / 2);
        const Tokens ctx_mid = input_tokens + o_mid;
        const Watts p = power.decode(profile, o_mid, parallel);
        total += p * dm.tbt(ctx_mid) * static_cast<double>(steps);
        prev = upto;
    }
    return total;
}

} // namespace

Seconds
StrategyEvaluator::questionLatency(
    const strategy::InferenceStrategy &strat, Tokens input_tokens,
    Tokens output_tokens)
{
    return latencyOf(registry_.perfFor(strat.model, strat.quantized),
                     decodeModelAtBatch(strat.model, strat.quantized,
                                        strat.parallel),
                     input_tokens, output_tokens);
}

Joules
StrategyEvaluator::questionEnergy(
    const strategy::InferenceStrategy &strat, Tokens input_tokens,
    Tokens output_tokens)
{
    const auto &entry = registry_.entry(strat.model, strat.quantized);
    return energyOf(registry_.perfFor(strat.model, strat.quantized),
                    decodeModelAtBatch(strat.model, strat.quantized,
                                       strat.parallel),
                    hw::PowerModel(entry.engine->config().powerMode),
                    entry.calib.power, strat.parallel, input_tokens,
                    output_tokens);
}

StrategyReport
StrategyEvaluator::evaluate(const strategy::InferenceStrategy &strat,
                            acc::Dataset dataset,
                            std::size_t question_limit)
{
    StrategyReport rep;
    rep.strat = strat;
    rep.dataset = dataset;

    const acc::ResponseProfile &prof =
        profile(strat.model, dataset, strat.quantized);
    const acc::QuestionBank &qb = bank(dataset);
    const std::size_t limit = question_limit ? question_limit
                                             : opts_.questionLimit;
    const std::vector<acc::Question> questions =
        limit ? qb.subset(limit) : qb.questions();

    // Resolve everything that is fixed for the strategy once, before
    // the fan-out: the policy's length/failure parameters and the cost
    // models.  Workers then touch no lock and no memo.
    const acc::ResponseSimulator sim(prof, opts_.seed);
    const acc::ResolvedPolicy resolved = sim.resolve(strat.policy);
    const ModelEntry &entry = registry_.entry(strat.model, strat.quantized);
    const perf::CharacterizationResult &pm =
        registry_.perfFor(strat.model, strat.quantized);
    const perf::DecodeLatencyModel dm =
        decodeModelAtBatch(strat.model, strat.quantized, strat.parallel);
    const hw::PowerModel power(entry.engine->config().powerMode);

    // Every question draws from its own stream derived from the seed,
    // the dataset and the question index, so the fanned-out loop is
    // bit-identical to the serial one at any thread count.  Streams
    // are deliberately strategy-independent: common random numbers
    // pair the question-level latents across strategies, so accuracy
    // *gaps* between configurations (the paper's takeaways) carry far
    // less Monte-Carlo noise than independent draws would.
    const std::string stream_base =
        std::string(acc::datasetName(dataset)) + "/q";

    struct PerQuestion
    {
        double correct = 0.0;
        double maxTokens = 0.0;
        double sumTokens = 0.0;
        Seconds latency = 0.0;
        Joules energy = 0.0;
    };
    std::vector<PerQuestion> per_q(questions.size());
    ThreadPool::global().parallelFor(
        questions.size(), [&](std::size_t i) {
            const acc::Question &q = questions[i];
            Rng rng(opts_.seed, stream_base + std::to_string(i));
            const acc::QuestionOutcome o = sim.simulateQuestion(
                q, resolved, strat.parallel, rng);
            PerQuestion &r = per_q[i];
            r.correct = o.correct ? 1.0 : 0.0;
            r.maxTokens = static_cast<double>(o.maxTokens);
            r.sumTokens = o.sumTokens;
            r.latency = latencyOf(pm, dm, q.promptTokens, o.maxTokens);
            r.energy = energyOf(pm, dm, power, entry.calib.power,
                                strat.parallel, q.promptTokens,
                                o.maxTokens);
        });

    // Serial index-order reduction keeps the floating-point sums
    // independent of how the work was scheduled.
    double correct = 0.0;
    double sum_energy = 0.0;
    double sum_latency = 0.0;
    double sum_max_tokens = 0.0;
    double sum_all_tokens = 0.0;
    for (const PerQuestion &r : per_q) {
        correct += r.correct;
        sum_max_tokens += r.maxTokens;
        sum_all_tokens += r.sumTokens;
        sum_latency += r.latency;
        sum_energy += r.energy;
    }

    const double n = static_cast<double>(questions.size());
    rep.questions = questions.size();
    rep.accuracyPct = 100.0 * correct / n;
    rep.avgTokens = sum_max_tokens / n;
    rep.avgSumTokens = sum_all_tokens / n;
    rep.avgLatency = sum_latency / n;
    rep.avgEnergy = sum_energy / n;
    rep.cost = cost::edgeCost(sum_energy, sum_latency, sum_all_tokens,
                              opts_.rates);
    return rep;
}

} // namespace core
} // namespace edgereason
