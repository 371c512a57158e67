#include "accuracy/simulate.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/distributions.hh"
#include "common/logging.hh"

namespace edgereason {
namespace acc {

ResponseSimulator::ResponseSimulator(const ResponseProfile &profile,
                                     std::uint64_t seed)
    : profile_(profile),
      rng_(seed, std::string("simulate/") +
                     model::modelName(profile.modelId()) +
                     (profile.quantized() ? "/w4/" : "/fp16/") +
                     datasetName(profile.dataset()))
{
}

ResolvedPolicy
ResponseSimulator::resolve(const strategy::TokenPolicy &policy) const
{
    ResolvedPolicy r;
    r.cfg = profile_.resolve(policy);
    r.lengthMean = r.cfg.meanTokens;
    // The behaviour's policy, not the request's: a profile without a
    // Base anchor resolves Base to its longest anchor, which may be
    // capped.
    const strategy::TokenPolicy &pol = r.cfg.policy;
    if (pol.isHardCapped() && pol.budget > 0) {
        r.cap = pol.budget;
        if (r.lengthMean < r.cap) {
            // Inflate the uncapped mean so the capped mean matches the
            // published average.
            r.lengthMean = solveLogNormalMeanForCap(
                r.lengthMean, profile_.lengthCv(),
                static_cast<double>(r.cap));
        }
    }
    const double fail = r.cfg.parseFail;
    r.failThresh = fail <= 0.0 ? -40.0
        : (fail >= 1.0 ? 40.0 : normInv(fail));
    return r;
}

Tokens
ResponseSimulator::drawLength(const ResolvedPolicy &resolved,
                              Rng &rng) const
{
    const double cv = profile_.lengthCv();
    const double mean = resolved.lengthMean;
    double len = rng.logNormalMeanStd(std::max(4.0, mean),
                                      cv * std::max(4.0, mean));
    if (resolved.cap > 0)
        len = std::min(len, static_cast<double>(resolved.cap));
    return std::max<Tokens>(4, static_cast<Tokens>(std::llround(len)));
}

QuestionOutcome
ResponseSimulator::simulateQuestion(const Question &q,
                                    const strategy::TokenPolicy &policy,
                                    int parallel)
{
    return simulateQuestion(q, policy, parallel, rng_);
}

QuestionOutcome
ResponseSimulator::simulateQuestion(const Question &q,
                                    const strategy::TokenPolicy &policy,
                                    int parallel, Rng &rng) const
{
    return simulateQuestion(q, resolve(policy), parallel, rng);
}

QuestionOutcome
ResponseSimulator::simulateQuestion(const Question &q,
                                    const ResolvedPolicy &resolved,
                                    int parallel, Rng &rng) const
{
    fatal_if(parallel < 1, "parallel factor must be >= 1");
    const ConfigBehavior &cfg = resolved.cfg;
    const double p = profile_.sampleCorrectProb(cfg, q.difficulty);
    const double rho = rho_override_.value_or(
        profile_.sampleCorrelation());
    const int choices = profile_.info().choices;

    QuestionOutcome out;
    out.promptTokens = q.promptTokens;
    out.samples = parallel;

    // Gaussian copula: question-level latents shared by all samples,
    // mixed with per-sample noise by rho.  Every stochastic aspect of
    // a sample (correctness, parseability, which wrong answer) runs
    // through the copula so that rho = 1 makes parallel samples fully
    // identical (the voting ablation relies on this).
    const double z_corr = rng.gaussian(0.0, 1.0);
    const double z_fail = rng.gaussian(0.0, 1.0);
    const double z_wrong = rng.gaussian(0.0, 1.0);
    const double thresh =
        p <= 0.0 ? -40.0 : (p >= 1.0 ? 40.0 : normInv(p));
    const double fail_thresh = resolved.failThresh;
    const double sq_rho = std::sqrt(rho);
    const double sq_com = std::sqrt(1.0 - rho);

    // Votes: choice index for MCQ; for free-form, 0 means the correct
    // answer and distinct negatives are non-matching wrong answers.
    std::map<int, int> votes;
    for (int s = 0; s < parallel; ++s) {
        const double latent = sq_rho * z_corr +
            sq_com * rng.gaussian(0.0, 1.0);
        const bool correct_sample = latent <= thresh;
        const bool invalid = sq_rho * z_fail +
            sq_com * rng.gaussian(0.0, 1.0) <= fail_thresh;
        const double wrong_u = normCdf(
            sq_rho * z_wrong + sq_com * rng.gaussian(0.0, 1.0));

        const Tokens len = drawLength(resolved, rng);
        out.maxTokens = std::max(out.maxTokens, len);
        out.sumTokens += static_cast<double>(len);

        // Wrong-choice selection from the correlated uniform.
        const auto wrong_choice = [&](double u) {
            int w = std::min(choices - 2,
                             static_cast<int>(u * (choices - 1)));
            if (w >= q.correctChoice)
                ++w;
            return w;
        };

        int vote;
        if (choices > 1) {
            if (invalid) {
                // Truncated outputs are unparseable.  Extraction
                // latches onto the question's systematic trap
                // distractor part of the time and otherwise yields a
                // (correlated) wrong choice; the systematic component
                // is what makes voting degrade for weak truncated
                // configs at large scaling factors (Fig. 9a).
                vote = wrong_u < trapConcentration
                    ? q.trapChoice
                    : wrong_choice(
                          (wrong_u - trapConcentration) /
                          (1.0 - trapConcentration));
            } else if (correct_sample) {
                vote = q.correctChoice;
            } else {
                vote = wrong_choice(wrong_u);
            }
        } else {
            // Free-form: wrong/invalid answers are pairwise distinct
            // across samples unless fully correlated, in which case
            // they repeat the same (wrong) answer.
            if (!invalid && correct_sample)
                vote = 0;
            else
                vote = rho >= 1.0 ? -1 : -(s + 1);
        }
        ++votes[vote];
    }

    // Plurality with random tie-break.
    int best_count = 0;
    for (const auto &[v, c] : votes)
        best_count = std::max(best_count, c);
    std::vector<int> leaders;
    for (const auto &[v, c] : votes) {
        if (c == best_count)
            leaders.push_back(v);
    }
    const int winner = leaders[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(leaders.size()) -
                               1))];
    const int correct_vote = choices > 1 ? q.correctChoice : 0;
    out.correct = winner == correct_vote;
    return out;
}

EvalAccuracy
ResponseSimulator::evaluate(const std::vector<Question> &questions,
                            const strategy::TokenPolicy &policy,
                            int parallel)
{
    fatal_if(questions.empty(), "evaluate: empty question set");
    const ResolvedPolicy resolved = resolve(policy);
    EvalAccuracy agg;
    agg.questions = questions.size();
    double correct = 0.0;
    for (const auto &q : questions) {
        const QuestionOutcome o =
            simulateQuestion(q, resolved, parallel, rng_);
        correct += o.correct ? 1.0 : 0.0;
        agg.avgMaxTokens += static_cast<double>(o.maxTokens);
        agg.avgSumTokens += o.sumTokens;
        agg.avgPromptTokens += static_cast<double>(o.promptTokens);
    }
    const double n = static_cast<double>(questions.size());
    agg.accuracyPct = 100.0 * correct / n;
    agg.avgMaxTokens /= n;
    agg.avgSumTokens /= n;
    agg.avgPromptTokens /= n;
    return agg;
}

} // namespace acc
} // namespace edgereason
