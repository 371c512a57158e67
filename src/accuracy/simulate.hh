/**
 * @file
 * Monte-Carlo response simulation: per-question sample draws with a
 * Gaussian-copula correlation across parallel samples, parse-failure
 * trap votes for truncated configurations, log-normal output lengths,
 * and plurality voting (the paper's lightweight majority-vote
 * aggregation, Section V-E).
 */

#ifndef EDGEREASON_ACCURACY_SIMULATE_HH
#define EDGEREASON_ACCURACY_SIMULATE_HH

#include <optional>
#include <vector>

#include "accuracy/profile.hh"
#include "common/rng.hh"

namespace edgereason {
namespace acc {

/** Result of one question under one strategy. */
struct QuestionOutcome
{
    bool correct = false;  //!< after vote aggregation
    Tokens maxTokens = 0;  //!< longest sample (drives decode latency)
    double sumTokens = 0;  //!< total generated tokens (drives cost)
    Tokens promptTokens = 0;
    int samples = 1;
};

/** Dataset-level aggregate of a simulated evaluation. */
struct EvalAccuracy
{
    double accuracyPct = 0.0;
    double avgMaxTokens = 0.0;  //!< mean per-question longest sample
    double avgSumTokens = 0.0;  //!< mean per-question total tokens
    double avgPromptTokens = 0.0;
    std::size_t questions = 0;
};

/**
 * A token policy resolved against one profile: everything a simulated
 * question needs that depends on the policy but not on the question.
 * Resolve once per strategy and reuse it across the question loop.
 */
struct ResolvedPolicy
{
    ConfigBehavior cfg;
    /**
     * Mean of the uncapped log-normal length draw.  Under a binding
     * hard cap it is inflated so that the capped mean matches
     * cfg.meanTokens.
     */
    double lengthMean = 0.0;
    Tokens cap = 0;          //!< hard length cap; 0 = uncapped
    double failThresh = 0.0; //!< copula threshold for cfg.parseFail
};

/** Simulates model responses against a question bank. */
class ResponseSimulator
{
  public:
    /**
     * @param profile  behavioural profile (borrowed; must outlive this)
     * @param seed  root seed; simulations are deterministic in it
     */
    ResponseSimulator(const ResponseProfile &profile,
                      std::uint64_t seed = 99);

    /** Resolve @p policy against the profile (see ResolvedPolicy). */
    ResolvedPolicy resolve(const strategy::TokenPolicy &policy) const;

    /** Simulate one question with @p parallel voted samples. */
    QuestionOutcome simulateQuestion(const Question &q,
                                     const strategy::TokenPolicy &policy,
                                     int parallel = 1);

    /**
     * Simulate one question drawing from an explicit stream instead of
     * the simulator's own.  Thread-safe: touches no mutable simulator
     * state, so independent questions can run on separate workers when
     * each derives its stream from the question index.
     */
    QuestionOutcome simulateQuestion(const Question &q,
                                     const strategy::TokenPolicy &policy,
                                     int parallel, Rng &rng) const;

    /**
     * As above, with the policy already resolved by resolve().  The
     * policy overloads resolve and delegate here, so a loop that
     * resolves once draws exactly what per-call resolution would.
     */
    QuestionOutcome simulateQuestion(const Question &q,
                                     const ResolvedPolicy &resolved,
                                     int parallel, Rng &rng) const;

    /** Simulate a question set and aggregate. */
    EvalAccuracy evaluate(const std::vector<Question> &questions,
                          const strategy::TokenPolicy &policy,
                          int parallel = 1);

    /**
     * Override the profile's sample correlation (ablation support:
     * rho = 1 makes parallel samples identical, which should erase all
     * voting gains; see bench_ablation_voting).
     */
    void overrideCorrelation(double rho) { rho_override_ = rho; }

    /** @return the profile being simulated. */
    const ResponseProfile &profile() const { return profile_; }

    /**
     * Fraction of parse failures that land on the question's
     * systematic trap distractor (the rest scatter uniformly over the
     * wrong choices).  Calibrated so that weak truncated configs start
     * degrading under voting around SF=16 (Fig. 9a).
     */
    static constexpr double trapConcentration = 0.35;

  private:
    Tokens drawLength(const ResolvedPolicy &resolved, Rng &rng) const;

    const ResponseProfile &profile_;
    Rng rng_;
    std::optional<double> rho_override_;
};

} // namespace acc
} // namespace edgereason

#endif // EDGEREASON_ACCURACY_SIMULATE_HH
