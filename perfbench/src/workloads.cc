/**
 * @file
 * The three benchmark workloads and their per-layer rungs.  README.md in
 * this directory says why each workload exists and which layers it
 * loads; the constants below are the workload definitions it cites.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <optional>

#include "accuracy/trace_gen.hh"
#include "bench.hh"
#include "common/binio.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "core/edge_reasoning.hh"
#include "engine/journal.hh"
#include "engine/kernels.hh"
#include "engine/request_batch.hh"
#include "engine/scheduler.hh"
#include "engine/server.hh"
#include "fleet/fleet.hh"
#include "hw/soc.hh"
#include "model/calibration.hh"
#include "model/zoo.hh"
#include "perfmodel/characterize.hh"

namespace perfbench {

namespace er = edgereason;
using er::model::ModelId;

namespace {

constexpr er::acc::Dataset kDataset = er::acc::Dataset::MmluRedux;

void
put(std::string &s, const char *name, double v)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s=%.17g", name, v);
    s += buf;
}

bool
allFinite(std::initializer_list<double> xs)
{
    return std::all_of(xs.begin(), xs.end(),
                       [](double x) { return std::isfinite(x); });
}

double
meanOf(const std::vector<double> &xs)
{
    return xs.empty() ? 0.0 : er::mean(xs);
}

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Mean wall time of @p body over @p n calls, in @p scale units/s. */
template <typename F>
double
timePer(std::size_t n, double scale, F &&body)
{
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i)
        body(i);
    return scale * secondsSince(t0) / static_cast<double>(n);
}

// --- pareto_sweep ------------------------------------------------------

/**
 * The paper's own use case, as a closed loop with one caller: (a) sweep
 * the full MMLU-Redux strategy grid and take both Pareto frontiers, then
 * (b) plan the budget ladder.  Loads the pool, accuracy and core; the
 * serving stack stays idle.
 */
class ParetoSweep : public Workload
{
  public:
    ParetoSweep(std::uint64_t seed, bool small)
        : seed_(seed), questions_(small ? 100 : 2000),
          sampleQuestions_(small ? 50 : er::core::PlanRequest{}
                                                .sampleQuestions),
          ladder_(small ? std::vector<double>{2, 10}
                        : std::vector<double>{1, 2, 3, 5, 8, 10, 15, 20,
                                              30, 60})
    {
    }

    void
    setup(Tracer &t) override
    {
        er::core::EdgeReasoningOptions o;
        o.eval.seed = seed_;
        er_ = std::make_unique<er::core::EdgeReasoning>(o);
        grid_ = er_->planner().candidateStrategies(request(ladder_[0]));
        // Lazy set-up every process pays once: characterize each model,
        // build the profiles, the question bank and the batched decode
        // models.  A one-question sweep touches all of them.
        Span s(t, "core.sweepStrategies.warm");
        er::core::sweepStrategies(er_->evaluator(), grid_, kDataset, 1);
    }

    void
    run(Tracer &t, Rep &rep) override
    {
        auto &pool = er::ThreadPool::global();
        const std::uint64_t steals0 = pool.steals();
        const auto t0 = Clock::now();
        {
            Span s(t, "core.sweepStrategies");
            reports_ = er::core::sweepStrategies(er_->evaluator(), grid_,
                                                 kDataset, questions_);
        }
        std::vector<er::core::StrategyReport> by_latency, by_cost;
        {
            Span s(t, "core.paretoFrontier");
            by_latency = er::core::paretoFrontier(
                reports_, er::core::FrontierAxis::Latency);
            by_cost = er::core::paretoFrontier(
                reports_, er::core::FrontierAxis::Cost);
        }
        sweepWallS_ = secondsSince(t0);
        steals_ = pool.steals() - steals0;

        rep.rateWallS = sweepWallS_;
        rep.questionEvals = static_cast<double>(grid_.size() * questions_);
        bool reports_ok = reports_.size() == grid_.size();
        for (const auto &r : reports_) {
            rep.simTokens += r.avgSumTokens * static_cast<double>(r.questions);
            reports_ok = reports_ok && r.questions == questions_ &&
                r.accuracyPct >= 0.0 && r.accuracyPct <= 100.0 &&
                allFinite({r.avgTokens, r.avgSumTokens, r.avgLatency,
                           r.avgEnergy, r.cost.totalPerMTok()});
        }
        rep.check(reports_ok, "sweepStrategies: a report is missing, "
                              "non-finite or out of range");
        rep.check(frontierOk(by_latency, er::core::FrontierAxis::Latency),
                  "paretoFrontier(latency) is unsorted or dominated");
        rep.check(frontierOk(by_cost, er::core::FrontierAxis::Cost),
                  "paretoFrontier(cost) is unsorted or dominated");

        rep.digest.clear();
        for (const auto *front : {&by_latency, &by_cost}) {
            for (const auto &r : *front) {
                rep.digest += "frontier " + r.strat.label();
                put(rep.digest, "acc", r.accuracyPct);
                put(rep.digest, "latency", r.avgLatency);
                put(rep.digest, "usd_per_mtok", r.cost.totalPerMTok());
                rep.digest += "\n";
            }
        }

        feasible_ = 0;
        std::vector<double> acc, latency, energy;
        for (double budget : ladder_) {
            std::optional<er::core::PlanDecision> d;
            const auto c0 = Clock::now();
            {
                Span s(t, "core.DeploymentPlanner::plan");
                d = er_->plan(request(budget));
            }
            rep.callMs.push_back(1e3 * secondsSince(c0));
            const bool ok = d && !d->candidates.empty() &&
                d->predicted.avgLatency <= budget &&
                d->candidates.front().strat.label() == d->strategy.label() &&
                allFinite({d->predicted.accuracyPct,
                           d->predicted.avgLatency,
                           d->predicted.avgEnergy});
            char what[96];
            std::snprintf(what, sizeof what,
                          "plan(%g s): no decision or one over budget",
                          budget);
            rep.check(ok, what);
            if (!d)
                continue;
            feasible_ += d->candidates.size();
            acc.push_back(d->predicted.accuracyPct);
            latency.push_back(d->predicted.avgLatency);
            energy.push_back(d->predicted.avgEnergy);
            rep.digest += "plan " + d->strategy.label();
            put(rep.digest, "budget", budget);
            put(rep.digest, "acc", d->predicted.accuracyPct);
            put(rep.digest, "latency", d->predicted.avgLatency);
            put(rep.digest, "energy", d->predicted.avgEnergy);
            rep.digest += "\n";
        }
        rep.sim = {
            {"sim_plan_accuracy_pct", meanOf(acc), "%", acc.size()},
            {"sim_plan_latency_s", meanOf(latency), "s", latency.size()},
            {"sim_energy_per_query_j", meanOf(energy), "J", energy.size()},
            {"sim_frontier_points", static_cast<double>(by_latency.size()),
             "count", 1},
        };
    }

    void
    layers(Tracer &t, Metrics &out, Rep &checks) override
    {
        auto &ev = er_->evaluator();
        out.push_back({"common.pool.steals", static_cast<double>(steals_),
                       "count", 1});

        // Serial per-question work over the whole grid, drawn from the
        // same per-question streams evaluate() uses and timed in its two
        // halves: the Monte-Carlo draw and the analytic cost.
        const auto questions = ev.bank(kDataset).subset(kSerialQuestions);
        const std::string stream =
            std::string(er::acc::datasetName(kDataset)) + "/q";
        double sim_ns = 0.0, cost_ns = 0.0, sink = 0.0;
        {
            Span s(t, "core.serialQuestionLoop");
            for (const auto &strat : grid_) {
                const er::acc::ResponseSimulator sim(
                    ev.profile(strat.model, kDataset, strat.quantized),
                    seed_);
                for (std::size_t i = 0; i < questions.size(); ++i) {
                    er::Rng rng(seed_, stream + std::to_string(i));
                    const auto a = Clock::now();
                    const auto o = sim.simulateQuestion(
                        questions[i], strat.policy, strat.parallel, rng);
                    const auto b = Clock::now();
                    sink += ev.questionLatency(strat,
                                               questions[i].promptTokens,
                                               o.maxTokens) +
                        ev.questionEnergy(strat, questions[i].promptTokens,
                                          o.maxTokens);
                    sim_ns += nsBetween(a, b);
                    cost_ns += nsBetween(b, Clock::now());
                }
            }
        }
        checks.check(std::isfinite(sink),
                     "serial question loop: non-finite latency or energy");
        const double evals =
            static_cast<double>(grid_.size() * questions.size());
        out.push_back({"accuracy.simulate_question_ns", sim_ns / evals, "ns",
                       static_cast<std::size_t>(evals)});
        out.push_back({"core.question_cost_ns", cost_ns / evals, "ns",
                       static_cast<std::size_t>(evals)});
        const double threads = er::ThreadPool::global().threadCount();
        out.push_back({"common.pool.efficiency",
                       static_cast<double>(grid_.size() * questions_) *
                           1e-9 * (sim_ns + cost_ns) / evals /
                           (threads * sweepWallS_),
                       "ratio", 1});

        {
            Span s(t, "accuracy.ResponseProfile");
            out.push_back({"accuracy.profile_build_ms",
                           timePer(kProfileBuilds, 1e3,
                                   [&](std::size_t) {
                                       er::acc::ResponseProfile p(
                                           ModelId::Dsr1Llama8B, kDataset,
                                           false);
                                       sink += p.sampleCorrelation();
                                   }),
                           "ms", kProfileBuilds});
        }
        {
            Span s(t, "perfmodel.characterize");
            const er::core::RegistryOptions ro;
            er::engine::InferenceEngine eng(
                er::model::spec(ModelId::DeepScaleR1_5B),
                er::model::calibration(ModelId::DeepScaleR1_5B),
                ro.engineConfig);
            const auto c0 = Clock::now();
            const auto c = er::perf::characterize(
                eng, ro.sweep, ro.fitQuestions, ro.validationQuestions,
                ro.seed);
            out.push_back({"perfmodel.characterize_ms",
                           1e3 * secondsSince(c0), "ms", 1});
            checks.check(allFinite({c.totalMapePct, c.totalEnergyMapePct}),
                         "characterize: non-finite validation MAPE");
        }
        {
            Span s(t, "core.StrategyEvaluator::evaluate");
            er::strategy::InferenceStrategy strat;
            strat.model = ModelId::Dsr1Llama8B;
            strat.policy = er::strategy::TokenPolicy::hard(256);
            strat.parallel = 4;
            std::vector<double> ms;
            for (int i = 0; i < 3; ++i) {
                const auto c0 = Clock::now();
                const auto r = ev.evaluate(strat, kDataset, questions_);
                ms.push_back(1e3 * secondsSince(c0));
                checks.check(r.questions == questions_ &&
                                 std::isfinite(r.avgLatency),
                             "evaluate: wrong question count or latency");
            }
            out.push_back({"core.evaluate_ms", er::percentile(ms, 50.0),
                           "ms", ms.size()});
        }
        {
            Span s(t, "core.paretoFrontier");
            out.push_back({"core.pareto_frontier_us",
                           timePer(kFrontierCalls, 1e6,
                                   [&](std::size_t) {
                                       sink += er::core::paretoFrontier(
                                                   reports_,
                                                   er::core::FrontierAxis::
                                                       Latency)
                                                   .size();
                                   }),
                           "us", kFrontierCalls});
        }

        // plan()'s 2x pre-filter, recomputed through the same public
        // calls (the planner does not report how many candidates passed).
        std::size_t evaluated = 0;
        const auto prompt = static_cast<er::Tokens>(
            er::acc::datasetInfo(kDataset).meanPromptTokens);
        for (double budget : ladder_) {
            for (const auto &c :
                 er_->planner().candidateStrategies(request(budget))) {
                const double toks =
                    ev.profile(c.model, kDataset, c.quantized)
                        .meanTokens(c.policy);
                if (ev.questionLatency(c, prompt,
                                       static_cast<er::Tokens>(toks)) <=
                    2.0 * budget)
                    ++evaluated;
            }
        }
        out.push_back({"core.plan.evaluated", static_cast<double>(evaluated),
                       "count", ladder_.size()});
        out.push_back({"core.plan.feasible", static_cast<double>(feasible_),
                       "count", ladder_.size()});
    }

  private:
    static constexpr std::size_t kSerialQuestions = 50;
    static constexpr std::size_t kProfileBuilds = 20;
    static constexpr std::size_t kFrontierCalls = 200;

    er::core::PlanRequest
    request(double budget) const
    {
        er::core::PlanRequest r;
        r.dataset = kDataset;
        r.latencyBudget = budget;
        r.sampleQuestions = sampleQuestions_;
        return r;
    }

    /** Sorted by the axis, and no sweep report dominates a point. */
    bool
    frontierOk(const std::vector<er::core::StrategyReport> &front,
               er::core::FrontierAxis axis) const
    {
        if (front.empty())
            return false;
        for (std::size_t i = 0; i < front.size(); ++i) {
            const double x = er::core::axisValue(front[i], axis);
            if (i > 0 && x < er::core::axisValue(front[i - 1], axis))
                return false;
            for (const auto &r : reports_) {
                if (er::core::axisValue(r, axis) <= x &&
                    r.accuracyPct > front[i].accuracyPct)
                    return false;
            }
        }
        return true;
    }

    std::uint64_t seed_;
    std::size_t questions_;
    std::size_t sampleQuestions_;
    std::vector<double> ladder_;

    std::unique_ptr<er::core::EdgeReasoning> er_;
    std::vector<er::strategy::InferenceStrategy> grid_;
    std::vector<er::core::StrategyReport> reports_;
    double sweepWallS_ = 0.0;
    std::uint64_t steals_ = 0;
    std::size_t feasible_ = 0;
};

// --- serve_sessions ----------------------------------------------------

std::string
servingDigest(const er::engine::ServingReport &r)
{
    std::string s = "serving";
    put(s, "completed", static_cast<double>(r.completed));
    put(s, "timed_out", static_cast<double>(r.timedOut));
    put(s, "shed", static_cast<double>(r.shed));
    put(s, "cancelled", static_cast<double>(r.cancelled));
    put(s, "makespan", r.makespan);
    put(s, "throughput_qps", r.throughputQps);
    put(s, "avg_batch", r.avgBatch);
    put(s, "mean_latency", r.meanLatency);
    put(s, "p50", r.p50Latency);
    put(s, "p95", r.p95Latency);
    put(s, "p99", r.p99Latency);
    put(s, "energy", r.totalEnergy);
    put(s, "energy_per_query", r.energyPerQuery);
    put(s, "tokens", r.generatedTokens);
    put(s, "utilization", r.utilization);
    put(s, "mean_wait", r.meanQueueDelay);
    put(s, "p99_wait", r.p99QueueDelay);
    put(s, "peak_depth", static_cast<double>(r.peakQueueDepth));
    put(s, "preemptions", static_cast<double>(r.preemptions));
    put(s, "goodput_qps", r.goodputQps);
    put(s, "deadline_hit_rate", r.deadlineHitRate);
    put(s, "cached_prefix_tokens", r.cachedPrefixTokens);
    put(s, "prefix_hit_rate", r.prefixHitRate);
    put(s, "prefill_saved", r.prefillSecondsSaved);
    put(s, "prefix_evictions", static_cast<double>(r.prefixEvictions));
    return s;
}

/**
 * One DeepScaleR-1.5B node serving multi-turn reasoning sessions with the
 * prefix cache on.  400 sessions make the prefix index outgrow the KV
 * budget, so the run is dominated by index eviction.  Loads the engine
 * (executor, scheduler, step-cost memo, KV/prefix index); the pool, the
 * fleet and accuracy sit idle.
 */
class ServeSessions : public Workload
{
  public:
    ServeSessions(std::uint64_t seed, bool small, std::string scratch)
        : seed_(seed), scratch_(std::move(scratch))
    {
        sc_.sessions = small ? 24 : 400;
        sc_.turnsPerSession = 6;
        sc_.sessionQps = 0.03;
        sc_.meanTurnGap = 20.0;
        sc_.systemPromptTokens = 512;
        sc_.meanUserTokens = 120.0;
        sc_.meanThinkTokens = 0.75 * 1024.0;
        sc_.meanAnswerTokens = 0.25 * 1024.0;
        cfg_.maxBatch = 32;
        cfg_.prefillChunk = 512;
        cfg_.scheduler = er::engine::SchedulerPolicy::Edf;
        cfg_.prefixCache.enabled = true;
        cfg_.prefixCache.evict = er::engine::PrefixEvictPolicy::Lru;
    }

    void
    setup(Tracer &t) override
    {
        er_ = std::make_unique<er::core::EdgeReasoning>();
        {
            Span s(t, "core.ModelRegistry::engineFor");
            eng_ = &er_->registry().engineFor(ModelId::DeepScaleR1_5B,
                                              false);
        }
        const auto t0 = Clock::now();
        {
            Span s(t, "accuracy.generateSessionTrace");
            er::Rng rng(seed_, "perfbench/serve_sessions");
            trace_ = er::acc::generateSessionTrace(sc_, rng);
        }
        for (auto &r : trace_)
            r.deadline = kDeadline;
        sessionTraceMs_ = 1e3 * secondsSince(t0);
    }

    void
    run(Tracer &t, Rep &rep) override
    {
        er::engine::ServingSimulator srv(*eng_, cfg_);
        const auto k0 = eng_->kernelCacheStats();
        const auto t0 = Clock::now();
        {
            Span s(t, "engine.ServingSimulator::run");
            rep_ = srv.run(trace_);
        }
        runS_ = secondsSince(t0);
        const auto k1 = eng_->kernelCacheStats();
        const double hits = static_cast<double>(k1.hits - k0.hits);
        const double misses = static_cast<double>(k1.misses - k0.misses);
        cacheHitRate_ = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;

        rep.rateWallS = runS_;
        rep.callMs = {1e3 * runS_};
        rep.questionEvals = static_cast<double>(trace_.size());
        rep.simTokens = rep_.generatedTokens;
        rep.check(rep_.completed + rep_.timedOut + rep_.shed +
                          rep_.cancelled ==
                      trace_.size() &&
                      srv.served().size() == trace_.size(),
                  "serve: completed + timed out + shed + cancelled != "
                  "trace size");
        std::vector<double> ttft;
        bool records_ok = true;
        for (const auto &s : srv.served()) {
            records_ok = records_ok && std::isfinite(s.latency()) &&
                s.latency() >= 0.0;
            if (s.outcome == er::engine::RequestOutcome::Completed)
                ttft.push_back(s.firstToken - s.request.arrival);
        }
        for (double x : ttft)
            records_ok = records_ok && std::isfinite(x) && x >= 0.0;
        rep.check(records_ok && allFinite({rep_.p99Latency,
                                           rep_.energyPerQuery,
                                           rep_.goodputQps,
                                           rep_.prefixHitRate}),
                  "serve: a latency, TTFT or report value is negative or "
                  "non-finite");
        const double ttft_p99 =
            ttft.empty() ? 0.0 : er::percentile(ttft, 99.0);

        rep.sim = {
            {"sim_latency_p50_s", rep_.p50Latency, "s", trace_.size()},
            {"sim_latency_p99_s", rep_.p99Latency, "s", trace_.size()},
            {"sim_ttft_p99_s", ttft_p99, "s", ttft.size()},
            {"sim_goodput_qps", rep_.goodputQps, "1/s", 1},
            {"sim_energy_per_query_j", rep_.energyPerQuery, "J", 1},
            {"sim_deadline_hit_pct", 100.0 * rep_.deadlineHitRate, "%", 1},
        };
        rep.digest = servingDigest(rep_);
        put(rep.digest, "ttft_p99", ttft_p99);
    }

    void
    layers(Tracer &t, Metrics &out, Rep &checks) override
    {
        out.push_back({"accuracy.session_trace_ms", sessionTraceMs_, "ms", 1});
        out.push_back({"engine.serve.run_s", runS_, "s", 1});
        out.push_back({"engine.serve.peak_queue_depth",
                       static_cast<double>(rep_.peakQueueDepth), "count", 1});
        out.push_back({"engine.serve.avg_batch", rep_.avgBatch, "seqs", 1});
        out.push_back({"engine.serve.preemptions",
                       static_cast<double>(rep_.preemptions), "count", 1});
        out.push_back({"engine.prefix.hit_rate", rep_.prefixHitRate, "ratio",
                       1});
        out.push_back({"engine.step.cache_hit_rate", cacheHitRate_, "ratio",
                       1});
        journaledRun(t, out, checks);
        stepRungs(t, out, checks);
        pickRung(t, out, checks);
        kvRung(t, out, checks);
    }

  private:
    static constexpr er::Seconds kDeadline = 600.0;

    /** Re-run with the write-ahead journal on and count its decode
     *  records: steps executed and macro segments they coalesce into. */
    void
    journaledRun(Tracer &t, Metrics &out, Rep &checks)
    {
        namespace fs = std::filesystem;
        const fs::path dir = fs::path(scratch_) / "serve-journal";
        fs::remove_all(dir);
        er::engine::DurabilityOptions dur;
        dur.checkpointDir = dir.string();
        er::engine::ServingSimulator srv(*eng_, cfg_);
        er::engine::ServingReport rep;
        {
            Span s(t, "engine.ServingSimulator::run.journaled");
            rep = srv.run(trace_, er::engine::FaultPlan{}, dur);
        }
        checks.check(servingDigest(rep) == servingDigest(rep_),
                     "journaled serve run diverged from the plain run");
        double steps = 0.0, segments = 0.0;
        for (const auto &rec :
             er::engine::readJournal((dir / "journal.bin").string())
                 .records) {
            if (rec.type != er::engine::JournalRecordType::Step)
                continue;
            er::ByteReader r(rec.payload);
            if (r.u8() == 1) {
                steps += r.u32();
                segments += 1.0;
            }
        }
        fs::remove_all(dir);
        out.push_back({"engine.serve.decode_steps", steps, "count", 1});
        out.push_back({"engine.serve.macro_segments", segments, "count", 1});
    }

    /** One uncached decode step through kernel enumeration and the
     *  roofline, and one warm step-cost memo lookup. */
    void
    stepRungs(Tracer &t, Metrics &out, Rep &checks)
    {
        const auto &spec = eng_->spec();
        const auto &ec = eng_->config();
        const er::hw::JetsonOrin soc(ec.powerMode);
        double sink = 0.0;
        auto ctx = [](std::size_t i) {
            return static_cast<er::Tokens>(512 + 16 * (i % 256));
        };
        auto batch = [](std::size_t i) {
            return static_cast<int>(1 + (i * 7) % 32);
        };
        {
            Span s(t, "hw.decodeKernels+execute");
            out.push_back({"hw.decode_kernels_us",
                           timePer(kKernelSteps, 1e6,
                                   [&](std::size_t i) {
                                       sink += soc.execute(
                                                      ec.backend,
                                                      er::engine::decodeKernels(
                                                          spec, ctx(i),
                                                          batch(i),
                                                          ec.kernelOpts))
                                                   .seconds;
                                   }),
                           "us", kKernelSteps});
        }
        for (std::size_t i = 0; i < 256; ++i)
            sink += eng_->decodeStepLatency(ctx(i), batch(i));
        {
            Span s(t, "engine.InferenceEngine::decodeStepLatency");
            out.push_back({"engine.step.decode_cost_ns",
                           timePer(kWarmSteps, 1e9,
                                   [&](std::size_t i) {
                                       sink += eng_->decodeStepLatency(
                                           ctx(i), batch(i));
                                   }),
                           "ns", kWarmSteps});
        }
        checks.check(std::isfinite(sink), "decode step cost is not finite");
    }

    /** edf pickNext over a backlog as deep as the run's peak queue. */
    void
    pickRung(Tracer &t, Metrics &out, Rep &checks)
    {
        const std::size_t depth = std::clamp<std::size_t>(
            rep_.peakQueueDepth, 1, trace_.size());
        er::engine::RequestBatch pool;
        er::engine::IdQueue queue;
        for (std::size_t i = 0; i < depth; ++i) {
            er::engine::TrackedRequest tr;
            tr.req = trace_[i];
            tr.traceIndex = static_cast<std::int64_t>(i);
            queue.push(pool.adopt(tr), tr.req.priority, tr.req.arrival,
                       false);
        }
        const er::engine::EdfScheduler edf;
        const er::Seconds now = trace_[depth - 1].arrival;
        const std::size_t picks = std::max<std::size_t>(200,
                                                        4000000 / depth);
        bool in_range = true;
        Span s(t, "engine.EdfScheduler::pickNext");
        out.push_back({"engine.scheduler.pick_ns",
                       timePer(picks, 1e9,
                               [&](std::size_t) {
                                   in_range = in_range &&
                                       edf.pickNext(pool, queue, now) <
                                           depth;
                               }),
                       "ns", picks});
        checks.check(in_range, "edf pickNext returned no eligible entry");
    }

    /**
     * Replay the trace's prefix hashes through a KvCache sized like the
     * executor's (the engine's KV budget at the watermark), one request
     * at a time in arrival order: acquire the cached prefix, append the
     * rest of prompt and output, publish the prompt blocks, release.
     */
    void
    kvRung(Tracer &t, Metrics &out, Rep &checks)
    {
        er::engine::KvCache kv(
            static_cast<er::Bytes>(cfg_.kvWatermark *
                                   static_cast<double>(eng_->kvBudget())),
            eng_->spec(), 16, cfg_.prefixCache);
        double acquire_ns = 0.0, append_ns = 0.0, insert_ns = 0.0;
        std::size_t appends = 0, evicting = 0, failed = 0, inserts = 0;
        {
            Span s(t, "engine.KvCache.replay");
            for (const auto &r : trace_) {
                const auto seq = kv.createSequence();
                const auto a = Clock::now();
                const er::Tokens cached =
                    kv.acquirePrefix(seq, r.prefixHashes, r.inputTokens - 1);
                const auto b = Clock::now();
                const auto ev0 = kv.prefixStats().evictions;
                if (!kv.append(seq, r.inputTokens + r.outputTokens - cached))
                    ++failed;
                const auto c = Clock::now();
                ++appends;
                if (kv.prefixStats().evictions > ev0)
                    ++evicting;
                const std::size_t n = std::min(
                    r.prefixHashes.size(),
                    static_cast<std::size_t>(r.inputTokens /
                                             kv.blockTokens()));
                const std::vector<std::uint64_t> hashes(
                    r.prefixHashes.begin(),
                    r.prefixHashes.begin() + static_cast<std::ptrdiff_t>(n));
                // The lru policy ignores rebuild costs; any positive
                // values do.
                const std::vector<double> costs(n, 1e-3);
                const auto d = Clock::now();
                kv.insertPrefix(seq, hashes, costs);
                const auto e = Clock::now();
                ++inserts;
                kv.release(seq);
                acquire_ns += nsBetween(a, b);
                append_ns += nsBetween(b, c);
                insert_ns += nsBetween(d, e);
            }
        }
        checks.check(failed == 0, "KV replay: an append did not fit");
        const double n = static_cast<double>(trace_.size());
        out.push_back({"engine.kv.acquire_us", 1e-3 * acquire_ns / n, "us",
                       trace_.size()});
        out.push_back({"engine.kv.append_us",
                       1e-3 * append_ns / static_cast<double>(appends), "us",
                       appends});
        out.push_back({"engine.kv.insert_us",
                       1e-3 * insert_ns / static_cast<double>(inserts), "us",
                       inserts});
        out.push_back({"engine.kv.evictions",
                       static_cast<double>(kv.prefixStats().evictions),
                       "count", 1});
        out.push_back({"engine.kv.evict_share",
                       static_cast<double>(evicting) /
                           static_cast<double>(appends),
                       "ratio", appends});
        out.push_back({"engine.kv.indexed_blocks",
                       static_cast<double>(kv.indexedBlocks()), "count", 1});
    }

    static constexpr std::size_t kKernelSteps = 2000;
    static constexpr std::size_t kWarmSteps = 200000;

    std::uint64_t seed_;
    std::string scratch_;
    er::acc::SessionTraceConfig sc_;
    er::engine::ServerConfig cfg_;

    std::unique_ptr<er::core::EdgeReasoning> er_;
    er::engine::InferenceEngine *eng_ = nullptr;
    std::vector<er::engine::ServerRequest> trace_;
    er::engine::ServingReport rep_;
    double runS_ = 0.0;
    double cacheHitRate_ = 0.0;
    double sessionTraceMs_ = 0.0;
};

// --- fleet_gray --------------------------------------------------------

/**
 * 256 DeepScaleR-1.5B nodes behind the deadline router with crashes,
 * gray slowdowns, retry, hedging and adaptive health.  Short unshared
 * requests: the router, node advance, fleet driver and the per-event
 * pool fork/join carry the time; the prefix index is bypassed.
 */
class FleetGray : public Workload
{
  public:
    FleetGray(std::uint64_t seed, bool small)
        : seed_(seed), nodes_(small ? 8 : 256),
          requests_(small ? 400 : 40000), qps_(small ? 6.25 : 200.0)
    {
    }

    void
    setup(Tracer &t) override
    {
        {
            Span s(t, "engine.ServingSimulator::poissonTrace");
            er::Rng rng(seed_, "perfbench/fleet_gray");
            trace_ = er::engine::ServingSimulator::poissonTrace(
                rng, requests_, qps_, 64, 32);
        }
        for (auto &r : trace_)
            r.deadline = kDeadline;
        const auto t0 = Clock::now();
        {
            Span s(t, "fleet.FleetSimulator::FleetSimulator");
            sim_ = std::make_unique<er::fleet::FleetSimulator>(config());
        }
        setupMs_ = 1e3 * secondsSince(t0);
    }

    void
    run(Tracer &t, Rep &rep) override
    {
        const auto t0 = Clock::now();
        {
            Span s(t, "fleet.FleetSimulator::run");
            rep_ = sim_->run(trace_);
        }
        runS_ = secondsSince(t0);
        rep.rateWallS = runS_;
        rep.callMs = {1e3 * runS_};
        rep.questionEvals = static_cast<double>(rep_.arrivals);
        rep.simTokens = rep_.generatedTokens;
        rep.check(rep_.arrivals == trace_.size() &&
                      rep_.served + rep_.timedOut + rep_.shed +
                              rep_.offloaded ==
                          rep_.arrivals,
                  "fleet: served + timed out + shed + offloaded != "
                  "arrivals");
        rep.check(allFinite({rep_.p50Latency, rep_.p99Latency,
                             rep_.p999Latency, rep_.goodput,
                             rep_.energyPerQuery, rep_.dollarsPerQuery}),
                  "fleet: non-finite report value");
        rep.sim = {
            {"sim_latency_p50_s", rep_.p50Latency, "s", rep_.arrivals},
            {"sim_latency_p99_s", rep_.p99Latency, "s", rep_.arrivals},
            {"sim_goodput_qps", rep_.goodput, "1/s", 1},
            {"sim_energy_per_query_j", rep_.energyPerQuery, "J", 1},
            {"sim_deadline_hit_pct", 100.0 * rep_.deadlineHitRate, "%", 1},
        };
        rep.digest = "fleet";
        put(rep.digest, "served", static_cast<double>(rep_.served));
        put(rep.digest, "timed_out", static_cast<double>(rep_.timedOut));
        put(rep.digest, "shed", static_cast<double>(rep_.shed));
        put(rep.digest, "offloaded", static_cast<double>(rep_.offloaded));
        put(rep.digest, "retries", static_cast<double>(rep_.retries));
        put(rep.digest, "failovers", static_cast<double>(rep_.failovers));
        put(rep.digest, "hedges", static_cast<double>(rep_.hedgesLaunched));
        put(rep.digest, "makespan", rep_.makespan);
        put(rep.digest, "goodput", rep_.goodput);
        put(rep.digest, "p50", rep_.p50Latency);
        put(rep.digest, "p99", rep_.p99Latency);
        put(rep.digest, "p999", rep_.p999Latency);
        put(rep.digest, "energy", rep_.totalEnergy);
        put(rep.digest, "tokens", rep_.generatedTokens);
        put(rep.digest, "events", static_cast<double>(rep_.events));
        rep.digest += " report_fnv=" + hexDigest(
            er::fleet::formatFleetReport(rep_));
    }

    void
    layers(Tracer &t, Metrics &out, Rep &checks) override
    {
        const double events = static_cast<double>(rep_.events);
        out.push_back({"fleet.setup_ms", setupMs_, "ms", 1});
        out.push_back({"fleet.run_s", runS_, "s", 1});
        out.push_back({"fleet.events", events, "count", 1});
        out.push_back({"fleet.us_per_event", 1e6 * runS_ / events, "us",
                       rep_.events});
        out.push_back({"fleet.retries", static_cast<double>(rep_.retries),
                       "count", 1});
        out.push_back({"fleet.failovers",
                       static_cast<double>(rep_.failovers), "count", 1});
        out.push_back({"fleet.hedges",
                       static_cast<double>(rep_.hedgesLaunched), "count",
                       1});
        out.push_back({"fleet.hedge_waste_ratio",
                       rep_.hedgesLaunched
                           ? static_cast<double>(rep_.hedgeWaste) /
                               static_cast<double>(rep_.hedgesLaunched)
                           : 0.0,
                       "ratio", rep_.hedgesLaunched});
        out.push_back({"fleet.cancelled_legs",
                       static_cast<double>(rep_.cancelledLegs), "count", 1});
        out.push_back({"fleet.adaptive_ejections",
                       static_cast<double>(rep_.adaptiveEjections), "count",
                       1});
        const auto hashed = std::count_if(
            trace_.begin(), trace_.end(),
            [](const auto &r) { return !r.prefixHashes.empty(); });
        out.push_back({"fleet.prefix.hashed_share",
                       static_cast<double>(hashed) /
                           static_cast<double>(trace_.size()),
                       "ratio", trace_.size()});
        // Free the run's node stacks before the rungs build their own.
        sim_.reset();
        const double route_us = routeRung(t, out, checks);
        advanceRung(t, out, checks);
        const double run1_s = serialRun(t, checks);
        const double dispatches = static_cast<double>(
            rep_.arrivals + rep_.retries + rep_.failovers +
            rep_.hedgesLaunched);
        out.push_back({"fleet.run_1thread_s", run1_s, "s", 1});
        out.push_back({"fleet.route_share",
                       dispatches * route_us / (1e6 * runS_), "ratio", 1});
        out.push_back({"fleet.forkjoin_share", (runS_ - run1_s) / runS_,
                       "ratio", 1});
    }

  private:
    static constexpr er::Seconds kDeadline = 5.0;

    er::fleet::FleetConfig
    config() const
    {
        er::fleet::FleetConfig fc;
        er::fleet::NodeSpec spec;
        spec.model = ModelId::DeepScaleR1_5B;
        fc.nodes.assign(nodes_, spec);
        fc.server.maxBatch = 30;
        fc.router = er::fleet::RouterPolicy::DeadlineAware;
        fc.maxRetries = 2;
        fc.hedgeFraction = 0.3;
        fc.adaptiveHealth = true;
        fc.nodeFaults.seed = seed_ ^ 0xF1EE7;
        fc.nodeFaults.horizon = trace_.back().arrival + 3600.0;
        fc.nodeFaults.crashesPerHour = 2.0;
        fc.nodeFaults.meanRebootSeconds = 30.0;
        fc.nodeFaults.slowdownsPerHour = 2.0;
        return fc;
    }

    /** Deadline-router decisions over a fleet of backlogged nodes, with
     *  the nodes' step-cost memos warm as they are mid-run.  @return the
     *  mean microseconds per decision. */
    double
    routeRung(Tracer &t, Metrics &out, Rep &checks)
    {
        const auto fc = config();
        std::vector<std::unique_ptr<er::fleet::FleetNode>> nodes;
        std::vector<er::fleet::NodeView> views;
        for (std::size_t i = 0; i < nodes_; ++i) {
            nodes.push_back(std::make_unique<er::fleet::FleetNode>(
                static_cast<int>(i), fc.nodes[i], fc.server,
                er::engine::FaultPlan{}));
            // Backlogs of 1-8 undispatched legs, all due at time 0.
            for (std::size_t k = 0; k <= i % 8; ++k) {
                auto leg = trace_[(i * 8 + k) % trace_.size()];
                leg.arrival = 0.0;
                nodes.back()->submit(leg, static_cast<std::int64_t>(k));
            }
            er::fleet::NodeView v;
            v.node = nodes.back().get();
            views.push_back(v);
        }
        auto router = er::fleet::makeRouter(fc.router);
        bool in_range = true;
        auto route = [&](std::size_t i) {
            const auto &r = trace_[i % kRouteRequests];
            const auto d = router->route(r, 0.0, r.deadline, views, 1,
                                         fc.cloud, -1);
            in_range = in_range && d.node >= 0 &&
                static_cast<std::size_t>(d.node) < nodes_;
        };
        for (std::size_t i = 0; i < kRouteRequests; ++i)
            route(i);
        Span s(t, "fleet.Router::route");
        const double us = timePer(kRoutes, 1e6, route);
        out.push_back({"fleet.router.route_us", us, "us", kRoutes});
        checks.check(in_range, "deadline router picked no edge node");
        return us;
    }

    /** The same run on a one-thread pool, where parallelChunks runs
     *  inline: the difference to runS_ is what the fork/joins cost.
     *  @return its wall seconds. */
    double
    serialRun(Tracer &t, Rep &checks)
    {
        const unsigned pinned = er::ThreadPool::global().threadCount();
        er::ThreadPool::setGlobalThreads(1);
        er::fleet::FleetSimulator sim(config());
        const auto t0 = Clock::now();
        er::fleet::FleetReport rep;
        {
            Span s(t, "fleet.FleetSimulator::run.1thread");
            rep = sim.run(trace_);
        }
        const double wall = secondsSince(t0);
        er::ThreadPool::setGlobalThreads(pinned);
        checks.check(er::fleet::formatFleetReport(rep) ==
                         er::fleet::formatFleetReport(rep_),
                     "fleet report differs between 1 thread and the "
                     "pinned count");
        return wall;
    }

    /** One node's share of the trace: submit every leg, run to idle. */
    void
    advanceRung(Tracer &t, Metrics &out, Rep &checks)
    {
        const auto fc = config();
        er::fleet::FleetNode node(0, fc.nodes[0], fc.server,
                                  er::engine::FaultPlan{});
        std::size_t legs = 0;
        const auto t0 = Clock::now();
        {
            Span s(t, "fleet.FleetNode::submit+advanceUntil");
            for (std::size_t i = 0; i < trace_.size(); i += nodes_)
                node.submit(trace_[i], static_cast<std::int64_t>(legs++));
            node.advanceUntil(std::numeric_limits<double>::infinity(),
                              false);
        }
        out.push_back({"fleet.node.advance_us", 1e6 * secondsSince(t0),
                       "us", legs});
        const auto c = node.outcomeCounts();
        checks.check(c.served + c.timedOut + c.cancelled == legs,
                     "fleet node: outcomes do not add up to its legs");
    }

    static constexpr std::size_t kRoutes = 4000;
    static constexpr std::size_t kRouteRequests = 200;

    std::uint64_t seed_;
    std::size_t nodes_;
    std::size_t requests_;
    double qps_;

    std::vector<er::engine::ServerRequest> trace_;
    std::unique_ptr<er::fleet::FleetSimulator> sim_;
    er::fleet::FleetReport rep_;
    double setupMs_ = 0.0;
    double runS_ = 0.0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "pareto_sweep", "serve_sessions", "fleet_gray"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool small,
             const std::string &scratch_dir)
{
    if (name == "pareto_sweep")
        return std::make_unique<ParetoSweep>(seed, small);
    if (name == "serve_sessions")
        return std::make_unique<ServeSessions>(seed, small, scratch_dir);
    if (name == "fleet_gray")
        return std::make_unique<FleetGray>(seed, small);
    return nullptr;
}

} // namespace perfbench
