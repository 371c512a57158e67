/**
 * @file
 * Command-line driver for the EdgeReasoning library.
 *
 *   edgereason spec
 *   edgereason models
 *   edgereason characterize --model DSR1-Qwen-14B [--quant]
 *   edgereason evaluate --model DSR1-Llama-8B --policy 128T
 *                       [--parallel 4] [--quant]
 *                       [--dataset mmlu-redux] [--questions 1000]
 *   edgereason plan --budget 5.0 [--dataset mmlu-redux]
 *                   [--prompt-tokens 170] [--max-parallel 8]
 *   edgereason sweep [--dataset mmlu-redux] [--questions 500]
 *                    [--max-parallel 8] [--axis latency|cost|tokens]
 *                    [--no-quant]
 *   edgereason serve --model DeepScaleR-1.5B --qps 0.1
 *                    [--requests 100] [--mean-in 120]
 *                    [--mean-out 1024] [--max-batch 30]
 *                    [--scheduler fcfs|edf|spjf]
 *                    [--prefill-chunk 512]
 *                    [--faults] [--fault-seed 64023]
 *                    [--deadline 90] [--ambient 32]
 *                    [--brownout-rate 2] [--kv-shrink-rate 1]
 *                    [--degrade none|budget|fallback]
 *                    [--degrade-budget 256]
 *                    [--fallback-model DeepScaleR-1.5B]
 *                    [--checkpoint-dir DIR] [--checkpoint-every 64]
 *                    [--resume DIR] [--paranoid]
 *                    [--crash-at-step N] [--crash-at-time T]
 *                    [--crash-rate 0.5] [--exact-steps]
 *                    [--sessions 16] [--turns-per-session 4]
 *                    [--session-qps 0.5] [--turn-gap 20]
 *                    [--system-prompt 512]
 *                    [--prefix-cache on|off] [--prefix-evict lru|cost]
 *                    [--fleet N] [--router rr|least|deadline|cost]
 *                    [--hetero] [--node-faults]
 *                    [--node-crash-rate R] [--node-degrade-rate R]
 *                    [--node-slowdown-rate R] [--node-flap-rate R]
 *                    [--adaptive-health] [--health-quantile 0.95]
 *                    [--health-multiple 3] [--adaptive-timeout 4]
 *                    [--retry N] [--hedge F] [--cloud o4-mini]
 *                    [--fleet-journals DIR] [--crash-at-event N]
 *                    [--replications R]
 *   edgereason replay <journal.bin|journal-dir> [--dump]
 *
 * Policies: Base, NR, <n>T (hard), <n>NC (soft), L1-<n>.
 *
 * Every command accepts --threads N to size the work-stealing pool
 * used by the sweep layers (default: EDGEREASON_THREADS, then the
 * hardware concurrency).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "cli/serve_options.hh"
#include "cli/serve_run.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "core/edge_reasoning.hh"
#include "cost/cost_model.hh"
#include "engine/journal.hh"
#include "engine/server.hh"
#include "engine/trace_stream.hh"
#include "fleet/fleet.hh"
#include "hw/gpu_spec.hh"
#include "model/zoo.hh"

using namespace edgereason;

namespace {

/** Upper bound of --questions (0 = the full benchmark; a count above
 *  a bank's size also runs the whole bank). */
constexpr long long kMaxQuestions = 1000000;

/** @return @p e's message without fatal()'s "fatal: <file>:<line>: "
 *  prefix, whose build path and line change with every checkout and
 *  edit. */
std::string
errorText(const std::exception &e)
{
    static const std::regex where("^fatal: .*?:[0-9]+: ");
    return std::regex_replace(e.what(), where, "");
}

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "error: %s\n\n", msg);
    std::fprintf(stderr,
        "usage: edgereason <command> [options]\n"
        "commands:\n"
        "  spec          print the Jetson AGX Orin hardware model\n"
        "  models        list the model zoo\n"
        "  characterize  fit the Section-IV analytical models\n"
        "  evaluate      run a strategy on a benchmark\n"
        "  plan          pick the best strategy for a latency budget\n"
        "  sweep         evaluate the strategy grid, print the "
        "Pareto frontier\n"
        "  serve         run the continuous-batching serving study\n"
        "  replay        re-derive a serving report from a "
        "write-ahead journal\n"
        "global options:\n"
        "  --threads N   sweep worker count (default "
        "EDGEREASON_THREADS, then hardware concurrency)\n"
        "run a command with bad arguments to see its options.\n");
    std::exit(2);
}

/** Minimal --key value parser. */
class Args
{
  public:
    Args(int argc, char **argv, int start)
    {
        for (int i = start; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                usage(("unexpected argument: " + key).c_str());
            key = key.substr(2);
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                kv_[key] = argv[++i];
            } else {
                kv_[key] = "true"; // boolean flag
            }
        }
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = kv_.find(key);
        return it == kv_.end() ? fallback : it->second;
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = kv_.find(key);
        double v = fallback;
        if (it != kv_.end() && !cli::parseDouble(it->second, &v))
            usage(("invalid number for --" + key + ": " + it->second)
                      .c_str());
        return v;
    }

    long long
    getInt(const std::string &key, long long fallback) const
    {
        auto it = kv_.find(key);
        long long v = fallback;
        if (it != kv_.end() && !cli::parseLong(it->second, &v))
            usage(("invalid number for --" + key + ": " + it->second)
                      .c_str());
        return v;
    }

    /** getInt() bounded to [lo, hi]: out-of-range values exit through
     *  usage() naming the flag rather than narrowing silently. */
    long long
    getIntIn(const std::string &key, long long fallback, long long lo,
             long long hi) const
    {
        const long long v = getInt(key, fallback);
        if (v < lo || v > hi)
            usage(("--" + key + " must be in [" + std::to_string(lo) +
                   ", " + std::to_string(hi) + "], got " +
                   std::to_string(v))
                      .c_str());
        return v;
    }

    bool
    getBool(const std::string &key) const
    {
        return kv_.count(key) > 0;
    }

  private:
    std::map<std::string, std::string> kv_;
};

acc::Dataset
parseDataset(const std::string &name)
{
    static const std::map<std::string, acc::Dataset> table = {
        {"mmlu-redux", acc::Dataset::MmluRedux},
        {"mmlu", acc::Dataset::Mmlu},
        {"aime2024", acc::Dataset::Aime2024},
        {"math500", acc::Dataset::Math500},
        {"naturalplan-calendar", acc::Dataset::NaturalPlanCalendar},
        {"naturalplan-meeting", acc::Dataset::NaturalPlanMeeting},
        {"naturalplan-trip", acc::Dataset::NaturalPlanTrip},
    };
    auto it = table.find(name);
    if (it == table.end())
        usage(("unknown dataset: " + name).c_str());
    return it->second;
}

strategy::TokenPolicy
parsePolicy(const std::string &s)
{
    using strategy::TokenPolicy;
    if (s == "Base" || s == "base")
        return TokenPolicy::base();
    if (s == "NR" || s == "nr")
        return TokenPolicy::noReasoning();
    // The token budget of L1-<n>, <n>NC or <n>T: a whole number >= 1.
    const auto budget = [&](const std::string &n) -> Tokens {
        long long v = 0;
        if (!cli::parseLong(n, &v) || v < 1)
            usage(("--policy " + s + ": the token budget must be a " +
                   "whole number >= 1").c_str());
        return v;
    };
    if (s.rfind("L1-", 0) == 0)
        return TokenPolicy::l1(budget(s.substr(3)));
    if (s.size() > 2 && s.substr(s.size() - 2) == "NC")
        return TokenPolicy::soft(budget(s.substr(0, s.size() - 2)));
    if (s.size() > 1 && s.back() == 'T')
        return TokenPolicy::hard(budget(s.substr(0, s.size() - 1)));
    usage(("unknown policy: " + s +
           " (expected Base, NR, <n>T, <n>NC, L1-<n>)").c_str());
}

int
cmdSpec()
{
    core::EdgeReasoning er;
    std::printf("%s\n", er.hardwareSummary().c_str());
    return 0;
}

int
cmdModels()
{
    Table t("model zoo");
    t.setHeader({"Name", "Category", "Params (B)", "fp16 (GB)",
                 "W4 (GB)", "KV bytes/token", "Max context"});
    for (model::ModelId id : model::allModels()) {
        const auto s = model::spec(id);
        const auto q = model::quantizedSpec(id);
        const char *cat = "non-reasoning";
        if (model::modelCategory(id) == model::ModelCategory::Reasoning)
            cat = "reasoning";
        else if (model::modelCategory(id) ==
                 model::ModelCategory::BudgetAware)
            cat = "budget-aware";
        t.row()
            .cell(s.name)
            .cell(cat)
            .cell(s.paramCount() / 1e9, 2)
            .cell(s.weightBytes() / 1e9, 1)
            .cell(q.weightBytes() / 1e9, 1)
            .cell(static_cast<long long>(s.kvBytesPerToken()))
            .cell(static_cast<long long>(s.maxContext));
    }
    t.print(std::cout);
    return 0;
}

int
cmdCharacterize(const Args &args)
{
    const auto id = model::modelIdFromName(
        args.get("model", "DSR1-Qwen-14B"));
    const bool quant = args.getBool("quant");
    core::EdgeReasoning er;
    const auto &c = er.characterization(id, quant);
    std::printf("%s%s on the simulated Jetson AGX Orin:\n",
                model::modelName(id), quant ? " (AWQ-W4)" : "");
    std::printf("  L_prefill(I) = %.3e*Ipad^2 + %.3e*Ipad + %.4f s\n",
                c.latency.prefill.a, c.latency.prefill.b,
                c.latency.prefill.c);
    std::printf("  TBT(ctx)     = %.3e*ctx + %.4f s  (%.1f tok/s)\n",
                c.latency.decode.m, c.latency.decode.n,
                1.0 / c.latency.decode.n);
    std::printf("  P_prefill    = %s\n",
                c.prefillPower.v > 0
                    ? (formatFixed(c.prefillPower.u, 1) + " W below " +
                       std::to_string(c.prefillPower.v) + ", then " +
                       formatFixed(c.prefillPower.w, 2) + "*ln(I) + " +
                       formatFixed(c.prefillPower.x, 2)).c_str()
                    : (formatFixed(c.prefillPower.u, 2) +
                       " W (constant)").c_str());
    std::printf("  P_decode     = %.2f*ln(O) + %.2f W (floor %.1f)\n",
                c.decodePower.y, c.decodePower.z, c.decodePower.floor);
    std::printf("  validation   : prefill %.1f%%, decode %.2f%%, "
                "total %.2f%% MAPE; energy %.1f%% MAPE\n",
                c.prefillMapePct, c.decodeMapePct, c.totalMapePct,
                c.totalEnergyMapePct);
    return 0;
}

int
cmdEvaluate(const Args &args)
{
    strategy::InferenceStrategy s;
    s.model = model::modelIdFromName(args.get("model",
                                              "DSR1-Llama-8B"));
    s.quantized = args.getBool("quant");
    s.policy = parsePolicy(args.get("policy", "Base"));
    s.parallel = static_cast<int>(args.getIntIn(
        "parallel", 1, 1, engine::InferenceEngine::kMaxStepRows));
    const auto dataset = parseDataset(args.get("dataset",
                                               "mmlu-redux"));
    const auto limit = static_cast<std::size_t>(
        args.getIntIn("questions", 0, 0, kMaxQuestions));

    core::EdgeReasoning er;
    const auto rep = er.evaluate(s, dataset, limit);
    std::printf("%s on %s (%zu questions):\n", s.label().c_str(),
                acc::datasetName(dataset), rep.questions);
    std::printf("  accuracy   : %.1f%%\n", rep.accuracyPct);
    std::printf("  tokens/Q   : %.1f (total generated %.1f)\n",
                rep.avgTokens, rep.avgSumTokens);
    std::printf("  latency/Q  : %.2f s\n", rep.avgLatency);
    std::printf("  energy/Q   : %.1f J\n", rep.avgEnergy);
    std::printf("  $/1M tokens: %.4f energy + %.4f hardware = %.4f\n",
                rep.cost.energyPerMTok, rep.cost.hardwarePerMTok,
                rep.cost.totalPerMTok());
    return 0;
}

int
cmdPlan(const Args &args)
{
    core::PlanRequest req;
    req.dataset = parseDataset(args.get("dataset", "mmlu-redux"));
    req.latencyBudget = args.getDouble("budget", 5.0);
    if (!std::isfinite(req.latencyBudget) || req.latencyBudget <= 0.0)
        usage(("--budget must be a finite number of seconds > 0, got " +
               args.get("budget", ""))
                  .c_str());
    req.promptTokens = args.getIntIn(
        "prompt-tokens", 0, 0, engine::InferenceEngine::kMaxStepRows);
    req.maxParallel = static_cast<int>(args.getIntIn(
        "max-parallel", 8, 1, engine::InferenceEngine::kMaxStepRows));
    req.allowQuantized = !args.getBool("no-quant");

    core::EdgeReasoning er;
    const auto plan = er.plan(req);
    if (!plan) {
        std::printf("no strategy meets a %.2f s budget on %s\n",
                    req.latencyBudget, acc::datasetName(req.dataset));
        return 1;
    }
    std::printf("budget %.2f s on %s -> %s\n", req.latencyBudget,
                acc::datasetName(req.dataset),
                plan->strategy.label().c_str());
    std::printf("  max decodable tokens: %lld\n",
                static_cast<long long>(plan->maxTokenBudget));
    std::printf("  predicted: %.1f%% accuracy at %.2f s, %.1f J\n",
                plan->predicted.accuracyPct, plan->predicted.avgLatency,
                plan->predicted.avgEnergy);
    std::printf("  runners-up:\n");
    for (std::size_t i = 1;
         i < std::min<std::size_t>(4, plan->candidates.size()); ++i) {
        const auto &c = plan->candidates[i];
        std::printf("    %-32s %.1f%% at %.2f s\n",
                    c.strat.label().c_str(), c.accuracyPct,
                    c.avgLatency);
    }
    return 0;
}

int
cmdSweep(const Args &args)
{
    core::PlanRequest req;
    req.dataset = parseDataset(args.get("dataset", "mmlu-redux"));
    req.maxParallel = static_cast<int>(args.getIntIn(
        "max-parallel", 8, 1, engine::InferenceEngine::kMaxStepRows));
    req.allowQuantized = !args.getBool("no-quant");
    const auto questions = static_cast<std::size_t>(
        args.getIntIn("questions", 500, 0, kMaxQuestions));

    const std::string axis_name = args.get("axis", "latency");
    core::FrontierAxis axis;
    if (axis_name == "latency")
        axis = core::FrontierAxis::Latency;
    else if (axis_name == "cost")
        axis = core::FrontierAxis::Cost;
    else if (axis_name == "tokens")
        axis = core::FrontierAxis::Tokens;
    else
        usage(("unknown axis: " + axis_name).c_str());

    core::EdgeReasoning er;
    const auto grid = er.planner().candidateStrategies(req);
    std::printf("sweeping %zu strategies on %s (%zu questions, "
                "%u threads)\n",
                grid.size(), acc::datasetName(req.dataset), questions,
                ThreadPool::global().threadCount());
    const auto reports = core::sweepStrategies(
        er.evaluator(), grid, req.dataset, questions);
    const auto frontier = core::paretoFrontier(reports, axis);

    Table t("accuracy-" + axis_name + " Pareto frontier");
    t.setHeader({"Strategy", "Accuracy (%)", "Tokens/Q",
                 "Latency (s)", "$/1M tok"});
    for (const auto &r : frontier) {
        t.row()
            .cell(r.strat.label())
            .cell(r.accuracyPct, 1)
            .cell(r.avgTokens, 1)
            .cell(r.avgLatency, 2)
            .cell(r.cost.totalPerMTok(), 4);
    }
    t.print(std::cout);
    return 0;
}

/**
 * Print the body of a ServingReport.  Shared between `serve` and
 * `replay` so a replayed report renders exactly like the live one.
 * @param degrade_name  degrade-mode label for the throttle line, or
 *   null when unknown (replay has no ServerConfig).
 */
void
printServingReport(const engine::ServingReport &rep, bool show_outcomes,
                   const char *degrade_name)
{
    const auto cost = cost::edgeCost(rep.totalEnergy, rep.makespan,
                                     rep.generatedTokens);
    std::printf("  throughput : %.3f QPS\n", rep.throughputQps);
    std::printf("  latency    : mean %.1f s, p50 %.1f s, p95 %.1f s, "
                "p99 %.1f s\n",
                rep.meanLatency, rep.p50Latency, rep.p95Latency,
                rep.p99Latency);
    std::printf("  queueing   : mean wait %.1f s, p99 wait %.1f s, "
                "peak depth %zu\n",
                rep.meanQueueDelay, rep.p99QueueDelay,
                rep.peakQueueDepth);
    std::printf("  batching   : avg %.1f, utilization %.0f%%\n",
                rep.avgBatch, 100.0 * rep.utilization);
    std::printf("  energy     : %.1f J/query, $%.4f per 1M tokens\n",
                rep.energyPerQuery, cost.totalPerMTok());
    if (rep.cachedPrefixTokens > 0.0)
        std::printf("  prefix     : %.0f%% of prompt tokens served "
                    "from cache, %.1f s prefill saved, %llu "
                    "evictions\n",
                    100.0 * rep.prefixHitRate, rep.prefillSecondsSaved,
                    static_cast<unsigned long long>(
                        rep.prefixEvictions));
    if (!show_outcomes)
        return;
    std::printf("  outcomes   : %zu completed, %zu timed out, "
                "%zu shed (%llu preemptions, %zu retried, "
                "%zu degraded)\n",
                rep.completed, rep.timedOut, rep.shed,
                static_cast<unsigned long long>(rep.preemptions),
                rep.retriedCompleted, rep.degradedCompleted);
    std::printf("  goodput    : %.3f QPS, deadline hit rate %.0f%%\n",
                rep.goodputQps, 100.0 * rep.deadlineHitRate);
    if (degrade_name)
        std::printf("  throttle   : %.0f%% of busy time below MAXN "
                    "(degrade=%s)\n",
                    100.0 * rep.throttleResidency, degrade_name);
    else
        std::printf("  throttle   : %.0f%% of busy time below MAXN\n",
                    100.0 * rep.throttleResidency);
}

void
printFleetReport(const fleet::FleetReport &rep)
{
    std::printf("  outcomes   : %zu served, %zu timed out, %zu shed, "
                "%zu offloaded (of %zu)\n",
                rep.served, rep.timedOut, rep.shed, rep.offloaded,
                rep.arrivals);
    std::printf("  resilience : %zu retries, %zu failovers, %zu "
                "hedges (%zu wins, %zu waste), %zu cancelled legs\n",
                rep.retries, rep.failovers, rep.hedgesLaunched,
                rep.hedgeWins, rep.hedgeWaste, rep.cancelledLegs);
    if (rep.adaptiveHealth)
        std::printf("  health     : %zu adaptive-health ejections "
                    "(latency-quantile breaker)\n",
                    rep.adaptiveEjections);
    std::printf("  goodput    : %.3f QPS good / %.3f QPS total, "
                "deadline hit rate %.0f%%\n",
                rep.goodput, rep.throughput,
                100.0 * rep.deadlineHitRate);
    std::printf("  latency    : mean %.2f s, p50 %.2f s, p99 %.2f s, "
                "p99.9 %.2f s\n",
                rep.meanLatency, rep.p50Latency, rep.p99Latency,
                rep.p999Latency);
    std::printf("  energy     : %.0f J total, %.1f J/query\n",
                rep.totalEnergy, rep.energyPerQuery);
    std::printf("  dollars    : $%.4f edge + $%.4f cloud = $%.6f "
                "per query\n",
                rep.edgeDollars, rep.cloudDollars, rep.dollarsPerQuery);
    for (const auto &n : rep.nodes)
        std::printf("  node %2d    : %zu served, %zu timed out, %zu "
                    "cancelled, %llu crashes, %.0f J, %s\n",
                    n.id, n.served, n.timedOut, n.cancelled,
                    static_cast<unsigned long long>(n.crashes),
                    n.energy, n.up ? "up" : "down");
}

int
cmdServeFleet(const cli::ServeOptions &o, engine::ServerConfig cfg)
{
    const auto id = model::modelIdFromName(o.model);
    static const hw::PowerMode kHetero[] = {
        hw::PowerMode::MaxN, hw::PowerMode::W50, hw::PowerMode::W30,
        hw::PowerMode::W15};

    fleet::FleetConfig fc;
    fc.server = cfg;
    fc.router = o.router;
    for (long long i = 0; i < o.fleet; ++i) {
        fleet::NodeSpec spec;
        spec.model = id;
        spec.quantized = o.quant;
        if (o.hetero)
            spec.powerMode = kHetero[static_cast<std::size_t>(i) % 4];
        fc.nodes.push_back(spec);
    }
    fc.maxRetries = static_cast<int>(o.retry);
    fc.retryBackoff = o.retryBackoff;
    fc.requestTimeout = o.requestTimeout;
    fc.hedgeFraction = o.hedge;
    fc.adaptiveHealth = o.adaptiveHealth;
    fc.healthQuantile = o.healthQuantile;
    fc.healthLatencyMultiple = o.healthMultiple;
    fc.adaptiveTimeoutMultiple = o.adaptiveTimeout;
    fc.paranoid = o.paranoid;
    fc.journalDir = o.fleetJournals;
    if (!o.cloud.empty()) {
        fc.cloud.enabled = true;
        fc.cloud.price = o.cloud == "o4-mini" ? cost::o4Mini()
                                              : cost::o1Preview();
        fc.cloud.rtt = o.cloudRtt;
    }

    Rng rng(o.seed, "cli-serve");
    std::vector<engine::ServerRequest> trace;
    if (!o.stream)
        trace = cli::serveTrace(o, rng);

    fc.nodeFaults.seed = static_cast<std::uint64_t>(o.faultSeed);
    // A streaming run never materializes the trace, so its fault
    // horizon uses the expected trace end instead of the drawn one;
    // fault schedules (and hence reports) match the materialized path
    // exactly whenever the fault rates are zero.
    fc.nodeFaults.horizon = o.stream
        ? static_cast<double>(o.requests) / o.qps + 3600.0
        : trace.back().arrival + 3600.0;
    fc.nodeFaults.crashesPerHour = o.nodeCrashRate;
    fc.nodeFaults.meanRebootSeconds = o.nodeReboot;
    fc.nodeFaults.degradesPerHour = o.nodeDegradeRate;
    fc.nodeFaults.meanDegradeSeconds = o.nodeDegradeMean;
    fc.nodeFaults.slowdownsPerHour = o.nodeSlowdownRate;
    fc.nodeFaults.meanSlowdownSeconds = o.nodeSlowdownMean;
    fc.nodeFaults.slowdownMultiplier = o.nodeSlowdownMult;
    fc.nodeFaults.flapsPerHour = o.nodeFlapRate;
    fc.nodeFaults.meanFlapSeconds = o.nodeFlapMean;
    if (o.nodeFaults) {
        fc.nodeFaults.behavioural = cli::behaviouralFaults(o);
        fc.nodeFaults.behavioural.horizon = fc.nodeFaults.horizon;
    }

    fleet::FleetDurabilityOptions dur;
    dur.checkpointDir = o.checkpointDir;
    dur.checkpointEvery = o.checkpointEvery;
    dur.resume = o.resume;
    dur.crashAtEvent = o.crashAtEvent;
    dur.crashAtTime = o.crashAtTime;

    fleet::FleetSimulator sim(fc);
    fleet::FleetReport rep;
    if (o.stream) {
        // Same Rng, same draw order as the materialized branch: the
        // streamed requests are bit-identical to the trace run()
        // would have seen.
        engine::PoissonTraceStream src(
            rng, static_cast<std::size_t>(o.requests), o.qps, o.meanIn,
            o.meanOut);
        src.setDeadline(o.deadline);
        rep = sim.runStream(src);
        std::printf("served %lld requests (streamed) on a %lld-node "
                    "fleet of %s (router=%s, scheduler=%s, offered "
                    "%.3f QPS):\n",
                    o.requests, o.fleet, o.model.c_str(),
                    fleet::routerPolicyName(rep.router),
                    engine::schedulerPolicyName(cfg.scheduler), o.qps);
        printFleetReport(rep);
        return 0;
    }
    try {
        rep = sim.run(trace, dur);
    } catch (const fleet::FleetSimulatedCrash &c) {
        std::fprintf(stderr, "%s\n", c.what());
        std::fprintf(stderr,
                     "fleet checkpoints%s are intact under %s; "
                     "finish the run with:\n"
                     "  edgereason serve ... --fleet %lld --resume "
                     "%s\n",
                     o.fleetJournals.empty() ? "" : " and journals",
                     o.checkpointDir.c_str(), o.fleet,
                     o.checkpointDir.c_str());
        return 3;
    }
    std::printf("served %zu requests on a %lld-node fleet of %s "
                "(router=%s, scheduler=%s, offered %.3f QPS):\n",
                trace.size(), o.fleet, o.model.c_str(),
                fleet::routerPolicyName(rep.router),
                engine::schedulerPolicyName(cfg.scheduler), o.qps);
    printFleetReport(rep);
    return 0;
}

int
cmdServe(const std::vector<std::string> &raw)
{
    std::string err;
    const auto parsed = cli::parseServeOptions(raw, &err);
    if (!parsed)
        usage(err.c_str());
    const cli::ServeOptions &o = *parsed;

    const auto id = model::modelIdFromName(o.model);
    core::EdgeReasoning er;
    auto &eng = er.registry().engineFor(id, o.quant);

    engine::ServerConfig cfg;
    cfg.maxBatch = o.maxBatch;
    cfg.prefillChunk = o.prefillChunk;
    cfg.scheduler = o.scheduler;
    if (o.scheduler == engine::SchedulerPolicy::Spjf) {
        // SPJF ranks jobs by the fitted Section-IV latency model of
        // the served engine (no oracle knowledge of run times).
        cfg.spjfModel = er.characterization(id, o.quant).latency;
    }
    cfg.degrade.mode = o.degrade;
    cfg.degrade.budget = strategy::TokenPolicy::hard(o.degradeBudget);
    cfg.exactSteps = o.exactSteps;
    cfg.prefixCache.enabled = o.prefixCacheOn();
    cfg.prefixCache.evict = o.prefixEvict;
    if (o.fleet >= 1)
        return cmdServeFleet(o, cfg);
    // Resolved once: replications share the engines' thread-safe memos.
    engine::InferenceEngine *fallback = nullptr;
    if (cfg.degrade.mode == engine::DegradeMode::Fallback) {
        // Default fallback: the quantized build of the primary model.
        const auto fb_id = o.fallbackModel.empty()
            ? id
            : model::modelIdFromName(o.fallbackModel);
        const bool fb_quant =
            o.fallbackModel.empty() ? true : o.fallbackQuant;
        fallback = &er.registry().engineFor(fb_id, fb_quant);
    }

    std::vector<engine::ServingReport> reports;
    try {
        if (o.replications > 1)
            reports = cli::serveReplications(o, eng, fallback, cfg);
        else
            reports = {cli::serveNode(o, eng, fallback, cfg, "cli-serve")};
    } catch (const engine::SimulatedCrash &c) {
        std::fprintf(stderr, "%s\n", c.what());
        std::fprintf(stderr,
                     "journal and checkpoints are intact under %s; "
                     "finish the run with:\n"
                     "  edgereason serve ... --resume %s\n",
                     o.checkpointDir.c_str(), o.checkpointDir.c_str());
        return 3;
    }
    std::printf("served ");
    if (o.replications > 1)
        std::printf("%lld replications x ", o.replications);
    if (o.sessions > 0)
        std::printf("%lld requests (%lld sessions x %lld turns) on %s "
                    "(scheduler=%s, prefix-cache=%s, evict=%s):\n",
                    o.sessions * o.turnsPerSession, o.sessions,
                    o.turnsPerSession, eng.spec().name.c_str(),
                    engine::schedulerPolicyName(cfg.scheduler),
                    cfg.prefixCache.enabled ? "on" : "off",
                    engine::prefixEvictPolicyName(
                        cfg.prefixCache.evict));
    else if (o.replications > 1)
        std::printf("%lld requests on %s (scheduler=%s, offered %.3f "
                    "QPS each):\n",
                    o.requests, eng.spec().name.c_str(),
                    engine::schedulerPolicyName(cfg.scheduler), o.qps);
    else
        std::printf("%lld requests on %s (scheduler=%s, "
                    "prefill-chunk=%lld, offered %.3f QPS):\n",
                    o.requests, eng.spec().name.c_str(),
                    engine::schedulerPolicyName(cfg.scheduler),
                    static_cast<long long>(cfg.prefillChunk), o.qps);
    if (o.replications == 1) {
        // Only --faults makes the fault plan active (crashes never do).
        printServingReport(reports[0], o.faults || o.deadline > 0.0,
                           engine::degradeModeName(cfg.degrade.mode));
        return 0;
    }
    RunningStats qps_stats, p95_stats;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto &rep = reports[i];
        std::printf("  replication %2zu: %.3f QPS, p95 %.1f s, "
                    "%zu completed\n",
                    i, rep.throughputQps, rep.p95Latency, rep.completed);
        qps_stats.add(rep.throughputQps);
        p95_stats.add(rep.p95Latency);
    }
    std::printf("  across replications: throughput %.3f +- %.3f "
                "QPS, p95 latency %.1f +- %.1f s\n",
                qps_stats.mean(), qps_stats.stddev(), p95_stats.mean(),
                p95_stats.stddev());
    return 0;
}

/**
 * Replay every per-node incarnation journal under @p dir (a fleet
 * `--fleet-journals` directory of node-<id>-inc<k>.bin WALs) and
 * print one summary line per incarnation plus fleet totals.  With
 * @p dump, print each journal's text dump instead.
 */
int
replayFleetJournals(const std::string &dir, bool dump)
{
    struct Entry
    {
        int node;
        unsigned long long inc;
        std::string path;
    };
    std::vector<Entry> entries;
    for (const auto &de : std::filesystem::directory_iterator(dir)) {
        if (!de.is_regular_file())
            continue;
        const std::string name = de.path().filename().string();
        int node = -1, consumed = 0;
        unsigned long long inc = 0;
        if (std::sscanf(name.c_str(), "node-%d-inc%llu.bin%n", &node,
                        &inc, &consumed) != 2 ||
            consumed != static_cast<int>(name.size()))
            continue;
        entries.push_back({node, inc, de.path().string()});
    }
    if (entries.empty())
        usage(("no node-<id>-inc<k>.bin journals under " + dir +
               " (expected a --fleet-journals directory)")
                  .c_str());
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.node != b.node ? a.node < b.node
                                          : a.inc < b.inc;
              });
    if (dump) {
        for (const auto &e : entries) {
            std::printf("=== node %d incarnation %llu: %s ===\n",
                        e.node, e.inc, e.path.c_str());
            engine::dumpJournalText(e.path, std::cout);
        }
        return 0;
    }
    std::printf("replaying %zu node journals under %s:\n",
                entries.size(), dir.c_str());
    std::size_t completed = 0, timed_out = 0, shed = 0;
    double energy = 0.0;
    for (const auto &e : entries) {
        engine::ServingReport rep;
        try {
            rep = engine::replayServingReport(e.path);
        } catch (const std::exception &ex) {
            // An incarnation killed before its first batch step
            // journals only a run-begin record; report it instead of
            // aborting the directory.
            std::printf("  node %2d inc %llu: not replayable (%s)\n",
                        e.node, e.inc, errorText(ex).c_str());
            continue;
        }
        std::printf("  node %2d inc %llu: %zu completed, %zu timed "
                    "out, %zu shed, %.0f J, makespan %.1f s "
                    "(scheduler=%s)\n",
                    e.node, e.inc, rep.completed, rep.timedOut,
                    rep.shed, rep.totalEnergy, rep.makespan,
                    engine::schedulerPolicyName(rep.schedulerPolicy));
        completed += rep.completed;
        timed_out += rep.timedOut;
        shed += rep.shed;
        energy += rep.totalEnergy;
    }
    std::printf("  fleet      : %zu completed, %zu timed out, "
                "%zu shed, %.0f J across %zu incarnation "
                "journals\n",
                completed, timed_out, shed, energy, entries.size());
    return 0;
}

int
cmdReplay(const std::vector<std::string> &raw)
{
    std::string path;
    bool dump = false;
    for (const auto &tok : raw) {
        if (tok == "--dump")
            dump = true;
        else if (tok.rfind("--", 0) == 0)
            usage(("unknown replay flag: " + tok).c_str());
        else if (path.empty())
            path = tok;
        else
            usage(("unexpected argument: " + tok).c_str());
    }
    if (path.empty())
        usage("replay needs a journal file or fleet journal "
              "directory: edgereason replay <journal.bin|dir> "
              "[--dump]");
    if (std::filesystem::is_directory(path))
        return replayFleetJournals(path, dump);
    if (dump) {
        engine::dumpJournalText(path, std::cout);
        return 0;
    }
    const auto rep = engine::replayServingReport(path);
    std::printf("replayed %s (scheduler=%s):\n", path.c_str(),
                engine::schedulerPolicyName(rep.schedulerPolicy));
    printServingReport(rep, true, nullptr);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Global flags may precede the command:
    //   edgereason --threads 4 sweep ...  ==  edgereason sweep --threads 4 ...
    int cmd_at = 1;
    while (cmd_at < argc && std::string(argv[cmd_at]) == "--threads")
        cmd_at += 2;
    if (cmd_at >= argc)
        usage();
    const std::string cmd = argv[cmd_at];
    if (cmd == "replay") {
        // Dispatched before the generic Args parse: replay takes a
        // positional journal path, which Args would reject.
        std::vector<std::string> raw(argv + cmd_at + 1, argv + argc);
        try {
            return cmdReplay(raw);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "error: %s\n", errorText(e).c_str());
            return 1;
        }
    }
    const Args pre(cmd_at, argv, 1);
    const Args args(argc, argv, cmd_at + 1);
    const long long threads = args.getIntIn(
        "threads",
        pre.getIntIn("threads", 0, 0, ThreadPool::kMaxThreads), 0,
        ThreadPool::kMaxThreads);
    if (threads > 0)
        ThreadPool::setGlobalThreads(static_cast<unsigned>(threads));
    try {
        if (cmd == "spec")
            return cmdSpec();
        if (cmd == "models")
            return cmdModels();
        if (cmd == "characterize")
            return cmdCharacterize(args);
        if (cmd == "evaluate")
            return cmdEvaluate(args);
        if (cmd == "plan")
            return cmdPlan(args);
        if (cmd == "sweep")
            return cmdSweep(args);
        if (cmd == "serve") {
            std::vector<std::string> raw(argv + cmd_at + 1,
                                         argv + argc);
            return cmdServe(raw);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", errorText(e).c_str());
        return 1;
    }
    usage(("unknown command: " + cmd).c_str());
}
