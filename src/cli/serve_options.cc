#include "cli/serve_options.hh"

#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <set>

#include "common/thread_pool.hh"
#include "engine/engine.hh"

namespace edgereason {
namespace cli {

namespace {

constexpr double kUnbounded = std::numeric_limits<double>::infinity();
constexpr long long kNoMax = std::numeric_limits<long long>::max();

/** Counts that end up in an int (--max-batch, --retry) stay within the
 *  largest batch the engine prices, far inside int. */
constexpr long long kMaxCount = engine::InferenceEngine::kMaxStepRows;

/** --mean-in/--mean-out are capped at 1e9 tokens, so a sampled length
 *  stays far inside the token range. */
constexpr const char *kMeanTokensRange = "in [1, 1e9]";
const double kMeanTokensBelow = std::nextafter(1e9, kUnbounded);

} // namespace

bool
parseLong(const std::string &s, long long *out)
{
    try {
        std::size_t pos = 0;
        *out = std::stoll(s, &pos);
        return pos == s.size();
    } catch (const std::exception &) {
        return false;
    }
}

bool
parseDouble(const std::string &s, double *out)
{
    try {
        std::size_t pos = 0;
        *out = std::stod(s, &pos);
        return pos == s.size();
    } catch (const std::exception &) {
        return false;
    }
}

namespace {

bool
parseDegradeMode(const std::string &s, engine::DegradeMode *out)
{
    if (s == "none")
        *out = engine::DegradeMode::None;
    else if (s == "budget")
        *out = engine::DegradeMode::Budget;
    else if (s == "fallback")
        *out = engine::DegradeMode::Fallback;
    else
        return false;
    return true;
}

} // namespace

std::optional<ServeOptions>
parseServeOptions(const std::vector<std::string> &args,
                  std::string *error)
{
    ServeOptions opt;
    const auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return std::nullopt;
    };

    // Value-taking handlers: each consumes one value token and
    // returns an error message (empty = ok).
    using Handler = std::function<std::string(const std::string &)>;
    // An integer in [min, max]; the message words the bound as
    // ">= min" when no max is given.
    const auto longOpt = [&](long long *dst, long long min,
                             const char *what, long long max = kNoMax) {
        return Handler([=](const std::string &v) {
            long long x = 0;
            if (!parseLong(v, &x))
                return std::string(what) + ": not an integer: " + v;
            if (x < min || x > max)
                return std::string(what) + " must be " +
                    (max == kNoMax
                         ? ">= " + std::to_string(min)
                         : "in [" + std::to_string(min) + ", " +
                             std::to_string(max) + "]") +
                    ", got " + v;
            *dst = x;
            return std::string();
        });
    };
    // A finite double in [min, below); @p range, when given, words
    // the bound in the error message instead of ">= min".
    const auto doubleOpt = [&](double *dst, double min,
                               const char *what,
                               const char *range = nullptr,
                               double below = kUnbounded) {
        return Handler([=](const std::string &v) {
            double x = 0.0;
            if (!parseDouble(v, &x))
                return std::string(what) + ": not a number: " + v;
            if (!std::isfinite(x))
                return std::string(what) + " must be finite, got " + v;
            if (x < min || x >= below)
                return std::string(what) + " must be " +
                    (range ? std::string(range)
                           : ">= " + std::to_string(min)) +
                    ", got " + v;
            *dst = x;
            return std::string();
        });
    };

    // Flags that only mean something on a fleet run (--fleet N) or a
    // session trace (--sessions N).  Giving one outside its mode is an
    // error whatever its value, so no flag is ever silently ignored.
    static const std::set<std::string> fleet_scoped = {
        "router", "hetero", "node-faults", "node-crash-rate",
        "node-reboot", "node-degrade-rate", "node-degrade-mean",
        "node-slowdown-rate", "node-slowdown-mean", "node-slowdown-mult",
        "node-flap-rate", "node-flap-mean", "adaptive-health",
        "health-quantile", "health-multiple", "adaptive-timeout",
        "retry", "retry-backoff", "request-timeout", "hedge", "cloud",
        "cloud-rtt", "fleet-journals", "stream",
    };
    static const std::set<std::string> session_scoped = {
        "turns-per-session", "session-qps", "turn-gap", "system-prompt",
    };
    bool fleet_only_flag = false;   // a fleet-scoped flag was given
    bool session_only_flag = false; // a session-scoped flag was given
    bool prefix_evict_given = false;
    long long max_batch = opt.maxBatch;
    // main() applies --threads before dispatch; it is only validated
    // here, since main passes the raw arguments through.
    long long threads = 0;
    long long prefill_chunk = opt.prefillChunk;
    long long degrade_budget = opt.degradeBudget;
    long long fault_seed = static_cast<long long>(opt.faultSeed);
    long long checkpoint_every =
        static_cast<long long>(opt.checkpointEvery);

    const std::map<std::string, Handler> value_flags = {
        {"model", [&](const std::string &v) {
             opt.model = v;
             return std::string();
         }},
        {"requests", longOpt(&opt.requests, 1, "--requests")},
        {"qps", doubleOpt(&opt.qps, 0.0, "--qps")},
        {"mean-in", doubleOpt(&opt.meanIn, 1.0, "--mean-in",
                              kMeanTokensRange, kMeanTokensBelow)},
        {"mean-out", doubleOpt(&opt.meanOut, 1.0, "--mean-out",
                               kMeanTokensRange, kMeanTokensBelow)},
        {"seed", longOpt(&opt.seed, 0, "--seed")},
        {"deadline", doubleOpt(&opt.deadline, 0.0, "--deadline")},
        {"max-batch", longOpt(&max_batch, 1, "--max-batch", kMaxCount)},
        {"prefill-chunk",
         longOpt(&prefill_chunk, 0, "--prefill-chunk")},
        {"scheduler", [&](const std::string &v) {
             const auto p = engine::schedulerPolicyFromName(v);
             if (!p)
                 return "invalid --scheduler policy: " + v +
                     " (expected fcfs|edf|spjf)";
             opt.scheduler = *p;
             return std::string();
         }},
        {"degrade", [&](const std::string &v) {
             if (!parseDegradeMode(v, &opt.degrade))
                 return "invalid --degrade mode: " + v +
                     " (expected none|budget|fallback)";
             return std::string();
         }},
        {"degrade-budget",
         longOpt(&degrade_budget, 1, "--degrade-budget")},
        {"fallback-model", [&](const std::string &v) {
             opt.fallbackModel = v;
             return std::string();
         }},
        {"fault-seed", longOpt(&fault_seed, 0, "--fault-seed")},
        {"ambient", doubleOpt(&opt.ambient, -273.0, "--ambient")},
        {"brownout-rate",
         doubleOpt(&opt.brownoutRate, 0.0, "--brownout-rate")},
        {"kv-shrink-rate",
         doubleOpt(&opt.kvShrinkRate, 0.0, "--kv-shrink-rate")},
        {"checkpoint-dir", [&](const std::string &v) {
             opt.checkpointDir = v;
             return std::string();
         }},
        {"checkpoint-every",
         longOpt(&checkpoint_every, 1, "--checkpoint-every")},
        {"resume", [&](const std::string &v) {
             // --resume DIR implies --checkpoint-dir DIR.
             opt.checkpointDir = v;
             opt.resume = true;
             return std::string();
         }},
        {"crash-at-step",
         longOpt(&opt.crashAtStep, 0, "--crash-at-step")},
        {"crash-at-event",
         longOpt(&opt.crashAtEvent, 0, "--crash-at-event")},
        {"crash-at-time",
         doubleOpt(&opt.crashAtTime, 0.0, "--crash-at-time")},
        {"crash-rate", doubleOpt(&opt.crashRate, 0.0, "--crash-rate")},
        {"replications",
         longOpt(&opt.replications, 1, "--replications")},
        {"fleet", longOpt(&opt.fleet, 1, "--fleet")},
        {"router", [&](const std::string &v) {
             const auto p = fleet::routerPolicyFromName(v);
             if (!p)
                 return "invalid --router policy: " + v +
                     " (expected rr|least|deadline|cost)";
             opt.router = *p;
             return std::string();
         }},
        {"node-crash-rate",
         doubleOpt(&opt.nodeCrashRate, 0.0, "--node-crash-rate")},
        {"node-reboot",
         doubleOpt(&opt.nodeReboot, 0.0, "--node-reboot")},
        {"node-degrade-rate",
         doubleOpt(&opt.nodeDegradeRate, 0.0, "--node-degrade-rate")},
        {"node-degrade-mean",
         doubleOpt(&opt.nodeDegradeMean, 0.0, "--node-degrade-mean")},
        {"node-slowdown-rate",
         doubleOpt(&opt.nodeSlowdownRate, 0.0, "--node-slowdown-rate")},
        {"node-slowdown-mean",
         doubleOpt(&opt.nodeSlowdownMean, 0.0, "--node-slowdown-mean")},
        {"node-slowdown-mult",
         doubleOpt(&opt.nodeSlowdownMult, 0.0, "--node-slowdown-mult")},
        {"node-flap-rate",
         doubleOpt(&opt.nodeFlapRate, 0.0, "--node-flap-rate")},
        {"node-flap-mean",
         doubleOpt(&opt.nodeFlapMean, 0.0, "--node-flap-mean")},
        {"health-quantile",
         doubleOpt(&opt.healthQuantile, 0.0, "--health-quantile")},
        {"health-multiple",
         doubleOpt(&opt.healthMultiple, 0.0, "--health-multiple")},
        {"adaptive-timeout",
         doubleOpt(&opt.adaptiveTimeout, 0.0, "--adaptive-timeout")},
        {"retry", longOpt(&opt.retry, 0, "--retry", kMaxCount)},
        {"retry-backoff",
         doubleOpt(&opt.retryBackoff, 0.0, "--retry-backoff",
                   "non-negative (seconds of base backoff)")},
        {"request-timeout",
         doubleOpt(&opt.requestTimeout, 0.0, "--request-timeout")},
        {"hedge",
         doubleOpt(&opt.hedge, 0.0, "--hedge",
                   "in [0, 1) — the fraction of the deadline budget "
                   "to wait before hedging",
                   1.0)},
        {"cloud", [&](const std::string &v) {
             if (v != "o4-mini" && v != "o1-preview")
                 return "invalid --cloud tier: " + v +
                     " (expected o4-mini|o1-preview)";
             opt.cloud = v;
             return std::string();
         }},
        {"cloud-rtt",
         doubleOpt(&opt.cloudRtt, 0.0, "--cloud-rtt",
                   "non-negative (seconds of cloud round trip)")},
        {"fleet-journals", [&](const std::string &v) {
             opt.fleetJournals = v;
             return std::string();
         }},
        {"sessions", longOpt(&opt.sessions, 1, "--sessions")},
        {"turns-per-session",
         longOpt(&opt.turnsPerSession, 1, "--turns-per-session")},
        {"session-qps", doubleOpt(&opt.sessionQps, 0.0, "--session-qps")},
        {"turn-gap", doubleOpt(&opt.turnGap, 0.0, "--turn-gap")},
        {"system-prompt",
         longOpt(&opt.systemPrompt, 0, "--system-prompt")},
        {"prefix-cache", [&](const std::string &v) {
             if (v == "on")
                 opt.prefixCache = 1;
             else if (v == "off")
                 opt.prefixCache = 0;
             else
                 return "invalid --prefix-cache value: " + v +
                     " (expected on|off)";
             return std::string();
         }},
        {"prefix-evict", [&](const std::string &v) {
             if (v == "lru")
                 opt.prefixEvict = engine::PrefixEvictPolicy::Lru;
             else if (v == "cost")
                 opt.prefixEvict = engine::PrefixEvictPolicy::Cost;
             else
                 return "invalid --prefix-evict policy: " + v +
                     " (expected lru|cost)";
             prefix_evict_given = true;
             return std::string();
         }},
        {"threads", longOpt(&threads, 0, "--threads",
                             ThreadPool::kMaxThreads)},
    };
    const std::map<std::string, bool *> bool_flags = {
        {"quant", &opt.quant},
        {"faults", &opt.faults},
        {"fallback-quant", &opt.fallbackQuant},
        {"paranoid", &opt.paranoid},
        {"exact-steps", &opt.exactSteps},
        {"hetero", &opt.hetero},
        {"node-faults", &opt.nodeFaults},
        {"adaptive-health", &opt.adaptiveHealth},
        {"stream", &opt.stream},
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &tok = args[i];
        if (tok.rfind("--", 0) != 0)
            return fail("unexpected argument: " + tok);
        const std::string key = tok.substr(2);
        fleet_only_flag |= fleet_scoped.count(key) > 0;
        session_only_flag |= session_scoped.count(key) > 0;

        if (const auto b = bool_flags.find(key);
            b != bool_flags.end()) {
            *b->second = true;
            continue;
        }
        const auto v = value_flags.find(key);
        if (v == value_flags.end())
            return fail("unknown serve flag: " + tok);
        if (i + 1 >= args.size() ||
            args[i + 1].rfind("--", 0) == 0)
            return fail("missing value for " + tok);
        const std::string err = v->second(args[++i]);
        if (!err.empty())
            return fail(err);
    }

    // Per-mode flag scopes and exclusions, one row each: in a run
    // where `mode` holds, `conflict` is an error.  Rows are checked in
    // order and the first violated one is reported.
    const bool crash_on = opt.crashAtStep >= 0 ||
        opt.crashAtEvent >= 0 || opt.crashAtTime >= 0.0 ||
        opt.crashRate > 0.0;
    const bool durable = !opt.checkpointDir.empty() || opt.resume;
    const bool fallback = opt.degrade == engine::DegradeMode::Fallback;
    const bool replicated = opt.replications > 1;
    const bool fleet = opt.fleet >= 1;
    const bool sessions = opt.sessions > 0;
    const bool prefix = opt.prefixCacheOn();
    struct Rule
    {
        bool mode;
        bool conflict;
        const char *error;
    };
    const Rule rules[] = {
        {true, opt.qps <= 0.0, "--qps must be positive"},
        {sessions, opt.sessionQps <= 0.0,
         "--session-qps must be positive"},
        {sessions, opt.turnGap <= 0.0, "--turn-gap must be positive"},
        {true, crash_on && opt.checkpointDir.empty(),
         "crash injection needs --checkpoint-dir (or --resume) so the "
         "run can be recovered"},

        {replicated, durable,
         "--replications > 1 excludes --checkpoint-dir/--resume (the "
         "runs cannot share one checkpoint directory)"},

        // The fleet path owns faults and routing itself; per-run
        // single-node machinery does not compose with it, but fleet
        // durability (checkpoint/resume + fleet crash injection) does.
        {fleet, replicated,
         "--fleet excludes --replications > 1 (fleet runs are already "
         "multi-node)"},
        {fleet, opt.crashAtStep >= 0 || opt.crashRate > 0.0,
         "--fleet excludes --crash-at-step/--crash-rate (fleet crash "
         "injection is --crash-at-event/--crash-at-time)"},
        {fleet, opt.faults,
         "--fleet excludes --faults (use --node-faults for per-node "
         "behavioural faults)"},
        {fleet, opt.scheduler == engine::SchedulerPolicy::Spjf,
         "--fleet excludes --scheduler spjf (nodes carry no fitted "
         "latency model)"},
        {fleet, fallback,
         "--fleet excludes --degrade fallback (no per-node fallback "
         "engine)"},
        {fleet, opt.nodeCrashRate > 0.0 && opt.nodeReboot <= 0.0,
         "--node-reboot must be positive when --node-crash-rate is "
         "set"},
        {fleet, opt.nodeDegradeRate > 0.0 && opt.nodeDegradeMean <= 0.0,
         "--node-degrade-mean must be positive when "
         "--node-degrade-rate is set"},
        {fleet,
         opt.nodeSlowdownRate > 0.0 && opt.nodeSlowdownMean <= 0.0,
         "--node-slowdown-mean must be positive when "
         "--node-slowdown-rate is set"},
        {fleet,
         opt.nodeSlowdownRate > 0.0 && opt.nodeSlowdownMult <= 1.0,
         "--node-slowdown-mult must be > 1 when --node-slowdown-rate "
         "is set (1 is no slowdown)"},
        {fleet, opt.nodeFlapRate > 0.0 && opt.nodeFlapMean <= 0.0,
         "--node-flap-mean must be positive when --node-flap-rate is "
         "set"},
        {fleet, opt.healthQuantile <= 0.0 || opt.healthQuantile >= 1.0,
         "--health-quantile must be in (0, 1)"},
        {fleet, opt.healthMultiple <= 1.0,
         "--health-multiple must be > 1 (the fleet median itself would "
         "trip)"},
        {fleet, opt.adaptiveTimeout > 0.0 && !opt.adaptiveHealth,
         "--adaptive-timeout needs --adaptive-health (it caps per-try "
         "budgets from the streamed quantiles)"},
        // The checkpoint fingerprint hashes the whole trace, and a
        // streamed run holds only the next request.  (Fleet crash
        // injection is excluded with them: it needs a checkpoint
        // directory.)
        {fleet && opt.stream, durable,
         "--stream excludes --checkpoint-dir/--resume (the checkpoint "
         "fingerprint needs the whole trace)"},
        {fleet && opt.stream, !opt.fleetJournals.empty(),
         "--stream excludes --fleet-journals (per-node WALs are a "
         "crash-recovery artifact, and a streamed run cannot resume)"},
        {!fleet, fleet_only_flag,
         "fleet flags (--router, --hedge, --cloud, --adaptive-health, "
         "--node-*) need --fleet N"},
        {!fleet, opt.crashAtEvent >= 0,
         "--crash-at-event needs --fleet N (the single-node crash "
         "coordinate is --crash-at-step)"},

        // Session traces are single-node workloads.
        {sessions, fleet,
         "--sessions excludes --fleet (fleet requests carry no prefix "
         "identity)"},
        {!sessions, session_only_flag,
         "session flags (--turns-per-session, --session-qps, "
         "--turn-gap, --system-prompt) need --sessions N"},

        {prefix, fleet,
         "--prefix-cache on excludes --fleet (nodes run the "
         "single-node executor without a shared index)"},
        {!prefix, prefix_evict_given,
         "--prefix-evict needs the prefix cache on (--prefix-cache on "
         "or --sessions N)"},
    };
    for (const Rule &r : rules)
        if (r.mode && r.conflict)
            return fail(r.error);

    opt.maxBatch = static_cast<int>(max_batch);
    opt.prefillChunk = static_cast<Tokens>(prefill_chunk);
    opt.degradeBudget = static_cast<Tokens>(degrade_budget);
    opt.faultSeed = static_cast<unsigned long long>(fault_seed);
    opt.checkpointEvery =
        static_cast<unsigned long long>(checkpoint_every);
    return opt;
}

} // namespace cli
} // namespace edgereason
