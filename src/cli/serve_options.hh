/**
 * @file
 * Flag parsing for the CLI `serve` subcommand, extracted into a pure
 * function so malformed input is unit-testable: parseServeOptions()
 * never exits, prints, or touches globals — it returns the parsed
 * options or an error string for the caller (tools/edgereason_cli.cc)
 * to turn into a usage message.
 */

#ifndef EDGEREASON_CLI_SERVE_OPTIONS_HH
#define EDGEREASON_CLI_SERVE_OPTIONS_HH

#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "engine/scheduler.hh"
#include "engine/server.hh"
#include "fleet/router.hh"

namespace edgereason {
namespace cli {

/** Parsed `serve` subcommand flags (defaults = flag omitted). */
struct ServeOptions
{
    std::string model = "DeepScaleR-1.5B";
    bool quant = false;

    // --- Trace shape -----------------------------------------------
    long long requests = 100;
    double qps = 0.1;
    double meanIn = 120.0;
    double meanOut = 1024.0;
    long long seed = 777;
    Seconds deadline = 0.0; //!< per-request relative deadline (0 = none)

    // --- Scheduler / executor --------------------------------------
    int maxBatch = 30;
    Tokens prefillChunk = 0;
    engine::SchedulerPolicy scheduler = engine::SchedulerPolicy::Fcfs;

    // --- Degradation -----------------------------------------------
    engine::DegradeMode degrade = engine::DegradeMode::None;
    Tokens degradeBudget = 256;
    std::string fallbackModel; //!< empty = quantized primary
    bool fallbackQuant = false;

    // --- Fault plan ------------------------------------------------
    bool faults = false;
    unsigned long long faultSeed = 0xFA17;
    double ambient = 32.0;
    double brownoutRate = 2.0;
    double kvShrinkRate = 1.0;

    // --- Crash safety (DESIGN.md §9) -------------------------------
    /** Journal + checkpoint directory (empty = durability off). */
    std::string checkpointDir;
    /** Checkpoint every N batch steps (0 = only the step-0 one). */
    unsigned long long checkpointEvery = 0;
    /** Resume from the latest checkpoint in checkpointDir. */
    bool resume = false;
    /** Run the invariant auditor at every batch-step boundary. */
    bool paranoid = false;
    /** Simulated kill at batch step N (-1 disables). */
    long long crashAtStep = -1;
    /** Simulated kill at the first boundary at/after sim time T. */
    double crashAtTime = -1.0;
    /** Mean Poisson crashes per hour of sim time (0 disables). */
    double crashRate = 0.0;

    /** Token-by-token decode (legacy loop) instead of macro-stepping
     *  to the next scheduler event (DESIGN.md §10). */
    bool exactSteps = false;

    // --- Session workload / prefix cache (DESIGN.md §13) -----------
    /**
     * Session count for the multi-turn workload; 0 = flag omitted
     * (single-turn Poisson trace).  `--sessions N` switches the trace
     * generator to chat sessions that share a system prompt and
     * re-submit their full context each turn, which is what the
     * radix prefix index exploits.
     */
    long long sessions = 0;
    long long turnsPerSession = 4; //!< requests per session
    double sessionQps = 0.5;       //!< session starts per second
    double turnGap = 20.0;         //!< mean seconds between turns
    long long systemPrompt = 512;  //!< shared system-prompt tokens
    /** Tri-state --prefix-cache on|off: -1 = flag omitted, meaning
     *  on exactly when --sessions is given (legacy traces keep the
     *  bit-identical non-prefix path by default). */
    int prefixCache = -1;
    engine::PrefixEvictPolicy prefixEvict =
        engine::PrefixEvictPolicy::Lru;

    /** @return whether the resolved prefix-cache mode is on. */
    bool prefixCacheOn() const
    {
        return prefixCache == 1 || (prefixCache == -1 && sessions > 0);
    }

    // --- Replications (DESIGN.md §11) -----------------------------
    /** Independent runs to simulate: > 1 runs the plain single-node
     *  body once per "shard/<i>" seed stream (cli/serve_run.hh).  They
     *  cannot share a checkpoint directory, so they exclude durability
     *  (and with it crash injection); they exclude --fleet too. */
    long long replications = 1;

    // --- Fleet serving (DESIGN.md §12, §14) ------------------------
    /**
     * Node count of the fleet simulator; 0 = flag omitted (single-node
     * serve).  `--fleet N` (N >= 1) switches serve to the resilient
     * multi-node path: router + retry/hedge/failover over
     * fault-injected nodes.  Fleet mode composes with durability
     * (--checkpoint-dir/--checkpoint-every/--resume/--paranoid) and
     * fleet crash injection (--crash-at-event/--crash-at-time); it
     * excludes --replications > 1, the single-node crash flags
     * (--crash-at-step/--crash-rate), the spjf scheduler, and
     * fallback degradation.
     */
    long long fleet = 0;
    /** Simulated fleet-process kill just before fleet event N (-1
     *  disables; fleet mode only — the single-node coordinate is
     *  --crash-at-step). */
    long long crashAtEvent = -1;
    fleet::RouterPolicy router = fleet::RouterPolicy::RoundRobin;
    /** Cycle node power modes MAXN/50W/30W/15W (heterogeneous fleet). */
    bool hetero = false;
    /** Apply the behavioural fault plan (thermal/brownout/KV-shrink)
     *  inside every node, from node-scoped RNG streams. */
    bool nodeFaults = false;
    double nodeCrashRate = 0.0;   //!< node crashes per hour
    double nodeReboot = 20.0;     //!< mean reboot seconds
    double nodeDegradeRate = 0.0; //!< degrade windows per hour
    double nodeDegradeMean = 60.0; //!< mean degrade-window seconds
    // Gray failures (DESIGN.md §14): alive, responsive, slow.
    double nodeSlowdownRate = 0.0; //!< slowdown windows per hour
    double nodeSlowdownMean = 90.0; //!< mean slowdown-window seconds
    double nodeSlowdownMult = 8.0; //!< peak step-cost multiplier
    double nodeFlapRate = 0.0;    //!< health-flap windows per hour
    double nodeFlapMean = 5.0;    //!< mean flap-window seconds
    // Quantile-adaptive health (DESIGN.md §14).
    bool adaptiveHealth = false;  //!< latency-quantile breaker on
    double healthQuantile = 0.95; //!< streamed per-node quantile
    double healthMultiple = 3.0;  //!< ejection multiple of fleet median
    double adaptiveTimeout = 0.0; //!< per-try cap multiple (0 = off)
    long long retry = 3;          //!< max re-dispatches per request
    double retryBackoff = 0.25;   //!< base backoff, doubles per try
    double requestTimeout = 0.0;  //!< per-try budget cap (0 = deadline)
    double hedge = 0.0;           //!< hedge slack fraction (0 = off)
    std::string cloud;            //!< offload tier: o4-mini|o1-preview
    double cloudRtt = 0.15;       //!< cloud round-trip seconds
    std::string fleetJournals;    //!< per-node journal directory
    /** Stream the trace (`--stream`): requests are drawn one at a
     *  time and terminal state folds away, so the run never holds the
     *  materialized trace vector; memory is O(in-flight) plus the one
     *  8-byte latency per finished request that the exact percentiles
     *  need.  The report is identical to the materialized run's.
     *  Excludes checkpoint/resume/crash injection. */
    bool stream = false;
};

/**
 * Whole-string numeric parses shared by every CLI flag: false on
 * anything std::stoll/std::stod rejects and on trailing characters
 * ("12x", "2.5s").
 */
bool parseLong(const std::string &s, long long *out);
bool parseDouble(const std::string &s, double *out);

/**
 * Parse `serve` flags ("--key value ..." tokens, without the leading
 * program/command names).  Unknown flags, missing values, malformed
 * numbers, and out-of-range values are all rejected.
 *
 * @param args  raw flag tokens, e.g. {"--scheduler", "edf"}
 * @param error  set to a one-line description on failure
 * @return the options, or nullopt with *error set
 */
std::optional<ServeOptions>
parseServeOptions(const std::vector<std::string> &args,
                  std::string *error);

} // namespace cli
} // namespace edgereason

#endif // EDGEREASON_CLI_SERVE_OPTIONS_HH
