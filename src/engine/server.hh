/**
 * @file
 * Continuous-batching serving simulator.  The paper observes that
 * "edge deployment costs also benefit from batching and increased
 * queries per second" (Section III-B); this module quantifies that
 * claim: requests arrive over time (Poisson or trace-driven), a
 * vLLM-style scheduler admits them into a shared decode batch as KV
 * memory allows, and the simulator reports the latency distribution,
 * throughput, power and energy per query as functions of offered load.
 *
 * The serving stack is layered (see DESIGN.md §8):
 *  - engine/request_state.hh — the per-request lifecycle state machine
 *    (Queued -> Prefilling -> Decoding -> Preempted -> Done);
 *  - engine/scheduler.hh — pluggable admission policies (fcfs / edf /
 *    spjf);
 *  - engine/executor.hh — the BatchExecutor, which owns engine
 *    stepping, KV admission, chunked prefill, and fault/derating
 *    application;
 *  - ServingSimulator::run — a trace cursor and durability (audit,
 *    checkpoints, crash injection) around BatchExecutor::runCycle,
 *    the serving cycle it shares with fleet nodes.
 *
 * The decode loop is step-synchronous, which is how continuous
 * batching behaves on a single GPU: every active sequence advances one
 * token per engine step and the step cost comes from the roofline
 * model at the current batch size.  Prefills interleave between decode
 * steps; with chunked prefill (ServerConfig::prefillChunk > 0) a long
 * prompt is processed in bounded chunks so it can no longer stall the
 * whole decode batch for its full length.
 *
 * Beyond the ideal-conditions study, a run can carry a FaultPlan
 * (engine/faults.hh): thermal throttling derates step speed and power,
 * brownouts stall the device, and KV-shrink windows force preemption.
 * The executor then reacts with deadline-based admission control and
 * mid-flight aborts, recompute-on-resume preemption with bounded
 * exponential-backoff retry, and optional degraded modes (token-budget
 * shrink via strategy/policy, or whole-device fallback to a smaller /
 * quantized model).  A run without an active fault plan under the
 * default fcfs policy with chunking disabled executes the exact legacy
 * arithmetic, bit for bit.
 */

#ifndef EDGEREASON_ENGINE_SERVER_HH
#define EDGEREASON_ENGINE_SERVER_HH

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "engine/engine.hh"
#include "engine/faults.hh"
#include "engine/request_state.hh"
#include "engine/scheduler.hh"
#include "strategy/policy.hh"

namespace edgereason {
namespace engine {

/**
 * The executor's scalar integrators, grouped so the journal can
 * snapshot them per step and checkpoint/restore can move them as one
 * unit.  All doubles integrate monotonically over a run (the auditor
 * relies on that).
 */
struct ExecAccumulators
{
    Seconds clock = 0.0;
    Seconds busy = 0.0;
    Seconds throttledBusy = 0.0;
    Joules energy = 0.0;
    double batchTimeWeighted = 0.0;
    double committedKv = 0.0; //!< scalar-mode reserved KV bytes
    double generatedTokens = 0.0;
    std::uint64_t preemptions = 0;
    std::uint64_t nextEvent = 0; //!< fault-event cursor
    /** Whole-batch decode steps executed (same in exact and macro mode). */
    std::uint64_t decodeSteps = 0;
    /**
     * Coalesced decode journal records emitted — one per decodeStep()
     * in exact mode, one per macro segment otherwise.  The only
     * accumulator that legitimately differs between the two modes.
     */
    std::uint64_t macroSegments = 0;

    // --- Prefix-cache accounting (zero unless the index is enabled) --
    double admittedPromptTokens = 0.0; //!< prompt tokens of all admissions
    double cachedPrefixTokens = 0.0;   //!< of which served from the index
    Seconds prefillSecondsSaved = 0.0; //!< prefill work avoided by hits
    std::uint64_t prefixEvictions = 0; //!< index pages reclaimed
};

/** Aggregate serving metrics. */
struct ServingReport
{
    std::size_t completed = 0;
    Seconds makespan = 0.0;      //!< first arrival -> last completion
    double throughputQps = 0.0;
    double avgBatch = 0.0;       //!< time-weighted decode batch size
    Seconds meanLatency = 0.0;   //!< over completed requests
    Seconds p50Latency = 0.0;
    Seconds p95Latency = 0.0;
    Seconds p99Latency = 0.0;
    Joules totalEnergy = 0.0;
    Joules energyPerQuery = 0.0;
    double generatedTokens = 0.0;
    /** Device-busy fraction of the makespan. */
    double utilization = 0.0;

    // --- Queueing observability (per scheduling policy) ------------
    /** Admission policy that produced this report. */
    SchedulerPolicy schedulerPolicy = SchedulerPolicy::Fcfs;
    /** Mean admission wait over all requests (incl. shed waits). */
    Seconds meanQueueDelay = 0.0;
    Seconds p95QueueDelay = 0.0;
    Seconds p99QueueDelay = 0.0;
    /** Largest wait-queue depth observed during the run. */
    std::size_t peakQueueDepth = 0;

    // --- Fault/degradation observability ---------------------------
    std::size_t timedOut = 0;          //!< aborted at their deadline
    std::size_t shed = 0;              //!< never admitted to service
    std::size_t cancelled = 0;         //!< withdrawn by the caller
    std::size_t retriedCompleted = 0;  //!< completed after >=1 preempt
    std::size_t degradedCompleted = 0; //!< completed under degradation
    std::uint64_t preemptions = 0;     //!< total eviction events
    /** Deadline-met completions per second of makespan (== throughput
     *  when no request carries a deadline). */
    double goodputQps = 0.0;
    /** Completed-within-deadline fraction of deadline-carrying
     *  requests (1.0 when none carry a deadline). */
    double deadlineHitRate = 1.0;
    /** Fraction of busy time spent below MAXN (thermal throttle). */
    double throttleResidency = 0.0;

    // --- Prefix-cache observability (DESIGN.md §13) -----------------
    /** Prompt tokens served from the prefix index over the whole run. */
    double cachedPrefixTokens = 0.0;
    /** cachedPrefixTokens / admitted prompt tokens (0 when the index
     *  is off or nothing was admitted). */
    double prefixHitRate = 0.0;
    /** Prefill seconds avoided by starting prefills past the cached
     *  prefix: prefillLatency(input) minus prefillSuffixLatency(cached,
     *  input - cached), both from the engine's memo, at admission. */
    Seconds prefillSecondsSaved = 0.0;
    /** Index pages evicted under memory pressure. */
    std::uint64_t prefixEvictions = 0;
};

/** Degraded-mode selection. */
enum class DegradeMode {
    None,     //!< no reaction: ride the throttle out
    Budget,   //!< shrink admitted token budgets via strategy/policy
    Fallback, //!< hot-swap the device to a fallback engine
};

/** @return human-readable degrade-mode name. */
const char *degradeModeName(DegradeMode m);

/** Graceful-degradation policy (consulted only under active faults). */
struct DegradePolicy
{
    DegradeMode mode = DegradeMode::None;
    /**
     * Budget mode: the token-control policy applied to new admissions
     * while the thermal governor holds a derated mode.  Hard-capped
     * kinds clamp the request's output budget.
     */
    strategy::TokenPolicy budget = strategy::TokenPolicy::hard(256);
    /** Max preemption retries before a request is shed. */
    int maxRetries = 3;
    /** Base retry backoff; doubles per successive preemption. */
    Seconds retryBackoff = 0.5;
};

/** Scheduler limits. */
struct ServerConfig
{
    /** Hard cap on concurrent decoding sequences. */
    int maxBatch = 32;
    /**
     * Fraction of the KV budget the scheduler is willing to commit
     * (vLLM-style watermark to absorb generation-length variance).
     */
    double kvWatermark = 0.9;
    /**
     * Chunked prefill: process at most this many prompt tokens
     * between decode steps instead of stalling the whole batch for a
     * full prefill (0 disables chunking).  Chunk costs come from
     * prefillSuffixLatency(done, chunk), memoized in the engine, so the
     * attention-over-prefix work of later chunks is priced in.  Long prompts then admit gradually,
     * bounding the decode stall per step and improving tail latency
     * for in-flight requests.
     */
    Tokens prefillChunk = 0;
    /** Admission policy (see engine/scheduler.hh). */
    SchedulerPolicy scheduler = SchedulerPolicy::Fcfs;
    /**
     * Fitted latency model backing SchedulerPolicy::Spjf (required
     * for that policy, ignored otherwise): get one from
     * core::EdgeReasoning::characterization().latency or
     * perf::fitPrefill/fitDecode.
     */
    perf::LatencyModel spjfModel{};
    /** Reaction policy under faults (ignored on zero-fault runs). */
    DegradePolicy degrade;
    /**
     * Run decode one token per executor call (the legacy loop)
     * instead of macro-stepping to the next scheduler-visible event
     * (DESIGN.md §10).  The two modes produce bit-identical reports;
     * exact mode remains the executable specification and gives
     * per-token journal granularity (one Step record per token
     * instead of one per macro segment).
     */
    bool exactSteps = false;
    /**
     * Upper bound on decode steps fast-forwarded per macro segment
     * (0 = unbounded).  Durability never shortens a segment:
     * checkpoints fall at cycle boundaries, which durable and plain
     * runs share (DESIGN.md §9).
     */
    std::uint64_t macroHorizonCap = 0;
    /**
     * Cross-request prefix index over KV blocks (DESIGN.md §13).
     * Off by default: the legacy accounting path is then executed
     * bit-identically.  Enabling it switches the executor to paged KV
     * accounting even on zero-fault runs (the index needs physical
     * blocks to share).
     */
    PrefixCacheConfig prefixCache;
};

/**
 * Derive a ServingReport from the per-request records plus the final
 * accumulator snapshot.  This is THE report arithmetic: the executor's
 * report() and journal replay (engine/journal.hh) both call it, which
 * is what makes a replayed report bit-identical to the live one.
 */
ServingReport buildServingReport(const std::vector<ServedRequest> &served,
                                 const ExecAccumulators &acc,
                                 Seconds first_arrival,
                                 SchedulerPolicy policy,
                                 std::size_t peak_queue_depth);

/**
 * Crash-safety controls for one serving run (all off by default).
 * See DESIGN.md §9: checkpoints snapshot the full run state at a
 * batch-step boundary; the write-ahead journal records every
 * externally-visible event; recovery = latest checkpoint + journal
 * tail, and a resumed run is bit-identical to an uninterrupted one.
 */
struct DurabilityOptions
{
    /**
     * Directory for the journal (journal.bin) and checkpoints
     * (ckpt-<step>.bin).  Empty disables both journaling and
     * checkpointing.  Created if missing.
     */
    std::string checkpointDir;
    /** Write a checkpoint every N batch-step boundaries (0 = only the
     *  initial step-0 checkpoint). */
    std::uint64_t checkpointEvery = 0;
    /** Resume from the latest valid checkpoint in checkpointDir
     *  instead of starting fresh. */
    bool resume = false;
    /**
     * On resume, verify each re-emitted journal record byte-for-byte
     * against the pre-crash journal tail (deterministic-replay check;
     * a mismatch means the resumed run diverged and is a fatal()).
     */
    bool verifyTail = true;
    /** Run the invariant auditor (engine/auditor.hh) at every
     *  batch-step boundary; violations panic(). */
    bool paranoid = false;
    /**
     * Optional named-stream registry to capture in checkpoints.  The
     * serving loop itself draws no randomness, but callers whose
     * surrounding harness does (e.g. chaos tests) can register streams
     * here so they resume mid-sequence.  Borrowed; may be null.
     */
    RngBank *rngBank = nullptr;
};

/**
 * Serving simulator bound to one engine (one model on one SoC).
 * The engine is borrowed and must outlive the server.
 */
class ServingSimulator
{
  public:
    ServingSimulator(InferenceEngine &engine, ServerConfig config = {});

    /**
     * Run a request trace to completion under ideal conditions.
     *
     * Ordering contract: the trace must be sorted by arrival time
     * (non-decreasing).  poissonTrace() satisfies this by
     * construction; hand-built traces must be sorted by the caller.
     * A non-monotone trace raises a clear error instead of silently
     * mis-scheduling.
     *
     * @return aggregate metrics.
     */
    ServingReport run(const std::vector<ServerRequest> &trace);

    /**
     * Run a trace under a fault plan.  An inactive plan reproduces
     * the ideal-conditions run exactly (bit-identical report); an
     * active plan enables thermal coupling, scheduled events, paged
     * KV accounting with preemption, and the degrade policy.
     */
    ServingReport run(const std::vector<ServerRequest> &trace,
                      const FaultPlan &faults);

    /**
     * Run a trace under a fault plan with durability controls: a
     * write-ahead journal, periodic checkpoints, crash injection
     * (FaultConfig::crash), resume-from-checkpoint, and the paranoid
     * invariant auditor.  With default-constructed options this is
     * exactly run(trace, faults).
     *
     * @throws SimulatedCrash when the plan's CrashSchedule fires; the
     *   journal and checkpoints on disk are complete up to the crash
     *   point and a subsequent call with dur.resume = true finishes
     *   the run bit-identically.
     */
    ServingReport run(const std::vector<ServerRequest> &trace,
                      const FaultPlan &faults,
                      const DurabilityOptions &dur);

    /**
     * Replace the admission policy (overrides ServerConfig::scheduler
     * for subsequent runs).  For custom policies beyond the built-in
     * three: subclass Scheduler and inject it here.
     */
    void setScheduler(std::unique_ptr<Scheduler> scheduler);

    /** @return the admission policy in force. */
    const Scheduler &scheduler() const { return *scheduler_; }

    /**
     * Provide the engine used while degraded in Fallback mode (a
     * smaller or quantized model from the registry).  Borrowed; must
     * outlive the server.  KV accounting stays on the primary
     * engine's geometry (conservative); only step latency and power
     * come from the fallback while the governor holds a derated mode.
     */
    void setFallbackEngine(InferenceEngine &fallback)
    {
        fallback_ = &fallback;
    }

    /** @return per-request records of the last run (one per trace
     *  request, in completion/abort/shed order). */
    const std::vector<ServedRequest> &served() const { return served_; }

    /**
     * Generate a Poisson arrival trace with log-normal input/output
     * lengths (deterministic in the rng, sorted by arrival).
     */
    static std::vector<ServerRequest>
    poissonTrace(Rng &rng, std::size_t n, double qps, double mean_in,
                 double mean_out, double cv = 0.45);

    /**
     * Largest decode batch whose KV footprint (shared prompts not
     * assumed) fits the engine's KV budget at the given lengths.
     * Returns 0 when even a single sequence cannot fit, and 1 for
     * zero-length sequences (which fit trivially).
     */
    static int maxBatchForMemory(const InferenceEngine &engine,
                                 Tokens input_tokens,
                                 Tokens output_tokens);

  private:
    InferenceEngine &engine_;
    InferenceEngine *fallback_ = nullptr;
    ServerConfig config_;
    std::unique_ptr<Scheduler> scheduler_;
    std::vector<ServedRequest> served_;
};

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_SERVER_HH
