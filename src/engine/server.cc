#include "engine/server.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>

#include "common/logging.hh"
#include "common/stats.hh"
#include "engine/checkpoint.hh"
#include "engine/executor.hh"
#include "engine/journal.hh"
#include "engine/trace_stream.hh"

namespace edgereason {
namespace engine {

namespace {

/**
 * Field list of a single-node checkpoint payload: the step, the
 * scheduler identity (a read checks it with verifyMatches), scheduling
 * state, served records, the arrival cursor, the executor and, when
 * flagged, the RNG bank's streams.  A read into a null @p bank skips
 * the streams.
 */
template <class Ar>
void
checkpointIo(Ar &a, std::uint64_t &step, const Scheduler &scheduler,
             ServingState &st, std::vector<ServedRequest> &served,
             std::size_t &next_arrival, BatchExecutor &exec,
             RngBank *bank)
{
    a.u64(step);
    if constexpr (Ar::kReading)
        scheduler.verifyMatches(a);
    else
        scheduler.serialize(a);
    st.io(a);
    a.seq(served, kServedRequestMinBytes,
          [&](ServedRequest &s) { io(a, s); });
    a.u64(next_arrival);
    exec.io(a);
    bool banked = bank != nullptr;
    a.flag(banked);
    if (!banked)
        return;
    std::vector<std::pair<std::string, std::string>> states;
    if constexpr (!Ar::kReading) {
        const auto sorted = bank->serialize();
        states.assign(sorted.begin(), sorted.end());
    }
    a.seq(states, 8, [&](std::pair<std::string, std::string> &s) {
        a.str(s.first);
        a.str(s.second);
    });
    if constexpr (Ar::kReading)
        if (bank != nullptr)
            bank->restore(std::map<std::string, std::string>(
                states.begin(), states.end()));
}

} // namespace

const char *
degradeModeName(DegradeMode m)
{
    switch (m) {
      case DegradeMode::None:
        return "none";
      case DegradeMode::Budget:
        return "budget";
      case DegradeMode::Fallback:
        return "fallback";
    }
    panic("unknown degrade mode");
}

ServingReport
buildServingReport(const std::vector<ServedRequest> &served,
                   const ExecAccumulators &acc, Seconds first_arrival,
                   SchedulerPolicy policy, std::size_t peak_queue_depth)
{
    ServingReport rep;
    std::size_t met = 0;
    std::size_t with_deadline = 0;
    std::size_t with_deadline_met = 0;
    std::vector<double> latencies;
    std::vector<double> waits;
    latencies.reserve(served.size());
    waits.reserve(served.size());
    for (const auto &s : served) {
        waits.push_back(s.queueDelay);
        switch (s.outcome) {
          case RequestOutcome::Completed:
            ++rep.completed;
            latencies.push_back(s.latency());
            if (s.preemptions > 0)
                ++rep.retriedCompleted;
            if (s.degraded)
                ++rep.degradedCompleted;
            if (s.deadlineMet())
                ++met;
            break;
          case RequestOutcome::TimedOut:
            ++rep.timedOut;
            break;
          case RequestOutcome::Shed:
            ++rep.shed;
            break;
          case RequestOutcome::Cancelled:
            ++rep.cancelled;
            break;
        }
        if (s.request.deadline > 0.0) {
            ++with_deadline;
            if (s.deadlineMet())
                ++with_deadline_met;
        }
    }
    // The fleet report's fold; a run with zero completions reports 0.0
    // latency statistics and rates, for live report and replay alike.
    const RunSummary run = summarizeRun(first_arrival, acc.clock,
                                        rep.completed, met, latencies);
    rep.makespan = run.makespan;
    rep.throughputQps = run.throughput;
    rep.goodputQps = run.goodput;
    rep.meanLatency = run.latency.mean;
    rep.p50Latency = run.latency.p50;
    rep.p95Latency = run.latency.p95;
    rep.p99Latency = run.latency.p99;

    rep.totalEnergy = acc.energy;
    rep.energyPerQuery = rep.completed > 0
        ? acc.energy / static_cast<double>(rep.completed)
        : 0.0;
    rep.generatedTokens = acc.generatedTokens;
    rep.avgBatch = acc.busy > 0.0 ? acc.batchTimeWeighted / acc.busy
                                  : 0.0;
    rep.utilization = rep.makespan > 0.0 ? acc.busy / rep.makespan
                                         : 0.0;
    rep.preemptions = acc.preemptions;
    rep.deadlineHitRate = with_deadline > 0
        ? static_cast<double>(with_deadline_met) /
            static_cast<double>(with_deadline)
        : 1.0;
    rep.throttleResidency = acc.busy > 0.0
        ? acc.throttledBusy / acc.busy
        : 0.0;
    rep.cachedPrefixTokens = acc.cachedPrefixTokens;
    rep.prefixHitRate = acc.admittedPromptTokens > 0.0
        ? acc.cachedPrefixTokens / acc.admittedPromptTokens
        : 0.0;
    rep.prefillSecondsSaved = acc.prefillSecondsSaved;
    rep.prefixEvictions = acc.prefixEvictions;

    rep.schedulerPolicy = policy;
    const SampleSummary wait = summarizeSamples(waits);
    rep.meanQueueDelay = wait.mean;
    rep.p95QueueDelay = wait.p95;
    rep.p99QueueDelay = wait.p99;
    rep.peakQueueDepth = peak_queue_depth;
    return rep;
}

namespace {

/** The single-node arrival source: a cursor over a sorted trace. */
struct TraceCursor final : ArrivalSource
{
    explicit TraceCursor(const std::vector<ServerRequest> &t) : trace(t) {}

    Seconds nextArrival() const override
    {
        return next < trace.size()
            ? trace[next].arrival
            : std::numeric_limits<Seconds>::infinity();
    }

    TrackedRequest popArrival() override
    {
        TrackedRequest r;
        r.req = trace[next];
        r.traceIndex = static_cast<std::int64_t>(next++);
        return r;
    }

    const std::vector<ServerRequest> &trace;
    std::size_t next = 0; //!< next request to arrive (checkpointed)
};

} // namespace

ServingSimulator::ServingSimulator(InferenceEngine &engine,
                                   ServerConfig config)
    : engine_(engine), config_(config)
{
    fatal_if(config_.maxBatch < 1, "maxBatch must be >= 1");
    fatal_if(config_.kvWatermark <= 0.0 || config_.kvWatermark > 1.0,
             "kvWatermark out of (0, 1]");
    fatal_if(config_.degrade.maxRetries < 0,
             "maxRetries must be non-negative");
    fatal_if(config_.prefillChunk < 0,
             "prefillChunk must be non-negative");
    scheduler_ = makeScheduler(config_.scheduler, &config_.spjfModel);
}

void
ServingSimulator::setScheduler(std::unique_ptr<Scheduler> scheduler)
{
    fatal_if(scheduler == nullptr, "null scheduler");
    scheduler_ = std::move(scheduler);
}

std::vector<ServerRequest>
ServingSimulator::poissonTrace(Rng &rng, std::size_t n, double qps,
                               double mean_in, double mean_out,
                               double cv)
{
    // One generator: the materialized trace is the streamed trace,
    // collected — which is what makes `serve --stream` bit-identical
    // to the vector path for equal parameters (DESIGN.md §15).
    PoissonTraceStream stream(rng, n, qps, mean_in, mean_out, cv);
    std::vector<ServerRequest> trace;
    trace.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        trace.push_back(stream.next());
    return trace;
}

int
ServingSimulator::maxBatchForMemory(const InferenceEngine &engine,
                                    Tokens input_tokens,
                                    Tokens output_tokens)
{
    const double per_seq =
        engine.spec().kvBytesPerToken() *
        static_cast<double>(input_tokens + output_tokens);
    if (per_seq <= 0.0)
        return 1; // a zero-length sequence fits trivially
    // 0 when even a single sequence exceeds the budget: the caller
    // must shrink the request, not round it up to "one fits".
    return static_cast<int>(
        static_cast<double>(engine.kvBudget()) / per_seq);
}

ServingReport
ServingSimulator::run(const std::vector<ServerRequest> &trace)
{
    return run(trace, FaultPlan());
}

ServingReport
ServingSimulator::run(const std::vector<ServerRequest> &trace,
                      const FaultPlan &faults)
{
    return run(trace, faults, DurabilityOptions{});
}

ServingReport
ServingSimulator::run(const std::vector<ServerRequest> &trace,
                      const FaultPlan &faults,
                      const DurabilityOptions &dur)
{
    fatal_if(trace.empty(), "empty serving trace");
    fatal_if(dur.resume && dur.checkpointDir.empty(),
             "resume requested without a checkpoint directory");
    ServingState st;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        fatal_if(i > 0 && trace[i].arrival < trace[i - 1].arrival,
                 "serving trace must be sorted by arrival time: "
                 "request ", i, " arrives at ", trace[i].arrival,
                 " s, before request ", i - 1, " at ",
                 trace[i - 1].arrival, " s");
        fatal_if(trace[i].deadline < 0.0,
                 "negative deadline on request ", i);
        st.haveDeadlines = st.haveDeadlines || trace[i].deadline > 0.0;
    }

    served_.clear();
    served_.reserve(trace.size());
    BatchExecutor exec(engine_, fallback_, config_, faults, served_);

    const bool durable = !dur.checkpointDir.empty();
    const std::uint64_t fingerprint =
        durable ? runFingerprint(engine_, config_, trace, faults) : 0;
    const std::string journalPath = durable
        ? (std::filesystem::path(dur.checkpointDir) / "journal.bin")
              .string()
        : std::string();

    // --- Resume: latest checkpoint + journal tail -------------------
    TraceCursor arrivals(trace);
    std::uint64_t step = 0;
    std::uint64_t restoredStep = 0;
    bool resumed = false;
    Journal journal;
    if (dur.resume) {
        const auto ckpts = listCheckpoints(dur.checkpointDir);
        fatal_if(ckpts.empty(), "no checkpoints found under ",
                 dur.checkpointDir, "; cannot resume");
        const auto &[ckStep, ckPath] = ckpts.back();
        const std::string payload =
            loadCheckpointFile(ckPath, fingerprint);
        ByteReader r(payload);
        checkpointIo(r, step, *scheduler_, st, served_, arrivals.next,
                     exec, dur.rngBank);
        fatal_if(step != ckStep, "checkpoint ", ckPath,
                 " is named for step ", ckStep,
                 " but its payload records step ", step);
        fatal_if(arrivals.next > trace.size(),
                 "checkpoint arrival cursor ", arrivals.next,
                 " exceeds trace size ", trace.size());
        r.expectEnd("checkpoint payload");
        restoredStep = step;
        resumed = true;
        journal = Journal::resumeAt(journalPath, fingerprint, step,
                                    dur.verifyTail);
    } else if (durable) {
        std::error_code ec;
        std::filesystem::create_directories(dur.checkpointDir, ec);
        fatal_if(ec, "cannot create checkpoint directory ",
                 dur.checkpointDir, ": ", ec.message());
        journal = Journal::createFresh(journalPath, fingerprint);
        journal.emitRunBegin(trace.size(), scheduler_->policy(),
                             trace.front().arrival);
    }
    exec.setJournal(journal.active() ? &journal : nullptr);

    // Crash injection: scheduled kills fire at the first batch-step
    // boundary at/after their trigger, mimicking an external SIGKILL
    // between scheduler cycles.  On resume, triggers already behind
    // the restored clock are considered spent.
    const CrashSchedule &crash = faults.config().crash;
    const auto &crashTimes = faults.crashTimes();
    std::size_t crashCursor = 0;
    while (crashCursor < crashTimes.size() &&
           crashTimes[crashCursor] <= exec.clock())
        ++crashCursor;

    // Durability never shortens a macro segment: the deferred energy
    // sums are grouped per bucket-run, so a durable-only cap would
    // regroup them and break the bit-identity between durable and
    // plain runs (DESIGN.md §9).  Checkpoint marks and crash-at-step
    // triggers fire at cycle boundaries, which are identical in both
    // modes; checkpointEvery counts cycles (one macro segment each),
    // not decode steps.

    Auditor auditor;
    const auto audit = [&]() {
        if (dur.paranoid)
            auditor.check(
                exec.auditView(st, trace.size(), arrivals.next));
    };

    while (!st.queue.empty() || st.hasInFlight() ||
           arrivals.next < trace.size()) {
        // --- Batch-step boundary: audit, checkpoint, crash ----------
        audit();
        const bool ckptDue = durable &&
            (step == 0 ||
             (dur.checkpointEvery > 0 &&
              step % dur.checkpointEvery == 0)) &&
            !(resumed && step == restoredStep);
        if (ckptDue) {
            ByteWriter w;
            checkpointIo(w, step, *scheduler_, st, served_,
                         arrivals.next, exec, dur.rngBank);
            writeCheckpointFile(
                checkpointPath(dur.checkpointDir, step), fingerprint,
                w);
            journal.emitCheckpointMark(step);
        }
        if (crash.enabled()) {
            const bool stepHit = crash.atStep >= 0 &&
                static_cast<std::uint64_t>(crash.atStep) == step &&
                !(resumed && step == restoredStep);
            const bool timeHit = crashCursor < crashTimes.size() &&
                exec.clock() >= crashTimes[crashCursor];
            if (stepHit || timeHit)
                throw SimulatedCrash(static_cast<std::int64_t>(step),
                                     exec.clock());
        }
        ++step;

        // No sync target: only the next arrival bounds a cycle.
        exec.runCycle(st, *scheduler_, arrivals,
                      std::numeric_limits<Seconds>::infinity());
    }

    audit();
    if (journal.active())
        journal.emitRunEnd(exec.accumulators(), st.peakQueueDepth);
    return exec.report(trace.front().arrival, scheduler_->policy(),
                       st);
}

} // namespace engine
} // namespace edgereason
