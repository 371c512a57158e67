/**
 * @file
 * Macro-stepping equivalence tests (DESIGN.md §10).  The central
 * claim: fast-forwarding decode between scheduler-visible events
 * (ServerConfig::exactSteps = false, the default) produces the same
 * run the token-stepped legacy loop produces.  Every integer field,
 * every per-request record, and every TIMING double is compared with
 * EXPECT_EQ — the fast path replays the exact per-step clock
 * arithmetic, so scheduling decisions cannot drift.  Only the two
 * energy aggregates may differ: the fast path collapses the power
 * integral into log-gamma partial sums, bounded at 1e-9 relative
 * (observed ~1e-12).  The %.17g goldens in test_scheduler pin the
 * legacy loop via exactSteps.
 *
 * Matrix: {fcfs, edf, spjf} x {zero-fault, faulted, KV-pressure} x
 * {thermal on, off}, plus a horizon-splitting property test (capping
 * segments at K' < K must reproduce the same accumulators), journal
 * coalescing checks, a crash/resume that tail-verifies across
 * coalesced segments, and the executor's lazy-sync peek checked
 * against the cycle it predicts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "accuracy/trace_gen.hh"
#include "common/binio.hh"
#include "engine/executor.hh"
#include "engine/journal.hh"
#include "engine/scheduler.hh"
#include "engine/server.hh"
#include "model/calibration.hh"
#include "model/zoo.hh"

namespace er = edgereason;
using namespace er::engine;
using er::Seconds;
using er::Tokens;
using er::model::ModelId;
namespace fs = std::filesystem;

namespace {

InferenceEngine
makeEngine()
{
    EngineConfig cfg;
    cfg.measurementNoise = false;
    return InferenceEngine(
        er::model::spec(ModelId::DeepScaleR1_5B),
        er::model::calibration(ModelId::DeepScaleR1_5B), cfg);
}

er::perf::LatencyModel
toyModel()
{
    er::perf::LatencyModel m;
    m.prefill.a = 0.0;
    m.prefill.b = 1e-4;
    m.prefill.c = 0.01;
    m.decode.m = 1e-6;
    m.decode.n = 0.02;
    return m;
}

/** One scenario of the equivalence matrix. */
struct Scenario
{
    std::string name;
    ServerConfig cfg;
    std::vector<ServerRequest> trace;
    FaultConfig fc;
    bool faulted = false;
};

Scenario
zeroFaultScenario(bool thermal)
{
    Scenario s;
    s.name = thermal ? "zero-fault/thermal" : "zero-fault";
    s.cfg.prefillChunk = 64;
    er::Rng rng(42, "golden");
    s.trace = ServingSimulator::poissonTrace(rng, 40, 0.5, 120, 256);
    if (thermal) {
        // Thermal integration without any discrete fault events: the
        // governor alone perturbs speed and power mid-run.
        s.fc.seed = 0xBEEF;
        s.fc.horizon = s.trace.back().arrival + 600.0;
        s.fc.thermal = true;
        s.fc.thermalSpec.rThermal = 2.5;
        s.fc.thermalSpec.cThermal = 20.0;
        s.fc.thermalSpec.ambientC = 55.0;
        s.fc.thermalSpec.initialC = 55.0;
        s.faulted = true;
    }
    return s;
}

Scenario
faultedScenario(bool thermal)
{
    Scenario s;
    s.name = thermal ? "faulted/thermal" : "faulted";
    s.cfg.maxBatch = 8;
    s.cfg.degrade.mode = DegradeMode::Budget;
    s.cfg.degrade.budget = er::strategy::TokenPolicy::hard(128);
    er::Rng rng(42, "golden-faults");
    s.trace = ServingSimulator::poissonTrace(rng, 50, 2.0, 120, 512);
    for (auto &r : s.trace)
        r.deadline = 30.0;
    s.fc.seed = 0xFA17;
    s.fc.horizon = s.trace.back().arrival + 600.0;
    s.fc.thermal = thermal;
    s.fc.thermalSpec.rThermal = 2.5;
    s.fc.thermalSpec.cThermal = 20.0;
    s.fc.thermalSpec.ambientC = 55.0;
    s.fc.thermalSpec.initialC = 55.0;
    s.fc.brownoutsPerHour = 300.0;
    s.fc.kvShrinksPerHour = 200.0;
    s.fc.kvShrinkFraction = 0.6;
    s.fc.kvShrinkDuration = 15.0;
    s.faulted = true;
    return s;
}

Scenario
kvPressureScenario(bool thermal)
{
    Scenario s;
    s.name = thermal ? "kv-pressure/thermal" : "kv-pressure";
    er::Rng rng(7, "golden-kv");
    s.trace = ServingSimulator::poissonTrace(rng, 30, 4.0, 120, 3000);
    s.fc.seed = 0xFA17;
    s.fc.horizon = s.trace.back().arrival + 600.0;
    s.fc.thermal = thermal;
    if (thermal) {
        s.fc.thermalSpec.rThermal = 2.5;
        s.fc.thermalSpec.cThermal = 20.0;
        s.fc.thermalSpec.ambientC = 55.0;
        s.fc.thermalSpec.initialC = 55.0;
    }
    s.fc.kvShrinksPerHour = 240.0;
    s.fc.kvShrinkFraction = 0.97;
    s.fc.kvShrinkDuration = 30.0;
    s.faulted = true;
    return s;
}

struct RunResult
{
    ServingReport report;
    std::vector<ServedRequest> served;
};

RunResult
runScenario(const Scenario &s, SchedulerPolicy policy,
            bool exact_steps, std::uint64_t horizon_cap = 0)
{
    auto eng = makeEngine();
    ServerConfig cfg = s.cfg;
    cfg.scheduler = policy;
    if (policy == SchedulerPolicy::Spjf)
        cfg.spjfModel = toyModel();
    cfg.exactSteps = exact_steps;
    cfg.macroHorizonCap = horizon_cap;
    ServingSimulator srv(eng, cfg);
    RunResult out;
    out.report = s.faulted ? srv.run(s.trace, FaultPlan(s.fc))
                           : srv.run(s.trace);
    out.served = srv.served();
    return out;
}

/** Same-mode comparison: every field bit-identical, doubles included
 *  (resume/replay of one run must not drift at all). */
void
expectIdenticalReports(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.throughputQps, b.throughputQps);
    EXPECT_EQ(a.avgBatch, b.avgBatch);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.p50Latency, b.p50Latency);
    EXPECT_EQ(a.p95Latency, b.p95Latency);
    EXPECT_EQ(a.p99Latency, b.p99Latency);
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.energyPerQuery, b.energyPerQuery);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.schedulerPolicy, b.schedulerPolicy);
    EXPECT_EQ(a.meanQueueDelay, b.meanQueueDelay);
    EXPECT_EQ(a.p95QueueDelay, b.p95QueueDelay);
    EXPECT_EQ(a.p99QueueDelay, b.p99QueueDelay);
    EXPECT_EQ(a.peakQueueDepth, b.peakQueueDepth);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.retriedCompleted, b.retriedCompleted);
    EXPECT_EQ(a.degradedCompleted, b.degradedCompleted);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.goodputQps, b.goodputQps);
    EXPECT_EQ(a.deadlineHitRate, b.deadlineHitRate);
    EXPECT_EQ(a.throttleResidency, b.throttleResidency);
}

/** Cross-mode comparison (exact vs macro): bit-identical except the
 *  two energy aggregates, which the fast path integrates via
 *  log-gamma partial sums — 1e-9 relative, the design contract. */
void
expectEquivalentReports(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.throughputQps, b.throughputQps);
    EXPECT_EQ(a.avgBatch, b.avgBatch);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.p50Latency, b.p50Latency);
    EXPECT_EQ(a.p95Latency, b.p95Latency);
    EXPECT_EQ(a.p99Latency, b.p99Latency);
    EXPECT_NEAR(a.totalEnergy, b.totalEnergy,
                1e-9 * std::max(1.0, std::abs(a.totalEnergy)));
    EXPECT_NEAR(a.energyPerQuery, b.energyPerQuery,
                1e-9 * std::max(1.0, std::abs(a.energyPerQuery)));
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.schedulerPolicy, b.schedulerPolicy);
    EXPECT_EQ(a.meanQueueDelay, b.meanQueueDelay);
    EXPECT_EQ(a.p95QueueDelay, b.p95QueueDelay);
    EXPECT_EQ(a.p99QueueDelay, b.p99QueueDelay);
    EXPECT_EQ(a.peakQueueDepth, b.peakQueueDepth);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.retriedCompleted, b.retriedCompleted);
    EXPECT_EQ(a.degradedCompleted, b.degradedCompleted);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.goodputQps, b.goodputQps);
    EXPECT_EQ(a.deadlineHitRate, b.deadlineHitRate);
    EXPECT_EQ(a.throttleResidency, b.throttleResidency);
}

void
expectIdenticalServed(const std::vector<ServedRequest> &a,
                      const std::vector<ServedRequest> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("served record " + std::to_string(i));
        EXPECT_EQ(a[i].traceIndex, b[i].traceIndex);
        EXPECT_EQ(a[i].outcome, b[i].outcome);
        EXPECT_EQ(a[i].queueDelay, b[i].queueDelay);
        EXPECT_EQ(a[i].serviceTime, b[i].serviceTime);
        EXPECT_EQ(a[i].finish, b[i].finish);
        EXPECT_EQ(a[i].generated, b[i].generated);
        EXPECT_EQ(a[i].preemptions, b[i].preemptions);
        EXPECT_EQ(a[i].degraded, b[i].degraded);
    }
}

std::vector<Scenario>
matrixScenarios()
{
    return {zeroFaultScenario(false), zeroFaultScenario(true),
            faultedScenario(false),   faultedScenario(true),
            kvPressureScenario(false), kvPressureScenario(true)};
}

const SchedulerPolicy kPolicies[] = {SchedulerPolicy::Fcfs,
                                     SchedulerPolicy::Edf,
                                     SchedulerPolicy::Spjf};

} // namespace

TEST(MacroStep, EquivalenceMatrixMacroMatchesExactBitForBit)
{
    for (const auto &s : matrixScenarios()) {
        for (const auto policy : kPolicies) {
            SCOPED_TRACE(s.name + " / " + schedulerPolicyName(policy));
            const auto exact = runScenario(s, policy, true);
            const auto macro = runScenario(s, policy, false);
            expectEquivalentReports(exact.report, macro.report);
            expectIdenticalServed(exact.served, macro.served);
        }
    }
}

// Splitting any horizon K into K1 + K2 must reproduce the same
// accumulators: capping the segment length changes only where the
// journal would coalesce, never what the run computes.  cap = 1
// degenerates every segment into single steps through the macro
// code path — the strongest split.
TEST(MacroStep, HorizonSplittingReproducesAccumulators)
{
    const Scenario scenarios[] = {faultedScenario(true),
                                  kvPressureScenario(false)};
    for (const auto &s : scenarios) {
        const auto unbounded =
            runScenario(s, SchedulerPolicy::Fcfs, false, 0);
        for (const std::uint64_t cap : {1ULL, 3ULL, 17ULL}) {
            SCOPED_TRACE(s.name + " / cap " + std::to_string(cap));
            const auto split =
                runScenario(s, SchedulerPolicy::Fcfs, false, cap);
            expectEquivalentReports(unbounded.report, split.report);
            expectIdenticalServed(unbounded.served, split.served);
        }
    }
}

namespace {

/** Decode Step records of a journal as (count, generatedTokens). */
std::vector<std::pair<std::uint32_t, double>>
decodeStepRecords(const std::string &path)
{
    std::vector<std::pair<std::uint32_t, double>> out;
    for (const auto &rec : readJournal(path).records) {
        if (rec.type != JournalRecordType::Step)
            continue;
        er::ByteReader r(rec.payload);
        const std::uint8_t kind = r.u8();
        const std::uint32_t count = r.u32();
        ExecAccumulators acc;
        io(r, acc);
        if (kind == 1)
            out.emplace_back(count, acc.generatedTokens);
    }
    return out;
}

std::string
scratchDir(const std::string &tag)
{
    const auto dir =
        fs::temp_directory_path() / ("edgereason_macro_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

} // namespace

// The macro journal coalesces: its decode Step records carry counts
// that sum to the exact run's record count, at least one of them > 1,
// and both journals replay to the same report.
TEST(MacroStep, JournalCoalescesStepsAndReplaysIdentically)
{
    const Scenario s = zeroFaultScenario(false);
    auto eng = makeEngine();

    const auto run_durable = [&](bool exact, const std::string &dir) {
        ServerConfig cfg = s.cfg;
        cfg.exactSteps = exact;
        DurabilityOptions dur;
        dur.checkpointDir = dir;
        ServingSimulator srv(eng, cfg);
        return srv.run(s.trace, FaultPlan(), dur);
    };

    const std::string exactDir = scratchDir("exact");
    const std::string macroDir = scratchDir("macro");
    const auto exactRep = run_durable(true, exactDir);
    const auto macroRep = run_durable(false, macroDir);
    expectEquivalentReports(exactRep, macroRep);

    const auto exactSteps = decodeStepRecords(exactDir + "/journal.bin");
    const auto macroSteps = decodeStepRecords(macroDir + "/journal.bin");
    ASSERT_FALSE(exactSteps.empty());
    ASSERT_FALSE(macroSteps.empty());
    EXPECT_LT(macroSteps.size(), exactSteps.size());

    std::uint64_t exactCount = 0;
    for (const auto &[count, gen] : exactSteps) {
        EXPECT_EQ(count, 1u);
        exactCount += count;
    }
    std::uint64_t macroCount = 0;
    std::uint32_t maxCount = 0;
    for (const auto &[count, gen] : macroSteps) {
        macroCount += count;
        maxCount = std::max(maxCount, count);
    }
    EXPECT_EQ(exactCount, macroCount);
    EXPECT_GT(maxCount, 1u);
    // The shared suffix of both journals: final generated totals agree.
    EXPECT_EQ(exactSteps.back().second, macroSteps.back().second);

    expectIdenticalReports(exactRep,
                           replayServingReport(exactDir +
                                               "/journal.bin"));
    expectIdenticalReports(macroRep,
                           replayServingReport(macroDir +
                                               "/journal.bin"));

    fs::remove_all(exactDir);
    fs::remove_all(macroDir);
}

// Crash/resume in macro mode: the resumed run re-derives the same
// segmentation, so byte-for-byte tail verification passes across
// coalesced Step records and the final report is bit-identical to
// the uninterrupted run.
TEST(MacroStep, CrashResumeTailVerifiesAcrossCoalescedSegments)
{
    const Scenario s = faultedScenario(true);
    auto eng = makeEngine();

    ServerConfig cfg = s.cfg;
    cfg.exactSteps = false;
    ServingSimulator base_srv(eng, cfg);
    const auto baseline = base_srv.run(s.trace, FaultPlan(s.fc));

    const std::string dir = scratchDir("resume");
    DurabilityOptions dur;
    dur.checkpointDir = dir;
    dur.checkpointEvery = 5;
    dur.paranoid = true;

    FaultConfig crash_fc = s.fc;
    crash_fc.crash.atStep = 13;
    ServingSimulator crash_srv(eng, cfg);
    EXPECT_THROW(crash_srv.run(s.trace, FaultPlan(crash_fc), dur),
                 SimulatedCrash);

    // The journal tail past the surviving checkpoint contains
    // coalesced segments (checkpointEvery caps them at 5 steps, and
    // decode horizons regularly reach that cap).
    ServingSimulator resume_srv(eng, cfg);
    DurabilityOptions res = dur;
    res.resume = true;
    const auto resumed =
        resume_srv.run(s.trace, FaultPlan(s.fc), res);
    expectIdenticalReports(baseline, resumed);

    std::uint32_t maxCount = 0;
    for (const auto &[count, gen] :
         decodeStepRecords(dir + "/journal.bin"))
        maxCount = std::max(maxCount, count);
    EXPECT_GT(maxCount, 1u);

    fs::remove_all(dir);
}

namespace {

/**
 * Arrival source over a sorted trace that snapshots the scheduling
 * state at each cycle's first changedSince() call, which runCycle
 * makes once the pre-decode part of the cycle is done.
 */
struct ProbeSource final : ArrivalSource
{
    ProbeSource(const std::vector<ServerRequest> &t,
                const ServingState &s)
        : trace(t), st(s)
    {
    }

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

    void changedSince(Seconds) override
    {
        if (preDecodeSeen)
            return;
        preDecodeSeen = true;
        queueAtDecode = st.queue.size();
        inFlightAtDecode = st.inFlight();
    }

    const std::vector<ServerRequest> &trace;
    const ServingState &st;
    std::size_t next = 0;
    bool preDecodeSeen = false;
    std::size_t queueAtDecode = 0;
    int inFlightAtDecode = 0;
};

/**
 * Drive @p s through BatchExecutor::runCycle directly, peeking before
 * every cycle, and check each peek against the cycle that follows it:
 * no served record lands more than kTimeSlack before the peek, and a
 * peek later than the clock is followed by a pure decode segment (no
 * arrival, admission, shed or prefill before it) whose last step
 * starts exactly at the peek.  @return the number of such peeks.
 */
std::size_t
checkPeeks(const Scenario &s, SchedulerPolicy policy)
{
    constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();
    auto eng = makeEngine();
    ServerConfig cfg = s.cfg;
    cfg.scheduler = policy;
    const FaultPlan faults = s.faulted ? FaultPlan(s.fc) : FaultPlan();
    std::vector<ServedRequest> served;
    BatchExecutor exec(eng, nullptr, cfg, faults, served);
    const auto sched = makeScheduler(policy);
    ServingState st;
    for (const auto &r : s.trace)
        st.haveDeadlines = st.haveDeadlines || r.deadline > 0.0;
    ProbeSource src(s.trace, st);

    std::size_t later = 0;
    while (!st.queue.empty() || st.hasInFlight() ||
           src.next < s.trace.size()) {
        const Seconds now = exec.clock();
        const Seconds peek = exec.peekCycle(st, src);
        EXPECT_GE(peek, now);
        const std::size_t served0 = served.size();
        const std::size_t popped0 = src.next;
        const std::size_t queue0 = st.queue.size();
        const int inflight0 = st.inFlight();
        const int batch = static_cast<int>(st.active.size());
        double ctx_sum = 0.0;
        for (const ReqId id : st.active)
            ctx_sum += static_cast<double>(st.pool.inputTokens(id) +
                                           st.pool.generated(id));
        const std::uint64_t steps0 = exec.accumulators().decodeSteps;
        src.preDecodeSeen = false;
        exec.runCycle(st, *sched, src, kInf);

        for (std::size_t i = served0; i < served.size(); ++i)
            EXPECT_GE(served[i].finish + er::engine::kTimeSlack, peek)
                << "record " << served[i].traceIndex << " at clock "
                << now;
        if (peek == now)
            continue;
        ++later;
        SCOPED_TRACE("peek " + std::to_string(peek) + " at clock " +
                     std::to_string(now));
        EXPECT_EQ(src.next, popped0);
        EXPECT_TRUE(src.preDecodeSeen);
        EXPECT_EQ(src.queueAtDecode, queue0);
        EXPECT_EQ(src.inFlightAtDecode, inflight0);
        EXPECT_EQ(st.queue.size(), queue0);
        EXPECT_EQ(st.inFlight() +
                      static_cast<int>(served.size() - served0),
                  inflight0);
        // The segment's last step is priced at the 64-token context
        // bucket the batch reached k - 1 steps in.
        const std::uint64_t k = exec.accumulators().decodeSteps - steps0;
        if (k == 0) {
            ADD_FAILURE() << "no decode step after a later peek";
            continue;
        }
        const Tokens avg_ctx = static_cast<Tokens>(std::llround(
            (ctx_sum + static_cast<double>(k - 1) * batch) / batch));
        const Tokens bucket =
            std::max<Tokens>(64, (avg_ctx + 63) / 64 * 64);
        EXPECT_EQ(exec.clock(),
                  peek + eng.decodeStepLatency(bucket, batch));
    }
    return later;
}

} // namespace

// peekCycle is the fleet's lazy-sync key: the instant before which a
// node's next cycle changes nothing a router reads.  Each scenario
// below reaches a different early end of the planned segment (fault
// events, deadlines, prefill chunks, prefix hits) as well as long
// decode segments.
TEST(MacroStep, PeekCyclePredictsTheNextCycle)
{
    Scenario kv = kvPressureScenario(false);
    kv.name = "kv-pressure/brownouts";
    kv.fc.brownoutsPerHour = 120.0;

    Scenario edf;
    edf.name = "edf-deadlines";
    edf.cfg.maxBatch = 8;
    er::Rng rng(11, "peek-deadlines");
    edf.trace = ServingSimulator::poissonTrace(rng, 80, 0.8, 120, 256);
    for (std::size_t i = 0; i < edf.trace.size(); ++i)
        if (i % 3 != 0)
            edf.trace[i].deadline = 4.0 + 3.0 * static_cast<double>(i % 4);

    const Scenario chunked = zeroFaultScenario(false);

    Scenario sessions;
    sessions.name = "prefix-sessions";
    sessions.cfg.maxBatch = 16;
    sessions.cfg.prefixCache.enabled = true;
    er::acc::SessionTraceConfig sc;
    sc.sessions = 10;
    sc.turnsPerSession = 4;
    sc.sessionQps = 0.05;
    sc.meanTurnGap = 40.0;
    er::Rng srng(5, "peek-sessions");
    sessions.trace = er::acc::generateSessionTrace(sc, srng);

    const std::pair<const Scenario *, SchedulerPolicy> runs[] = {
        {&kv, SchedulerPolicy::Fcfs},
        {&edf, SchedulerPolicy::Edf},
        {&chunked, SchedulerPolicy::Fcfs},
        {&sessions, SchedulerPolicy::Fcfs},
    };
    for (const auto &[s, policy] : runs) {
        SCOPED_TRACE(s->name);
        EXPECT_GT(checkPeeks(*s, policy), 10u);
    }
}
