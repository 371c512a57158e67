/**
 * @file
 * Crash/recovery tests (DESIGN.md §9).  The central claim under test:
 * a run that crashes at an arbitrary batch-step boundary and resumes
 * from its latest checkpoint + journal tail produces a ServingReport
 * that is bit-identical to the uninterrupted run — every counter and
 * every double (p50/p95/p99, goodput, throttle residency) compared
 * with EXPECT_EQ, never EXPECT_NEAR.  The matrix covers the three
 * golden scenarios (zero-fault, faulted with brownouts + thermal,
 * KV-pressure with preemption backoff) under all three schedulers,
 * with crash points at step 0, mid prefill chunk, during retry
 * backoff, and inside fault windows.  Journal replay must re-derive
 * the same report, and the invariant auditor must pass every healthy
 * run while catching seeded accounting bugs.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.hh"
#include "engine/auditor.hh"
#include "engine/checkpoint.hh"
#include "engine/executor.hh"
#include "engine/journal.hh"
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
makeEngine(ModelId id = ModelId::DeepScaleR1_5B)
{
    EngineConfig cfg;
    cfg.measurementNoise = false;
    return InferenceEngine(er::model::spec(id),
                           er::model::calibration(id), cfg);
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

std::string
scratchDir(const std::string &tag)
{
    const auto dir = fs::temp_directory_path() /
        ("edgereason_recovery_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** One serving scenario: config, trace, and behavioural fault config
 *  (crash schedule left empty; tests add it per run). */
struct Scenario
{
    ServerConfig cfg;
    std::vector<ServerRequest> trace;
    FaultConfig fc;
    bool faulted = false;
};

/** The zero-fault golden trace, with chunked prefill so a crash can
 *  land mid prefill chunk. */
Scenario
zeroFaultScenario()
{
    Scenario s;
    s.cfg.prefillChunk = 64;
    er::Rng rng(42, "golden");
    s.trace = ServingSimulator::poissonTrace(rng, 40, 0.5, 120, 256);
    return s;
}

/** The faulted golden trace: deadlines, thermal throttling, frequent
 *  brownouts, KV shrink windows, budget degradation. */
Scenario
faultedScenario()
{
    Scenario s;
    s.cfg.maxBatch = 8;
    s.cfg.degrade.mode = DegradeMode::Budget;
    s.cfg.degrade.budget = er::strategy::TokenPolicy::hard(128);
    er::Rng rng(42, "golden-faults");
    s.trace = ServingSimulator::poissonTrace(rng, 50, 2.0, 120, 512);
    for (auto &r : s.trace)
        r.deadline = 30.0;
    s.fc.seed = 0xFA17;
    s.fc.horizon = s.trace.back().arrival + 600.0;
    s.fc.thermal = true;
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

/** The KV-pressure golden trace: long outputs force preemption with
 *  retry backoff under severe shrink windows. */
Scenario
kvPressureScenario()
{
    Scenario s;
    er::Rng rng(7, "golden-kv");
    s.trace = ServingSimulator::poissonTrace(rng, 30, 4.0, 120, 3000);
    s.fc.seed = 0xFA17;
    s.fc.horizon = s.trace.back().arrival + 600.0;
    s.fc.kvShrinksPerHour = 240.0;
    s.fc.kvShrinkFraction = 0.97;
    s.fc.kvShrinkDuration = 30.0;
    s.faulted = true;
    return s;
}

ServingSimulator
makeServer(InferenceEngine &eng, const Scenario &s,
           SchedulerPolicy policy)
{
    ServerConfig cfg = s.cfg;
    cfg.scheduler = policy;
    if (policy == SchedulerPolicy::Spjf)
        cfg.spjfModel = toyModel();
    return ServingSimulator(eng, cfg);
}

FaultPlan
planOf(const Scenario &s, std::int64_t crash_at_step = -1)
{
    if (!s.faulted && crash_at_step < 0)
        return FaultPlan();
    FaultConfig fc = s.fc;
    fc.crash.atStep = crash_at_step;
    return FaultPlan(fc);
}

/** Bit-exact comparison of every ServingReport field. */
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

void
expectIdenticalServed(const std::vector<ServedRequest> &a,
                      const std::vector<ServedRequest> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
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

/**
 * @return FNV-1a over every file in @p dir in name order, chaining
 * each file's name and bytes onto @p h.
 */
std::uint64_t
hashFiles(const std::string &dir, std::uint64_t h = er::fnv1a(""))
{
    std::map<std::string, std::string> files;
    for (const auto &entry : fs::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        files[entry.path().filename().string()] = bytes.str();
    }
    for (const auto &[name, bytes] : files) {
        h = er::fnv1a(name, h);
        h = er::fnv1a(bytes, h);
    }
    return h;
}

/**
 * Run a scenario to completion uninterrupted, then crash it at
 * @p crash_step and resume; assert the resumed run is bit-identical.
 * The crashing run checkpoints every 4 steps, so most crash points
 * land several steps past the restored checkpoint and genuinely
 * exercise journal-tail re-execution (with byte-level verification).
 */
std::uint64_t
crashResumeRoundTrip(const Scenario &s, SchedulerPolicy policy,
                     std::int64_t crash_step, const std::string &tag,
                     std::uint64_t pin = er::fnv1a(""))
{
    SCOPED_TRACE(tag + " policy=" +
                 std::string(schedulerPolicyName(policy)) +
                 " crash-step=" + std::to_string(crash_step));
    auto eng = makeEngine();

    auto baseline_srv = makeServer(eng, s, policy);
    const auto baseline = baseline_srv.run(s.trace, planOf(s));
    const auto baseline_served = baseline_srv.served();

    const auto dir = scratchDir(
        tag + "_" + schedulerPolicyName(policy) + "_" +
        std::to_string(crash_step));
    DurabilityOptions dur;
    dur.checkpointDir = dir;
    dur.checkpointEvery = 4;
    dur.paranoid = true;

    auto crash_srv = makeServer(eng, s, policy);
    bool crashed = false;
    ServingReport rep;
    try {
        rep = crash_srv.run(s.trace, planOf(s, crash_step), dur);
    } catch (const SimulatedCrash &c) {
        crashed = true;
        EXPECT_EQ(c.step, crash_step);
    }

    if (crashed) {
        auto resume_srv = makeServer(eng, s, policy);
        DurabilityOptions res = dur;
        res.resume = true;
        rep = resume_srv.run(s.trace, planOf(s), res);
        expectIdenticalServed(baseline_served, resume_srv.served());
    } else {
        // The schedule outlived the run; the durable run completed
        // and must still match.
        expectIdenticalServed(baseline_served, crash_srv.served());
    }
    expectIdenticalReports(baseline, rep);

    // The journal now covers the whole run: replay must re-derive the
    // exact same report through buildServingReport().
    expectIdenticalReports(
        baseline, replayServingReport(dir + "/journal.bin"));
    pin = hashFiles(dir, pin);
    fs::remove_all(dir);
    return pin;
}

} // namespace

// ---------------------------------------------------------------------
// Crash/resume bit-identity matrix.
// ---------------------------------------------------------------------

TEST(Recovery, ZeroFaultCrashMatrix)
{
    const auto s = zeroFaultScenario();
    for (const auto policy :
         {SchedulerPolicy::Fcfs, SchedulerPolicy::Edf,
          SchedulerPolicy::Spjf}) {
        // Step 0 (before any work), step 2 (mid prefill chunk of the
        // first long prompt), and a mid-run decode step.
        for (const std::int64_t step : {0, 2, 57})
            crashResumeRoundTrip(s, policy, step, "zero");
    }
}

TEST(Recovery, FaultedCrashMatrix)
{
    const auto s = faultedScenario();
    std::uint64_t pin = er::fnv1a("");
    for (const auto policy :
         {SchedulerPolicy::Fcfs, SchedulerPolicy::Edf,
          SchedulerPolicy::Spjf}) {
        // The faulted trace averages a brownout every 12 s of sim
        // time, so mid-run crash points land inside/around brownout
        // windows; early points land during chunkless prefill.
        for (const std::int64_t step : {0, 3, 41, 90})
            pin = crashResumeRoundTrip(s, policy, step, "faulted", pin);
    }
    // Pin over every checkpoint and journal file the matrix leaves.
    EXPECT_EQ(pin, 0xee3f4edbee8728d1ull);
}

TEST(Recovery, KvPressureCrashMatrix)
{
    const auto s = kvPressureScenario();
    std::uint64_t pin = er::fnv1a("");
    for (const auto policy :
         {SchedulerPolicy::Fcfs, SchedulerPolicy::Edf,
          SchedulerPolicy::Spjf}) {
        // Severe shrink windows (97% of the pool for 30 s) keep the
        // queue in retry backoff for long stretches: the mid and late
        // crash points land during backoff sleeps.
        for (const std::int64_t step : {0, 25, 160})
            pin = crashResumeRoundTrip(s, policy, step, "kv", pin);
    }
    // Pin over every checkpoint and journal file the matrix leaves.
    EXPECT_EQ(pin, 0xf8f40ae50cd6bf98ull);
}

// ---------------------------------------------------------------------
// Resume validation: corrupted inputs must never partially restore.
// ---------------------------------------------------------------------

TEST(Recovery, ResumeRefusesMismatchedRun)
{
    auto eng = makeEngine();
    const auto s = zeroFaultScenario();
    const auto dir = scratchDir("mismatch");
    DurabilityOptions dur;
    dur.checkpointDir = dir;
    dur.checkpointEvery = 4;

    auto srv = makeServer(eng, s, SchedulerPolicy::Fcfs);
    EXPECT_THROW(srv.run(s.trace, planOf(s, 20), dur), SimulatedCrash);

    // A different trace is a different run: its fingerprint differs
    // and the restore must be refused outright.
    er::Rng rng(1234, "other");
    const auto other =
        ServingSimulator::poissonTrace(rng, 40, 0.5, 120, 256);
    DurabilityOptions res = dur;
    res.resume = true;
    auto srv2 = makeServer(eng, s, SchedulerPolicy::Fcfs);
    try {
        srv2.run(other, planOf(s), res);
        FAIL() << "expected a fingerprint fatal()";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos)
            << e.what();
    }

    // So must a scheduler-policy switch (policy is fingerprinted).
    auto srv3 = makeServer(eng, s, SchedulerPolicy::Edf);
    EXPECT_THROW(srv3.run(s.trace, planOf(s), res),
                 std::runtime_error);
    fs::remove_all(dir);
}

TEST(Recovery, ResumeRefusesCorruptCheckpoint)
{
    auto eng = makeEngine();
    const auto s = zeroFaultScenario();
    const auto dir = scratchDir("corrupt_ckpt");
    DurabilityOptions dur;
    dur.checkpointDir = dir;
    dur.checkpointEvery = 4;

    auto srv = makeServer(eng, s, SchedulerPolicy::Fcfs);
    EXPECT_THROW(srv.run(s.trace, planOf(s, 20), dur), SimulatedCrash);

    // Flip one payload bit in the newest checkpoint.
    const auto ckpts = listCheckpoints(dir);
    ASSERT_FALSE(ckpts.empty());
    const std::string victim = ckpts.back().second;
    std::string data;
    {
        std::ifstream in(victim, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        data = buf.str();
    }
    data[data.size() / 2] ^= 0x01;
    {
        std::ofstream out(victim,
                          std::ios::binary | std::ios::trunc);
        out << data;
    }

    DurabilityOptions res = dur;
    res.resume = true;
    auto srv2 = makeServer(eng, s, SchedulerPolicy::Fcfs);
    try {
        srv2.run(s.trace, planOf(s), res);
        FAIL() << "expected a checksum fatal()";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("corrupt at offset"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("checksum"), std::string::npos) << msg;
    }
    fs::remove_all(dir);
}

TEST(Recovery, ResumeWithoutCheckpointsFails)
{
    auto eng = makeEngine();
    const auto s = zeroFaultScenario();
    const auto dir = scratchDir("empty");
    DurabilityOptions res;
    res.checkpointDir = dir;
    res.resume = true;
    auto srv = makeServer(eng, s, SchedulerPolicy::Fcfs);
    EXPECT_THROW(srv.run(s.trace, planOf(s), res),
                 std::runtime_error);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// RNG bank capture.
// ---------------------------------------------------------------------

TEST(Recovery, RngBankRoundTripsThroughCheckpoint)
{
    auto eng = makeEngine();
    const auto s = zeroFaultScenario();
    const auto dir = scratchDir("rngbank");
    er::RngBank bank(99);
    auto &harness = bank.create("harness/noise");
    for (int i = 0; i < 11; ++i)
        harness.uniform();
    const auto expected_states = bank.serialize();

    DurabilityOptions dur;
    dur.checkpointDir = dir;
    dur.checkpointEvery = 4;
    dur.rngBank = &bank;
    auto srv = makeServer(eng, s, SchedulerPolicy::Fcfs);
    EXPECT_THROW(srv.run(s.trace, planOf(s, 8), dur), SimulatedCrash);

    // Perturb the bank, then resume: the checkpointed states win.
    for (int i = 0; i < 100; ++i)
        harness.uniform();
    DurabilityOptions res = dur;
    res.resume = true;
    auto srv2 = makeServer(eng, s, SchedulerPolicy::Fcfs);
    srv2.run(s.trace, planOf(s), res);
    EXPECT_EQ(bank.serialize(), expected_states);
    // Pin over the checkpoints (each with its RNG-bank section) and
    // the journal.
    EXPECT_EQ(hashFiles(dir), 0x78d1c17e67db0cecull);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Truncation sweep: every cut of a real payload is a clean fatal().
// ---------------------------------------------------------------------

TEST(Recovery, TruncatedCheckpointPayloadsFailWithAnOffset)
{
    // A small real checkpoint holding queued, prefilling and decoding
    // requests, served records, a paged KV pool with a prefix index and
    // an RNG-bank section.  Its payload is cut at every offset and
    // rewrapped in a valid container (header, length, checksum), so
    // each resume reaches the payload reader.  Each must end in a
    // fatal() (std::runtime_error) naming an offset, never in a
    // logic_error, length_error, bad_alloc or a sanitizer report.
    auto eng = makeEngine();
    std::vector<ServerRequest> trace;
    // Request 0 retires first, request 1 keeps decoding while the long
    // prompt of request 2 prefills chunk by chunk, and the rest wait.
    for (int i = 0; i < 6; ++i) {
        ServerRequest r;
        r.arrival = 0.01 * i;
        r.inputTokens = i == 2 ? 256 : 64;
        r.outputTokens = i == 0 ? 4 : i == 1 ? 200 : 16;
        r.deadline = 600.0;
        r.sessionId = i % 2;
        for (int b = 0; b < r.inputTokens / 16; ++b)
            r.prefixHashes.push_back(b < 2 ? 11u + b : 100u * i + b);
        trace.push_back(r);
    }
    ServerConfig cfg;
    cfg.maxBatch = 2;
    cfg.prefillChunk = 16;
    cfg.prefixCache.enabled = true;
    er::RngBank bank(5);
    bank.create("harness/noise");
    const auto dir = scratchDir("truncation");
    DurabilityOptions dur;
    dur.checkpointDir = dir;
    dur.checkpointEvery = 1;
    dur.rngBank = &bank;
    {
        ServingSimulator srv(eng, cfg);
        srv.run(trace, FaultPlan(), dur);
    }

    // The first checkpoint with every container non-empty; the later
    // ones are removed so that resume picks it.
    std::string path, payload;
    std::uint64_t fp = 0;
    for (const auto &[step, file_path] : listCheckpoints(dir)) {
        if (!path.empty()) {
            fs::remove(file_path);
            continue;
        }
        std::ifstream in(file_path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string file = buf.str();
        // Header: magic (8), version (4), fingerprint (8), length (8).
        const std::string body = file.substr(28, file.size() - 36);
        er::ByteReader r(body);
        r.u64(); // step
        r.u8();  // scheduler identity (fcfs)
        ServingState st;
        st.io(r);
        if (st.queue.size() > 0 && !st.prefilling.empty() &&
            !st.active.empty() && r.count(kServedRequestMinBytes) > 0) {
            path = file_path;
            payload = body;
            fp = er::ByteReader(std::string_view(file).substr(12, 8)).u64();
        }
    }
    ASSERT_FALSE(path.empty()) << "no checkpoint holds every container";
    DurabilityOptions res = dur;
    res.resume = true;
    std::size_t fatals = 0;
    er::ByteWriter w; // the first `cut` payload bytes
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        writeCheckpointFile(path, fp, w);
        ServingSimulator srv(eng, cfg);
        try {
            srv.run(trace, FaultPlan(), res);
            ADD_FAILURE() << "cut at " << cut << " resumed";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("offset"), std::string::npos)
                << "cut at " << cut << ": " << msg;
            ++fatals;
        }
        w.u8(static_cast<std::uint8_t>(payload[cut]));
    }
    EXPECT_EQ(fatals, payload.size());

    // The intact payload, rewrapped the same way, still resumes: the
    // refused cuts left the journal alone.
    writeCheckpointFile(path, fp, w);
    ServingSimulator srv(eng, cfg);
    EXPECT_NO_THROW(srv.run(trace, FaultPlan(), res));
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Invariant auditor: healthy views pass, seeded bugs panic.
// ---------------------------------------------------------------------

namespace {

/** A small self-consistent AuditView over local containers. */
struct AuditFixture
{
    ServingState st;
    std::vector<ServedRequest> served;

    AuditView view()
    {
        AuditView v;
        v.traceSize = 2;
        v.nextArrival = 1;
        v.served = &served;
        v.state = &st;
        v.acc.clock = 1.0;
        v.acc.busy = 0.5;
        v.kvBudget = 1e9;
        v.kvPerToken = 1000.0;
        return v;
    }

    AuditFixture()
    {
        TrackedRequest t;
        t.req.arrival = 0.0;
        t.req.inputTokens = 100;
        t.req.outputTokens = 100;
        t.traceIndex = 0;
        st.enqueueNew(t); // 1 queued + 1 not yet arrived == traceSize 2
    }
};

} // namespace

TEST(Auditor, AcceptsConsistentState)
{
    AuditFixture f;
    Auditor a;
    EXPECT_NO_THROW(a.check(f.view()));
    EXPECT_EQ(a.checksPassed(), 1u);
}

TEST(Auditor, CatchesSeededAccountingBugs)
{
    // Each seeded bug is the silent-corruption class the auditor
    // exists to catch; all must panic (std::logic_error), not warn.
    {
        AuditFixture f; // lost request: cursor claims 2 pulled
        auto v = f.view();
        v.nextArrival = 2;
        EXPECT_THROW(Auditor().check(v), std::logic_error);
    }
    {
        AuditFixture f; // KV bytes committed with nothing in flight
        auto v = f.view();
        v.acc.committedKv = 4096.0;
        EXPECT_THROW(Auditor().check(v), std::logic_error);
    }
    {
        AuditFixture f; // busy time exceeding the wall clock
        auto v = f.view();
        v.acc.busy = 2.0;
        EXPECT_THROW(Auditor().check(v), std::logic_error);
    }
    {
        AuditFixture f; // negative energy integrator
        auto v = f.view();
        v.acc.energy = -1.0;
        EXPECT_THROW(Auditor().check(v), std::logic_error);
    }
    {
        AuditFixture f; // illegal lifecycle state in the wait queue
        f.st.pool.overrideState(f.st.queue[0], RequestState::Decoding);
        EXPECT_THROW(Auditor().check(f.view()), std::logic_error);
    }
    {
        AuditFixture f; // clock moving backwards between boundaries
        Auditor a;
        a.check(f.view());
        auto v = f.view();
        v.acc.clock = 0.25;
        v.acc.busy = 0.1;
        EXPECT_THROW(a.check(v), std::logic_error);
    }
    {
        AuditFixture f; // peak queue depth below the live depth
        f.st.peakQueueDepth = 0;
        EXPECT_THROW(Auditor().check(f.view()), std::logic_error);
    }
    {
        AuditFixture f; // retired record finishing in the future
        ServedRequest s;
        s.outcome = RequestOutcome::Completed;
        s.finish = 5.0;
        f.served.push_back(s);
        auto v = f.view();
        v.nextArrival = 2; // conservation holds: 1 served + 1 queued
        EXPECT_THROW(Auditor().check(v), std::logic_error);
    }
}
