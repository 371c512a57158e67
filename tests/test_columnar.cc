/**
 * @file
 * Columnar request-state + time-index regression suite
 * (DESIGN.md §11).  The SoA RequestBatch and the three instant-set
 * time indexes replaced the executor's per-request objects and
 * per-cycle scans; the contract of that refactor is "not one reported
 * bit moves".  This suite pins that contract with a pre-refactor
 * golden matrix — 3 scenarios (zero-fault, faulted, KV-pressure) × 3
 * schedulers × exact/macro stepping, every ServingReport field
 * compared with EXPECT_EQ at full double precision — plus
 * checkpoint/resume legs over the same goldens, replicated-serving
 * bit-identity at several thread counts, InstantSet contract tests
 * (one against a std::multiset reference under the executor's drain
 * pattern), and the degenerate-percentile guarantees of
 * buildServingReport().
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cli/serve_run.hh"
#include "common/thread_pool.hh"
#include "engine/instant_set.hh"
#include "engine/faults.hh"
#include "engine/server.hh"
#include "model/calibration.hh"
#include "model/zoo.hh"

namespace er = edgereason;
using namespace er::engine;
using er::Seconds;
using er::model::ModelId;
namespace fs = std::filesystem;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

InferenceEngine
makeEngine()
{
    EngineConfig cfg;
    cfg.measurementNoise = false;
    return InferenceEngine(er::model::spec(ModelId::DeepScaleR1_5B),
                           er::model::calibration(ModelId::DeepScaleR1_5B),
                           cfg);
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
        ("edgereason_columnar_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

// --- Pre-refactor golden matrix --------------------------------------
//
// Captured from the last AoS/linear-scan executor (commit before the
// columnar refactor) by tools equivalent to the serving goldens in
// test_server.cc: each row is the full ServingReport of one
// scenario × scheduler × stepping-mode run, printed at %.17g so the
// doubles round-trip exactly.  The columnar executor must reproduce
// every row bit for bit.

struct GoldenRow
{
    std::size_t completed;
    std::size_t timedOut;
    std::size_t shed;
    std::size_t retriedCompleted;
    std::size_t degradedCompleted;
    std::uint64_t preemptions;
    std::size_t peakQueueDepth;
    double makespan;
    double throughputQps;
    double avgBatch;
    double meanLatency;
    double p50Latency;
    double p95Latency;
    double p99Latency;
    double totalEnergy;
    double energyPerQuery;
    double generatedTokens;
    double utilization;
    double meanQueueDelay;
    double p95QueueDelay;
    double p99QueueDelay;
    double goodputQps;
    double deadlineHitRate;
    double throttleResidency;
};

// Indexed [scenario*6 + scheduler*2 + (exact ? 0 : 1)] with scenario
// in {ZeroFault, Faulted, KvPressure} and scheduler in {Fcfs, Edf,
// Spjf} (enum order).
const GoldenRow kGolden[18] = {
    // ZeroFault / Fcfs / exact
    {40u, 0u, 0u, 0u, 0u, 0u, 1u,
     97.639669240111516, 0.40966955655732118, 2.8525950857401705, 7.1479277056337507,
     6.6105845837061246, 12.589344909270258, 15.608470632710738,
     1998.426194565887, 49.960654864147173, 9905,
     0.99493447270387059, 0.013149128324883155, 0.025973867974072105, 0.036486638819613754,
     0.40966955655732118, 1, 0},
    // ZeroFault / Fcfs / macro
    {40u, 0u, 0u, 0u, 0u, 0u, 1u,
     97.639669240111516, 0.40966955655732118, 2.8525950857401705, 7.1479277056337507,
     6.6105845837061246, 12.589344909270258, 15.608470632710738,
     1998.4261945658877, 49.960654864147195, 9905,
     0.99493447270387059, 0.013149128324883155, 0.025973867974072105, 0.036486638819613754,
     0.40966955655732118, 1, 0},
    // ZeroFault / Edf / exact
    {40u, 0u, 0u, 0u, 0u, 0u, 1u,
     97.639669240111516, 0.40966955655732118, 2.8525950857401705, 7.1479277056337507,
     6.6105845837061246, 12.589344909270258, 15.608470632710738,
     1998.426194565887, 49.960654864147173, 9905,
     0.99493447270387059, 0.013149128324883155, 0.025973867974072105, 0.036486638819613754,
     0.40966955655732118, 1, 0},
    // ZeroFault / Edf / macro
    {40u, 0u, 0u, 0u, 0u, 0u, 1u,
     97.639669240111516, 0.40966955655732118, 2.8525950857401705, 7.1479277056337507,
     6.6105845837061246, 12.589344909270258, 15.608470632710738,
     1998.4261945658877, 49.960654864147195, 9905,
     0.99493447270387059, 0.013149128324883155, 0.025973867974072105, 0.036486638819613754,
     0.40966955655732118, 1, 0},
    // ZeroFault / Spjf / exact
    {40u, 0u, 0u, 0u, 0u, 0u, 1u,
     97.639669240111516, 0.40966955655732118, 2.8525950857401705, 7.1479277056337507,
     6.6105845837061246, 12.589344909270258, 15.608470632710738,
     1998.426194565887, 49.960654864147173, 9905,
     0.99493447270387059, 0.013149128324883155, 0.025973867974072105, 0.036486638819613754,
     0.40966955655732118, 1, 0},
    // ZeroFault / Spjf / macro
    {40u, 0u, 0u, 0u, 0u, 0u, 1u,
     97.639669240111516, 0.40966955655732118, 2.8525950857401705, 7.1479277056337507,
     6.6105845837061246, 12.589344909270258, 15.608470632710738,
     1998.4261945658877, 49.960654864147195, 9905,
     0.99493447270387059, 0.013149128324883155, 0.025973867974072105, 0.036486638819613754,
     0.40966955655732118, 1, 0},
    // Faulted / Fcfs / exact
    {22u, 8u, 20u, 0u, 5u, 0u, 27u,
     56.770477367600463, 0.38752536564992218, 6.8074558400958605, 22.024678192886814,
     25.008075671730339, 29.558859968728221, 29.753683069858013,
     953.23677318200635, 43.328944235545741, 9093,
     0.92266618826861602, 13.099580788495121, 18.970204755364879, 19.557327323574569,
     0.38752536564992218, 0.44, 0.36812222103875081},
    // Faulted / Fcfs / macro
    {22u, 8u, 20u, 0u, 5u, 0u, 27u,
     56.770477367600463, 0.38752536564992218, 6.8074558400958605, 22.024678192886814,
     25.008075671730339, 29.558859968728221, 29.753683069858013,
     953.23677318200635, 43.328944235545741, 9093,
     0.92266618826861602, 13.099580788495121, 18.970204755364879, 19.557327323574569,
     0.38752536564992218, 0.44, 0.36812222103875081},
    // Faulted / Edf / exact
    {22u, 8u, 20u, 0u, 5u, 0u, 27u,
     56.770477367600463, 0.38752536564992218, 6.8074558400958605, 22.024678192886814,
     25.008075671730339, 29.558859968728221, 29.753683069858013,
     953.23677318200635, 43.328944235545741, 9093,
     0.92266618826861602, 13.099580788495121, 18.970204755364879, 19.557327323574569,
     0.38752536564992218, 0.44, 0.36812222103875081},
    // Faulted / Edf / macro
    {22u, 8u, 20u, 0u, 5u, 0u, 27u,
     56.770477367600463, 0.38752536564992218, 6.8074558400958605, 22.024678192886814,
     25.008075671730339, 29.558859968728221, 29.753683069858013,
     953.23677318200635, 43.328944235545741, 9093,
     0.92266618826861602, 13.099580788495121, 18.970204755364879, 19.557327323574569,
     0.38752536564992218, 0.44, 0.36812222103875081},
    // Faulted / Spjf / exact
    {24u, 3u, 23u, 0u, 0u, 0u, 31u,
     59.3755050074924, 0.40420708837712654, 6.1513071663760375, 16.327956216525823,
     16.145506847427047, 25.083211802817008, 28.893816212628341,
     984.35801126997126, 41.014917136248805, 9047,
     0.92605911464512247, 13.852238910265328, 30.025854032939471, 30.053503187161361,
     0.40420708837712654, 0.47999999999999998, 0.38259934988541211},
    // Faulted / Spjf / macro
    {24u, 3u, 23u, 0u, 0u, 0u, 31u,
     59.3755050074924, 0.40420708837712654, 6.1513071663760375, 16.327956216525823,
     16.145506847427047, 25.083211802817008, 28.893816212628341,
     984.35801126997126, 41.014917136248805, 9047,
     0.92605911464512247, 13.852238910265328, 30.025854032939471, 30.053503187161361,
     0.40420708837712654, 0.47999999999999998, 0.38259934988541211},
    // KvPressure / Fcfs / exact
    {17u, 0u, 13u, 3u, 0u, 58u, 16u,
     234.65066624027929, 0.072448121594473613, 10.194439826713657, 137.55041730734254,
     134.47284409525196, 186.91366572346237, 223.94920361357717,
     8041.2397132399055, 473.01410077881798, 64131,
     1, 56.731364779797353, 115.90331522351588, 116.5695888436494,
     0.072448121594473613, 1, 0},
    // KvPressure / Fcfs / macro
    {17u, 0u, 13u, 3u, 0u, 58u, 16u,
     234.65066624027929, 0.072448121594473613, 10.194439826713657, 137.55041730734254,
     134.47284409525196, 186.91366572346237, 223.94920361357717,
     8041.2397132399128, 473.01410077881837, 64131,
     1, 56.731364779797353, 115.90331522351588, 116.5695888436494,
     0.072448121594473613, 1, 0},
    // KvPressure / Edf / exact
    {17u, 0u, 13u, 3u, 0u, 58u, 16u,
     234.65066624027929, 0.072448121594473613, 10.194439826713657, 137.55041730734254,
     134.47284409525196, 186.91366572346237, 223.94920361357717,
     8041.2397132399055, 473.01410077881798, 64131,
     1, 56.731364779797353, 115.90331522351588, 116.5695888436494,
     0.072448121594473613, 1, 0},
    // KvPressure / Edf / macro
    {17u, 0u, 13u, 3u, 0u, 58u, 16u,
     234.65066624027929, 0.072448121594473613, 10.194439826713657, 137.55041730734254,
     134.47284409525196, 186.91366572346237, 223.94920361357717,
     8041.2397132399128, 473.01410077881837, 64131,
     1, 56.731364779797353, 115.90331522351588, 116.5695888436494,
     0.072448121594473613, 1, 0},
    // KvPressure / Spjf / exact
    {17u, 0u, 13u, 3u, 0u, 58u, 16u,
     235.99440523562623, 0.072035606026450164, 10.613218504184301, 138.53490325212624,
     135.53876442479321, 188.25740471880931, 225.29294260892408,
     8093.510986872132, 476.08888158071363, 66744,
     1, 56.844605026172282, 115.90420036672685, 116.57047398686036,
     0.072035606026450164, 1, 0},
    // KvPressure / Spjf / macro
    {17u, 0u, 13u, 3u, 0u, 58u, 16u,
     235.99440523562623, 0.072035606026450164, 10.613218504184301, 138.53490325212624,
     135.53876442479321, 188.25740471880931, 225.29294260892408,
     8093.5109868721438, 476.08888158071431, 66744,
     1, 56.844605026172282, 115.90420036672685, 116.57047398686036,
     0.072035606026450164, 1, 0},
};

enum GoldenScenario { ZeroFault = 0, Faulted = 1, KvPressure = 2 };

const char *const kScenarioNames[] = {"ZeroFault", "Faulted",
                                      "KvPressure"};

/** Config + trace + fault setup of one golden scenario, replicating
 *  the capture tool's parameters exactly. */
struct Scenario
{
    ServerConfig cfg;
    std::vector<ServerRequest> trace;
    FaultConfig fc;
    bool faulted = false;
};

Scenario
makeScenario(GoldenScenario which)
{
    Scenario s;
    switch (which) {
      case ZeroFault: {
        er::Rng rng(42, "golden");
        s.trace = ServingSimulator::poissonTrace(rng, 40, 0.5, 120,
                                                 256);
        break;
      }
      case Faulted: {
        s.cfg.maxBatch = 8;
        s.cfg.degrade.mode = DegradeMode::Budget;
        s.cfg.degrade.budget = er::strategy::TokenPolicy::hard(128);
        er::Rng rng(42, "golden-faults");
        s.trace = ServingSimulator::poissonTrace(rng, 50, 2.0, 120,
                                                 512);
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
        break;
      }
      case KvPressure: {
        s.cfg.maxBatch = 32;
        er::Rng rng(7, "golden-kv");
        s.trace = ServingSimulator::poissonTrace(rng, 30, 4.0, 120,
                                                 3000);
        s.fc.seed = 0xFA17;
        s.fc.horizon = s.trace.back().arrival + 600.0;
        s.fc.kvShrinksPerHour = 240.0;
        s.fc.kvShrinkFraction = 0.97;
        s.fc.kvShrinkDuration = 30.0;
        s.faulted = true;
        break;
      }
    }
    return s;
}

ServingSimulator
makeServer(InferenceEngine &eng, const Scenario &s,
           SchedulerPolicy policy, bool exact_steps)
{
    ServerConfig cfg = s.cfg;
    cfg.scheduler = policy;
    cfg.exactSteps = exact_steps;
    if (policy == SchedulerPolicy::Spjf)
        cfg.spjfModel = toyModel();
    return ServingSimulator(eng, cfg);
}

/** Fault plan of a scenario, optionally with a crash scheduled.  A
 *  crash schedule alone does not activate a plan, so the zero-fault
 *  scenario can crash without perturbing its run arithmetic. */
FaultPlan
planOf(const Scenario &s, std::int64_t crash_at_step = -1)
{
    if (!s.faulted && crash_at_step < 0)
        return FaultPlan();
    FaultConfig fc = s.fc;
    fc.crash.atStep = crash_at_step;
    return FaultPlan(fc);
}

/** EXPECT_EQ (never NEAR) of a live report against a golden row. */
void
expectGolden(const ServingReport &rep, const GoldenRow &g,
             SchedulerPolicy policy)
{
    EXPECT_EQ(rep.completed, g.completed);
    EXPECT_EQ(rep.timedOut, g.timedOut);
    EXPECT_EQ(rep.shed, g.shed);
    EXPECT_EQ(rep.retriedCompleted, g.retriedCompleted);
    EXPECT_EQ(rep.degradedCompleted, g.degradedCompleted);
    EXPECT_EQ(rep.preemptions, g.preemptions);
    EXPECT_EQ(rep.peakQueueDepth, g.peakQueueDepth);
    EXPECT_EQ(rep.makespan, g.makespan);
    EXPECT_EQ(rep.throughputQps, g.throughputQps);
    EXPECT_EQ(rep.avgBatch, g.avgBatch);
    EXPECT_EQ(rep.meanLatency, g.meanLatency);
    EXPECT_EQ(rep.p50Latency, g.p50Latency);
    EXPECT_EQ(rep.p95Latency, g.p95Latency);
    EXPECT_EQ(rep.p99Latency, g.p99Latency);
    EXPECT_EQ(rep.totalEnergy, g.totalEnergy);
    EXPECT_EQ(rep.energyPerQuery, g.energyPerQuery);
    EXPECT_EQ(rep.generatedTokens, g.generatedTokens);
    EXPECT_EQ(rep.utilization, g.utilization);
    EXPECT_EQ(rep.meanQueueDelay, g.meanQueueDelay);
    EXPECT_EQ(rep.p95QueueDelay, g.p95QueueDelay);
    EXPECT_EQ(rep.p99QueueDelay, g.p99QueueDelay);
    EXPECT_EQ(rep.goodputQps, g.goodputQps);
    EXPECT_EQ(rep.deadlineHitRate, g.deadlineHitRate);
    EXPECT_EQ(rep.throttleResidency, g.throttleResidency);
    EXPECT_EQ(rep.schedulerPolicy, policy);
}

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
    EXPECT_EQ(a.cancelled, b.cancelled);
    EXPECT_EQ(a.cachedPrefixTokens, b.cachedPrefixTokens);
    EXPECT_EQ(a.prefixHitRate, b.prefixHitRate);
    EXPECT_EQ(a.prefillSecondsSaved, b.prefillSecondsSaved);
    EXPECT_EQ(a.prefixEvictions, b.prefixEvictions);
}

} // namespace

// --- Golden bit-identity matrix --------------------------------------

TEST(ColumnarGolden, MatrixBitIdentity)
{
    const SchedulerPolicy policies[] = {SchedulerPolicy::Fcfs,
                                        SchedulerPolicy::Edf,
                                        SchedulerPolicy::Spjf};
    for (int scen = 0; scen < 3; ++scen) {
        const auto s = makeScenario(static_cast<GoldenScenario>(scen));
        for (int sched = 0; sched < 3; ++sched) {
            for (int exact = 1; exact >= 0; --exact) {
                SCOPED_TRACE(std::string(kScenarioNames[scen]) + "/" +
                             schedulerPolicyName(policies[sched]) +
                             "/" + (exact ? "exact" : "macro"));
                auto eng = makeEngine();
                auto srv = makeServer(eng, s, policies[sched],
                                      exact != 0);
                const auto rep = srv.run(s.trace, planOf(s));
                expectGolden(rep,
                             kGolden[scen * 6 + sched * 2 +
                                     (exact ? 0 : 1)],
                             policies[sched]);
            }
        }
    }
}

// --- Checkpoint/resume against the goldens ---------------------------
//
// Each scenario is crashed mid-run (checkpoint every 4 steps, so the
// resume replays a journal tail) and resumed with a crash-free plan;
// the resumed report must still match the pre-refactor golden row.
// This exercises ServingState::serialize/restore across the columnar
// pool — the wire format is TrackedRequest records in container
// order, so a byte-level mismatch with the pre-columnar format would
// surface here as a fingerprint/row mismatch.

namespace {

void
crashResumeGolden(GoldenScenario which, SchedulerPolicy policy,
                  std::int64_t crash_step)
{
    SCOPED_TRACE(std::string(kScenarioNames[which]) + "/" +
                 schedulerPolicyName(policy) + " crash-step=" +
                 std::to_string(crash_step));
    const auto s = makeScenario(which);
    const auto dir = scratchDir(
        std::string(kScenarioNames[which]) + "_" +
        schedulerPolicyName(policy));
    DurabilityOptions dur;
    dur.checkpointDir = dir;
    dur.checkpointEvery = 4;
    dur.paranoid = true;

    auto eng = makeEngine();
    auto crash_srv = makeServer(eng, s, policy, /*exact=*/false);
    EXPECT_THROW(crash_srv.run(s.trace, planOf(s, crash_step), dur),
                 SimulatedCrash);

    auto resume_srv = makeServer(eng, s, policy, /*exact=*/false);
    DurabilityOptions res = dur;
    res.resume = true;
    const auto rep = resume_srv.run(s.trace, planOf(s), res);

    const int sched = static_cast<int>(policy);
    expectGolden(rep, kGolden[which * 6 + sched * 2 + 1], policy);
    fs::remove_all(dir);
}

} // namespace

TEST(ColumnarGolden, CheckpointResumeZeroFault)
{
    crashResumeGolden(ZeroFault, SchedulerPolicy::Fcfs, 10);
}

TEST(ColumnarGolden, CheckpointResumeFaulted)
{
    crashResumeGolden(Faulted, SchedulerPolicy::Edf, 10);
}

TEST(ColumnarGolden, CheckpointResumeKvPressure)
{
    crashResumeGolden(KvPressure, SchedulerPolicy::Spjf, 10);
}

// --- Replicated serving (cli/serve_run.hh) ---------------------------

TEST(ReplicatedServing, IdenticalAtAnyThreadCountAndEqualToPlainRuns)
{
    // serveReplications() runs the plain single-node body once per
    // "shard/<i>" stream on the pool.  Fault plans, fallback swaps and
    // the prefix index then run concurrently, sharing only the
    // engines' memo caches: the reports must not depend on the pool
    // size, and replication i must be the plain serveNode() run on
    // stream "shard/<i>".
    auto eng = makeEngine();
    EngineConfig ecfg;
    ecfg.measurementNoise = false;
    InferenceEngine quant(
        er::model::quantizedSpec(ModelId::DeepScaleR1_5B),
        er::model::calibration(ModelId::DeepScaleR1_5B,
                               er::DType::W4A16),
        ecfg);

    er::cli::ServeOptions poisson;
    poisson.replications = 4;
    poisson.requests = 32;
    poisson.qps = 4.0;
    poisson.meanIn = 96;
    poisson.meanOut = 256;

    er::cli::ServeOptions faulted = poisson;
    faulted.faults = true;
    faulted.degrade = DegradeMode::Fallback;
    faulted.deadline = 60.0;
    faulted.meanOut = 512;
    faulted.ambient = 70.0;

    er::cli::ServeOptions sessions = poisson;
    sessions.sessions = 6;
    sessions.turnsPerSession = 3;
    sessions.sessionQps = 1.0;
    sessions.systemPrompt = 256;

    const struct
    {
        const char *name;
        er::cli::ServeOptions opts;
    } cases[] = {{"poisson", poisson},
                 {"faults+fallback", faulted},
                 {"sessions+prefix", sessions}};
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        ServerConfig cfg;
        cfg.maxBatch = 16;
        cfg.degrade.mode = c.opts.degrade;
        cfg.prefixCache.enabled = c.opts.prefixCacheOn();
        InferenceEngine *fallback =
            c.opts.degrade == DegradeMode::Fallback ? &quant : nullptr;

        std::vector<ServingReport> plain;
        for (long long i = 0; i < c.opts.replications; ++i)
            plain.push_back(er::cli::serveNode(
                c.opts, eng, fallback, cfg,
                "shard/" + std::to_string(i)));
        // The fallback swaps and the prefix hits really happen.
        ServerConfig ride = cfg;
        ride.degrade.mode = DegradeMode::None;
        EXPECT_EQ(er::cli::serveNode(c.opts, eng, nullptr, ride, "shard/0")
                          .totalEnergy != plain[0].totalEnergy,
                  fallback != nullptr);
        EXPECT_EQ(plain[0].cachedPrefixTokens > 0.0,
                  cfg.prefixCache.enabled);
        for (unsigned threads : {1u, 2u, 4u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            er::ThreadPool::setGlobalThreads(threads);
            const auto reports =
                er::cli::serveReplications(c.opts, eng, fallback, cfg);
            ASSERT_EQ(reports.size(), plain.size());
            for (std::size_t i = 0; i < plain.size(); ++i) {
                SCOPED_TRACE("replication=" + std::to_string(i));
                expectIdenticalReports(plain[i], reports[i]);
            }
        }
        er::ThreadPool::setGlobalThreads(0);
    }
}

// --- InstantSet contract ---------------------------------------------

TEST(InstantSet, EmptyQueries)
{
    InstantSet set;
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.size(), 0u);
    EXPECT_EQ(set.min(), kInf);
    EXPECT_EQ(set.firstAfter(0.0), kInf);
    EXPECT_EQ(set.firstAfter(-1e18), kInf);
    EXPECT_TRUE(set.sortedKeys().empty());
}

TEST(InstantSet, DuplicateKeysAreMultisetSemantics)
{
    InstantSet set;
    set.insert(5.0);
    set.insert(5.0);
    set.insert(5.0);
    EXPECT_EQ(set.size(), 3u);
    set.erase(5.0);
    EXPECT_EQ(set.size(), 2u);
    EXPECT_EQ(set.min(), 5.0);
    set.erase(5.0);
    set.erase(5.0);
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.min(), kInf);
}

TEST(InstantSet, FirstAfterIsStrict)
{
    InstantSet set;
    set.insert(1.0);
    set.insert(2.0);
    set.insert(2.0);
    set.insert(3.0);
    EXPECT_EQ(set.firstAfter(0.5), 1.0);
    EXPECT_EQ(set.firstAfter(1.0), 2.0);  // strictly greater
    EXPECT_EQ(set.firstAfter(2.0), 3.0);  // skips both duplicates
    EXPECT_EQ(set.firstAfter(3.0), kInf);
}

TEST(InstantSet, EraseAbsentKeyPanics)
{
    InstantSet set;
    set.insert(1.0);
    // An absent key means derived-state drift; the set must refuse
    // rather than silently diverge from the containers it indexes.
    EXPECT_THROW(set.erase(2.0), std::logic_error);
    EXPECT_THROW(InstantSet().erase(0.0), std::logic_error);
}

TEST(InstantSet, NanKeyPanics)
{
    InstantSet set;
    EXPECT_THROW(set.insert(std::nan("")), std::logic_error);
}

namespace {

/** Reference answer from a std::multiset. */
Seconds
refMin(const std::multiset<Seconds> &m)
{
    return m.empty() ? kInf : *m.begin();
}

} // namespace

TEST(InstantSet, MonotoneDrainMatchesSimulatorUsage)
{
    // The executor's access pattern: insert future instants, then
    // repeatedly take min() and erase it as the clock advances.
    // min() must never skip or repeat a key across thousands of
    // erase-of-min calls interleaved with re-inserts.
    std::mt19937 gen(42);
    std::exponential_distribution<double> gap(2.0);
    InstantSet set;
    std::multiset<Seconds> ref;
    double t = 0.0;
    for (int i = 0; i < 4000; ++i) {
        t += gap(gen);
        set.insert(t);
        ref.insert(t);
    }
    while (!ref.empty()) {
        ASSERT_EQ(set.min(), refMin(ref));
        set.erase(*ref.begin());
        ref.erase(ref.begin());
        // Occasionally re-arm a future instant mid-drain, as retry
        // gates do.
        if (!ref.empty() && (gen() % 8) == 0) {
            const auto key = *ref.begin() + gap(gen);
            set.insert(key);
            ref.insert(key);
        }
    }
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.min(), kInf);
}

// --- Degenerate percentile contracts ---------------------------------

TEST(ServingReportPercentiles, EmptyTraceIsFatalNotNan)
{
    auto eng = makeEngine();
    ServingSimulator srv(eng, ServerConfig{});
    EXPECT_THROW(srv.run({}), std::runtime_error);
}

TEST(ServingReportPercentiles, AllShedRunHasZeroPercentiles)
{
    // Impossible deadlines shed every request at admission: zero
    // completions means empty latency samples, which must report 0.0
    // (the meanLatency/throughput convention), not NaN and not a
    // percentile() panic.
    auto eng = makeEngine();
    er::Rng rng(3, "degenerate");
    auto trace = ServingSimulator::poissonTrace(rng, 4, 2.0, 64, 128);
    for (auto &r : trace)
        r.deadline = 1e-9;
    ServingSimulator srv(eng, ServerConfig{});
    const auto rep = srv.run(trace);
    EXPECT_EQ(rep.completed, 0u);
    EXPECT_EQ(rep.meanLatency, 0.0);
    EXPECT_EQ(rep.p50Latency, 0.0);
    EXPECT_EQ(rep.p95Latency, 0.0);
    EXPECT_EQ(rep.p99Latency, 0.0);
    EXPECT_EQ(rep.energyPerQuery, 0.0);
    EXPECT_FALSE(std::isnan(rep.throughputQps));
    EXPECT_FALSE(std::isnan(rep.meanQueueDelay));
    EXPECT_FALSE(std::isnan(rep.p95QueueDelay));
    EXPECT_FALSE(std::isnan(rep.p99QueueDelay));
    EXPECT_FALSE(std::isnan(rep.goodputQps));
    EXPECT_FALSE(std::isnan(rep.deadlineHitRate));
    EXPECT_FALSE(std::isnan(rep.avgBatch));
    EXPECT_FALSE(std::isnan(rep.utilization));
    EXPECT_FALSE(std::isnan(rep.throttleResidency));
}

TEST(ServingReportPercentiles, SingleRequestIsItsOwnPercentile)
{
    auto eng = makeEngine();
    std::vector<ServerRequest> trace(1);
    trace[0].arrival = 0.0;
    trace[0].inputTokens = 64;
    trace[0].outputTokens = 32;
    ServingSimulator srv(eng, ServerConfig{});
    const auto rep = srv.run(trace);
    EXPECT_EQ(rep.completed, 1u);
    EXPECT_GT(rep.meanLatency, 0.0);
    EXPECT_EQ(rep.p50Latency, rep.meanLatency);
    EXPECT_EQ(rep.p95Latency, rep.meanLatency);
    EXPECT_EQ(rep.p99Latency, rep.meanLatency);
    EXPECT_EQ(rep.p95QueueDelay, rep.meanQueueDelay);
    EXPECT_EQ(rep.p99QueueDelay, rep.meanQueueDelay);
    EXPECT_FALSE(std::isnan(rep.utilization));
    EXPECT_FALSE(std::isnan(rep.avgBatch));
}
