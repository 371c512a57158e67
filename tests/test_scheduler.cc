/**
 * @file
 * Tests for the layered serving stack: the request lifecycle state
 * machine, the pluggable admission schedulers (fcfs / edf / spjf),
 * chunked prefill, and — most importantly — bit-exactness of the
 * decomposed simulator against goldens recorded from the monolithic
 * pre-refactor run loop.
 *
 * The golden values were produced by the pre-decomposition
 * ServingSimulator with %.17g printing (which round-trips doubles
 * exactly), for three scenarios that jointly cover every code path:
 * plain completion, deadline timeout/shed, budget degradation, thermal
 * throttling, brownouts, and KV-shrink preemption with retry.  The
 * legacy configuration (--scheduler fcfs --prefill-chunk 0) must keep
 * reproducing them bit for bit: every comparison below is exact
 * (EXPECT_EQ on doubles), not approximate.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>

#include "engine/server.hh"
#include "model/calibration.hh"
#include "model/zoo.hh"

namespace er = edgereason;
using namespace er::engine;
using er::Seconds;
using er::Tokens;
using er::model::ModelId;

namespace {

InferenceEngine
makeEngine(ModelId id = ModelId::DeepScaleR1_5B)
{
    EngineConfig cfg;
    cfg.measurementNoise = false;
    return InferenceEngine(er::model::spec(id),
                           er::model::calibration(id), cfg);
}

/** A latency model with plausible shape for SPJF ordering tests (only
 *  the relative order of predictions matters to the scheduler). */
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

TrackedRequest
tracked(Seconds arrival, Tokens in, Tokens out, int priority = 0,
        Seconds deadline = 0.0, Seconds not_before = 0.0)
{
    TrackedRequest t;
    t.req.arrival = arrival;
    t.req.inputTokens = in;
    t.req.outputTokens = out;
    t.req.priority = priority;
    t.req.deadline = deadline;
    t.notBefore = not_before;
    return t;
}

// ---------------------------------------------------------------------
// Golden bit-exactness (legacy fcfs / chunk-0 path).
// ---------------------------------------------------------------------

struct GoldenReq
{
    int outcome;
    double queueDelay;
    double serviceTime;
    double finish;
    long long generated;
    int preemptions;
    int degraded;
};

struct GoldenAgg
{
    std::size_t completed, timedOut, shed, retried, degraded;
    unsigned long long preemptions;
    double makespan, throughputQps, avgBatch, meanLatency, p50, p95,
        totalEnergy, energyPerQuery, generatedTokens, utilization,
        goodputQps, deadlineHitRate, throttleResidency;
};

void
expectGolden(const std::vector<ServedRequest> &served,
             const ServingReport &rep, const GoldenAgg &agg,
             const GoldenReq *reqs, std::size_t n)
{
    EXPECT_EQ(rep.completed, agg.completed);
    EXPECT_EQ(rep.timedOut, agg.timedOut);
    EXPECT_EQ(rep.shed, agg.shed);
    EXPECT_EQ(rep.retriedCompleted, agg.retried);
    EXPECT_EQ(rep.degradedCompleted, agg.degraded);
    EXPECT_EQ(rep.preemptions, agg.preemptions);
    // Exact comparisons: the layered stack must execute the legacy
    // arithmetic in the legacy order, down to the last ulp.
    EXPECT_EQ(rep.makespan, agg.makespan);
    EXPECT_EQ(rep.throughputQps, agg.throughputQps);
    EXPECT_EQ(rep.avgBatch, agg.avgBatch);
    EXPECT_EQ(rep.meanLatency, agg.meanLatency);
    EXPECT_EQ(rep.p50Latency, agg.p50);
    EXPECT_EQ(rep.p95Latency, agg.p95);
    EXPECT_EQ(rep.totalEnergy, agg.totalEnergy);
    EXPECT_EQ(rep.energyPerQuery, agg.energyPerQuery);
    EXPECT_EQ(rep.generatedTokens, agg.generatedTokens);
    EXPECT_EQ(rep.utilization, agg.utilization);
    EXPECT_EQ(rep.goodputQps, agg.goodputQps);
    EXPECT_EQ(rep.deadlineHitRate, agg.deadlineHitRate);
    EXPECT_EQ(rep.throttleResidency, agg.throttleResidency);
    EXPECT_EQ(rep.schedulerPolicy, SchedulerPolicy::Fcfs);
    ASSERT_EQ(served.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        EXPECT_EQ(static_cast<int>(served[i].outcome),
                  reqs[i].outcome);
        EXPECT_EQ(served[i].queueDelay, reqs[i].queueDelay);
        EXPECT_EQ(served[i].serviceTime, reqs[i].serviceTime);
        EXPECT_EQ(served[i].finish, reqs[i].finish);
        EXPECT_EQ(served[i].generated, reqs[i].generated);
        EXPECT_EQ(served[i].preemptions, reqs[i].preemptions);
        EXPECT_EQ(static_cast<int>(served[i].degraded),
                  reqs[i].degraded);
    }
}

const GoldenReq kZeroFaultReqs[] = {
    {0, 0, 8.6784096352567826, 11.494589550402365, 332, 0, 0},
    {0, 0.010658389064799323, 8.6556205100229988, 14.27380129919103, 327, 0, 0},
    {0, 0.011087969858266433, 6.8195149249113243, 19.692106180247386, 251, 0, 0},
    {0, 0.022931942526671634, 5.0703732920204807, 22.594131751874091, 178, 0, 0},
    {0, 0.0067930304318295498, 7.4598801303398687, 23.945667291997687, 266, 0, 0},
    {0, 0.0061596127333274353, 8.1647742892588724, 26.384714999161847, 303, 0, 0},
    {0, 0.019838830233151583, 7.8244420100277701, 35.265538776842178, 279, 0, 0},
    {0, 0.018716678964061373, 5.8626427134258776, 36.898764754743702, 204, 0, 0},
    {0, 0.003407097640248935, 10.617838567302996, 36.925305583862944, 383, 0, 0},
    {0, 0.004342209549239584, 11.610068947627735, 42.724617907088401, 409, 0, 0},
    {0, 0.010972406146400715, 5.2568775912954777, 43.264870789853312, 180, 0, 0},
    {0, 0.025947268069174356, 5.2538664004510096, 45.640820008902146, 182, 0, 0},
    {0, 0.012263399464480074, 6.8944854295497464, 45.905969218454366, 240, 0, 0},
    {0, 0.018695899849412001, 6.4887289970420241, 47.579748461902597, 237, 0, 0},
    {0, 0, 5.0427094420698069, 53.117054313693536, 200, 0, 0},
    {0, 0.010998429305367097, 5.1336252524980708, 57.953743516398134, 196, 0, 0},
    {0, 0.00086913602110172405, 5.2465873421264675, 61.50968959979901, 179, 0, 0},
    {0, 0.0069920234576841267, 7.166877117024903, 64.299398672352766, 246, 0, 0},
    {0, 0.0054962867502723611, 4.5340667983102634, 64.327039727221305, 156, 0, 0},
    {0, 0.002721930368565495, 6.6409844204495059, 65.36075893017869, 229, 0, 0},
    {0, 0.04288479510562837, 11.710540663006945, 70.507513124811467, 415, 0, 0},
    {0, 0.0083498370842960412, 3.5580615908127697, 72.71139030413643, 110, 0, 0},
    {0, 0.0090032027506765644, 5.1062434708123021, 74.373893625355265, 162, 0, 0},
    {0, 0.0059959279687262779, 7.8348856368298243, 75.559583283612994, 254, 0, 0},
    {0, 0.025484214759160295, 3.1693863416020918, 75.618917364464039, 101, 0, 0},
    {0, 0.017076305214047238, 5.9872045766558699, 75.880843228741028, 193, 0, 0},
    {0, 0.0069753084666075438, 2.3906675362863439, 76.644743942549937, 76, 0, 0},
    {0, 0.0090061108614207797, 9.1775150713808813, 78.808665498657277, 299, 0, 0},
    {0, 0.0029933413426732614, 8.638784739304981, 79.320484019171531, 285, 0, 0},
    {0, 0.022853119944031164, 4.9689757279147244, 83.349562155752736, 169, 0, 0},
    {0, 0.018731472935087368, 8.2038601455872566, 87.744820741833706, 278, 0, 0},
    {0, 0.010991030696786197, 14.707690777046068, 89.704592251337303, 493, 0, 0},
    {0, 0.0071003809847240973, 3.3010650703380975, 91.162584699270241, 107, 0, 0},
    {0, 0.0082180007147201195, 6.5692448158794576, 91.51354353615821, 215, 0, 0},
    {0, 0.020577333468168035, 16.156774679140071, 92.634739515147729, 542, 0, 0},
    {0, 0.022608836283396272, 6.9112156001460363, 93.802848446912719, 228, 0, 0},
    {0, 0.018906279221440059, 5.6708740218722085, 94.356076957954372, 191, 0, 0},
    {0, 0.026479266167129367, 12.450795280025631, 95.110373364015445, 417, 0, 0},
    {0, 0.017307147112703092, 4.6733903908610586, 97.014784203267922, 167, 0, 0},
    {0, 0.025530681479850159, 5.7815931458400627, 100.4558491552571, 226, 0, 0},
};

const GoldenReq kFaultedReqs[] = {
    {0, 0.026980848650165368, 7.7591283521969379, 8.3317724068977981, 251, 0, 0},
    {0, 0, 13.271457494661865, 13.769487884513556, 377, 0, 0},
    {2, 8.3613087178207746, 0, 13.769487884513556, 0, 0, 0},
    {0, 0.0070393413114406833, 11.800298208742131, 14.867783278743019, 326, 0, 0},
    {0, 0.0069647956993823534, 12.96686031475436, 16.213036501306931, 364, 0, 0},
    {0, 0.0013896392046279793, 14.601780175841791, 17.444878386146232, 378, 0, 0},
    {0, 0.015334717721288582, 17.006125903774869, 18.448242183723671, 456, 0, 0},
    {0, 0.02021394405596677, 16.957369873387599, 19.52292832704104, 450, 0, 0},
    {2, 11.160488896012836, 0, 19.52292832704104, 0, 0, 0},
    {0, 3.011284997481761, 16.568975775569328, 24.900748182467126, 387, 0, 0},
    {2, 15.402521774509729, 0, 24.900748182467126, 0, 0, 0},
    {2, 15.22561274756919, 0, 24.900748182467126, 0, 0, 0},
    {2, 15.03374393453573, 0, 24.900748182467126, 0, 0, 0},
    {0, 11.656311533581153, 8.2585918457440499, 26.706834029467721, 208, 0, 0},
    {0, 10.699927420629033, 10.476508537871187, 29.999436864912226, 280, 0, 0},
    {0, 0.016214039306373884, 25.484178138146785, 30.323356614423886, 669, 0, 0},
    {2, 19.617844626486477, 0, 30.323356614423886, 0, 0, 0},
    {0, 8.9584961332999669, 15.576044390080032, 30.443827668823051, 400, 0, 0},
    {2, 18.983819635524103, 0, 30.443827668823051, 0, 0, 0},
    {2, 18.448742178660716, 0, 30.443827668823051, 0, 0, 0},
    {0, 9.8776073080807336, 15.604003511999945, 31.817040013306876, 401, 0, 0},
    {2, 18.914565543039764, 0, 31.817040013306876, 0, 0, 0},
    {2, 18.700917968976313, 0, 31.817040013306876, 0, 0, 0},
    {2, 18.370381936196068, 0, 31.817040013306876, 0, 0, 0},
    {2, 18.15965263280124, 0, 31.817040013306876, 0, 0, 0},
    {0, 8.1497477854826919, 18.343285545697764, 32.11277343021132, 485, 0, 0},
    {2, 16.41824229197163, 0, 32.11277343021132, 0, 0, 0},
    {0, 10.838290411633039, 16.941858746003913, 34.386737132150145, 477, 0, 0},
    {2, 16.657519997217193, 0, 34.479130449122458, 0, 0, 0},
    {0, 16.450610922710588, 10.725109665822785, 37.431943695290506, 332, 0, 0},
    {2, 18.399696268910262, 0, 37.431943695290506, 0, 0, 0},
    {1, 14.747082887601405, 15.313097357849045, 40.213845540316171, 429, 0, 0},
    {2, 18.353220885985802, 0, 40.213845540316171, 0, 0, 0},
    {2, 17.676110751254935, 0, 40.213845540316171, 0, 0, 0},
    {1, 19.494339926666257, 10.566063521940407, 40.565500386852634, 269, 0, 0},
    {2, 17.760513706524161, 0, 40.565500386852634, 0, 0, 0},
    {1, 18.953564346281382, 11.102038015019552, 41.425394629443439, 268, 0, 0},
    {1, 18.056382470712496, 12.003560292976598, 42.447387961799649, 275, 0, 0},
    {0, 16.213462979203271, 12.594933511830234, 44.707706942041554, 246, 0, 0},
    {2, 18.624780650911415, 0, 44.707706942041554, 0, 0, 0},
    {2, 18.404126974109111, 0, 44.707706942041554, 0, 0, 0},
    {1, 16.286357136131041, 13.750136158630308, 45.567176171937184, 261, 0, 0},
    {1, 16.222574354061223, 13.824996302621862, 48.30412675174432, 208, 0, 0},
    {1, 17.278430127943345, 12.75714850258256, 50.189092197873066, 134, 0, 0},
    {1, 17.504299485035233, 12.571112694789505, 52.784958235105677, 122, 0, 1},
    {0, 16.63839543669344, 12.947029693467059, 53.512530080319692, 128, 0, 1},
    {0, 16.344984776402779, 12.709137125112214, 54.134531754555653, 128, 0, 1},
    {0, 17.335007253970467, 12.463402609984357, 54.910790571784005, 128, 0, 1},
    {0, 15.955334121744908, 12.023312665999143, 56.731019608040697, 128, 0, 1},
    {0, 15.538598164443407, 11.701331585514971, 57.268507757452156, 128, 0, 1},
};

const GoldenReq kKvPressureReqs[] = {
    {0, 0.069357699375231757, 71.009700877730751, 71.195936392824464, 1907, 0, 0},
    {0, 0.082684646091910174, 73.735219532032716, 75.29296957237851, 1981, 0, 0},
    {0, 0.070040661379509345, 79.609671547338721, 79.882465224681937, 2107, 0, 0},
    {0, 0.020357082566742069, 106.34350101749529, 109.40555402622276, 2764, 0, 0},
    {2, 112.90107330831178, 0, 120.54901527855732, 0, 4, 0},
    {2, 113.21183052186439, 0, 120.54901527855732, 0, 4, 0},
    {2, 113.42498104011418, 0, 120.54901527855732, 0, 4, 0},
    {2, 113.54040398565354, 0, 120.54901527855732, 0, 4, 0},
    {2, 113.91552149274261, 0, 120.54901527855732, 0, 4, 0},
    {2, 113.99899096857138, 0, 120.54901527855732, 0, 4, 0},
    {2, 114.68737691482717, 0, 120.54901527855732, 0, 4, 0},
    {2, 114.68737848074684, 0, 120.54901527855732, 0, 4, 0},
    {2, 114.83663920021111, 0, 120.54901527855732, 0, 4, 0},
    {2, 114.94957118230235, 0, 120.54901527855732, 0, 4, 0},
    {2, 115.09759350644221, 0, 120.54901527855732, 0, 4, 0},
    {2, 116.5625420829398, 0, 120.54901527855732, 0, 4, 0},
    {2, 116.57246709802374, 0, 120.54901527855732, 0, 4, 0},
    {0, 0.0026539512948439148, 129.37846620494267, 130.02217604506785, 3330, 0, 0},
    {0, 0.05477795932156565, 134.41806613593039, 134.60430165102409, 3453, 0, 0},
    {0, 0.013831320727169638, 134.32098771911853, 135.1132670961947, 3453, 0, 0},
    {0, 74.123748852216835, 57.883470212312858, 135.91143520668209, 1406, 2, 0},
    {0, 0.070716056144615624, 133.58833560040708, 136.73257794014802, 3434, 0, 0},
    {0, 0.04563461144257086, 149.61637499893899, 150.5696732055074, 3875, 0, 0},
    {0, 0.018461272149977948, 148.92875393036832, 151.13560491461413, 3856, 0, 0},
    {0, 0.017299735730816668, 152.0425783578977, 152.83485773497387, 3943, 0, 0},
    {0, 0.0068949703415110142, 160.4994940573539, 160.60907585284042, 4195, 0, 0},
    {0, 71.466575040471994, 89.999145790491028, 165.29211536286954, 2332, 2, 0},
    {0, 67.468668886280568, 94.903477278020787, 166.09941367084525, 2464, 2, 0},
    {0, 0, 175.34006013280157, 175.34158600314538, 4701, 0, 0},
    {0, 0.022870865633886073, 233.18521722047197, 234.6521921106231, 6980, 0, 0},
};

TEST(SchedulerGolden, ZeroFaultRunIsBitExact)
{
    auto eng = makeEngine();
    // The goldens pin the legacy token-stepped loop (DESIGN.md §10);
    // macro-stepping equivalence is covered by test_macrostep.
    ServerConfig cfg;
    cfg.exactSteps = true;
    ServingSimulator srv(eng, cfg);
    er::Rng rng(42, "golden");
    const auto trace =
        ServingSimulator::poissonTrace(rng, 40, 0.5, 120, 256);
    const auto rep = srv.run(trace);
    const GoldenAgg agg = {
        40, 0, 0, 0, 0, 0,
        97.639669240111516, 0.40966955655732118, 2.8525950857401705,
        7.1479277056337507, 6.6105845837061246, 12.589344909270258,
        1998.426194565887, 49.960654864147173, 9905,
        0.99493447270387059, 0.40966955655732118, 1, 0};
    expectGolden(srv.served(), rep, agg, kZeroFaultReqs,
                 std::size(kZeroFaultReqs));
}

TEST(SchedulerGolden, FaultedRunIsBitExact)
{
    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.maxBatch = 8;
    cfg.degrade.mode = DegradeMode::Budget;
    cfg.degrade.budget = er::strategy::TokenPolicy::hard(128);
    cfg.exactSteps = true; // goldens pin the legacy loop
    ServingSimulator srv(eng, cfg);
    er::Rng rng(42, "golden-faults");
    auto trace = ServingSimulator::poissonTrace(rng, 50, 2.0, 120, 512);
    for (auto &r : trace)
        r.deadline = 30.0;
    FaultConfig fc;
    fc.seed = 0xFA17;
    fc.horizon = trace.back().arrival + 600.0;
    fc.thermal = true;
    fc.thermalSpec.rThermal = 2.5;
    fc.thermalSpec.cThermal = 20.0;
    fc.thermalSpec.ambientC = 55.0;
    fc.thermalSpec.initialC = 55.0;
    fc.brownoutsPerHour = 300.0;
    fc.kvShrinksPerHour = 200.0;
    fc.kvShrinkFraction = 0.6;
    fc.kvShrinkDuration = 15.0;
    const FaultPlan plan(fc);
    const auto rep = srv.run(trace, plan);
    const GoldenAgg agg = {
        22, 8, 20, 0, 5, 0,
        56.770477367600463, 0.38752536564992218, 6.8074558400958605,
        22.024678192886814, 25.008075671730339, 29.558859968728221,
        953.23677318200635, 43.328944235545741, 9093,
        0.92266618826861602, 0.38752536564992218, 0.44,
        0.36812222103875081};
    expectGolden(srv.served(), rep, agg, kFaultedReqs,
                 std::size(kFaultedReqs));
}

TEST(SchedulerGolden, KvPressureRunIsBitExact)
{
    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.maxBatch = 32;
    cfg.exactSteps = true; // goldens pin the legacy loop
    ServingSimulator srv(eng, cfg);
    er::Rng rng(7, "golden-kv");
    const auto trace =
        ServingSimulator::poissonTrace(rng, 30, 4.0, 120, 3000);
    FaultConfig fc;
    fc.seed = 0xFA17;
    fc.horizon = trace.back().arrival + 600.0;
    fc.kvShrinksPerHour = 240.0;
    fc.kvShrinkFraction = 0.97;
    fc.kvShrinkDuration = 30.0;
    const FaultPlan plan(fc);
    const auto rep = srv.run(trace, plan);
    const GoldenAgg agg = {
        17, 0, 13, 3, 0, 58,
        234.65066624027929, 0.072448121594473613, 10.194439826713657,
        137.55041730734254, 134.47284409525196, 186.91366572346237,
        8041.2397132399055, 473.01410077881798, 64131, 1,
        0.072448121594473613, 1, 0};
    expectGolden(srv.served(), rep, agg, kKvPressureReqs,
                 std::size(kKvPressureReqs));
}

TEST(SchedulerGolden, EdfMatchesFcfsOnDeadlineFreeTrace)
{
    // With no deadlines every absolute deadline is +inf; EDF's tie
    // break is the fcfs order, so the whole run must be identical.
    auto eng = makeEngine();
    ServingSimulator fcfs(eng);
    er::Rng rng_a(42, "golden");
    const auto trace_a =
        ServingSimulator::poissonTrace(rng_a, 40, 0.5, 120, 256);
    const auto rep_a = fcfs.run(trace_a);

    ServerConfig cfg;
    cfg.scheduler = SchedulerPolicy::Edf;
    ServingSimulator edf(eng, cfg);
    er::Rng rng_b(42, "golden");
    const auto trace_b =
        ServingSimulator::poissonTrace(rng_b, 40, 0.5, 120, 256);
    const auto rep_b = edf.run(trace_b);

    EXPECT_EQ(rep_b.schedulerPolicy, SchedulerPolicy::Edf);
    EXPECT_EQ(rep_a.makespan, rep_b.makespan);
    EXPECT_EQ(rep_a.meanLatency, rep_b.meanLatency);
    EXPECT_EQ(rep_a.totalEnergy, rep_b.totalEnergy);
    ASSERT_EQ(fcfs.served().size(), edf.served().size());
    for (std::size_t i = 0; i < fcfs.served().size(); ++i) {
        EXPECT_EQ(fcfs.served()[i].finish, edf.served()[i].finish);
        EXPECT_EQ(fcfs.served()[i].generated,
                  edf.served()[i].generated);
    }
}

// ---------------------------------------------------------------------
// Request lifecycle state machine.
// ---------------------------------------------------------------------

TEST(RequestState, TransitionTable)
{
    using S = RequestState;
    // Legal edges (the lifecycle diagram).
    EXPECT_TRUE(requestTransitionAllowed(S::Queued, S::Prefilling));
    EXPECT_TRUE(requestTransitionAllowed(S::Queued, S::Done));
    EXPECT_TRUE(requestTransitionAllowed(S::Prefilling, S::Decoding));
    EXPECT_TRUE(requestTransitionAllowed(S::Prefilling, S::Preempted));
    EXPECT_TRUE(requestTransitionAllowed(S::Prefilling, S::Done));
    EXPECT_TRUE(requestTransitionAllowed(S::Decoding, S::Preempted));
    EXPECT_TRUE(requestTransitionAllowed(S::Decoding, S::Done));
    EXPECT_TRUE(requestTransitionAllowed(S::Preempted, S::Prefilling));
    EXPECT_TRUE(requestTransitionAllowed(S::Preempted, S::Done));
    // Illegal edges.
    EXPECT_FALSE(requestTransitionAllowed(S::Queued, S::Decoding));
    EXPECT_FALSE(requestTransitionAllowed(S::Queued, S::Preempted));
    EXPECT_FALSE(requestTransitionAllowed(S::Decoding, S::Prefilling));
    EXPECT_FALSE(requestTransitionAllowed(S::Decoding, S::Queued));
    EXPECT_FALSE(requestTransitionAllowed(S::Preempted, S::Decoding));
    EXPECT_FALSE(requestTransitionAllowed(S::Done, S::Queued));
    EXPECT_FALSE(requestTransitionAllowed(S::Done, S::Prefilling));
    // Self-loops are not edges.
    EXPECT_FALSE(requestTransitionAllowed(S::Queued, S::Queued));
    EXPECT_FALSE(requestTransitionAllowed(S::Done, S::Done));
}

TEST(RequestState, StateNames)
{
    EXPECT_STREQ(requestStateName(RequestState::Queued), "queued");
    EXPECT_STREQ(requestStateName(RequestState::Prefilling),
                 "prefilling");
    EXPECT_STREQ(requestStateName(RequestState::Decoding), "decoding");
    EXPECT_STREQ(requestStateName(RequestState::Preempted),
                 "preempted");
    EXPECT_STREQ(requestStateName(RequestState::Done), "done");
}

TEST(RequestState, ResetForAdmissionInitializesInFlightFields)
{
    RequestBatch pool;
    const ReqId id = pool.adopt(tracked(1.0, 256, 512));
    pool.resetForAdmission(id, 3.5, 128, true, 7);
    EXPECT_EQ(pool.state(id), RequestState::Prefilling);
    EXPECT_EQ(pool.effOut(id), 128);
    EXPECT_EQ(pool.prefillStart(id), 3.5);
    EXPECT_EQ(pool.prefillDone(id), 0);
    EXPECT_EQ(pool.generated(id), 0);
    EXPECT_TRUE(pool.degraded(id));
    EXPECT_EQ(pool.seq(id), 7u);

    // Recompute-on-resume: a preempted request re-admits from scratch.
    pool.transition(id, RequestState::Preempted);
    pool.setGenerated(id, 99); // stale progress, must be discarded
    pool.resetForAdmission(id, 9.0, 512, false, 8);
    EXPECT_EQ(pool.state(id), RequestState::Prefilling);
    EXPECT_EQ(pool.generated(id), 0);
    EXPECT_EQ(pool.prefillDone(id), 0);
    EXPECT_FALSE(pool.degraded(id));
}

TEST(RequestState, DeadlineHelpers)
{
    RequestBatch pool;
    const ReqId none = pool.adopt(tracked(2.0, 64, 64));
    EXPECT_FALSE(pool.hasDeadline(none));
    EXPECT_EQ(pool.absoluteDeadline(none),
              std::numeric_limits<Seconds>::infinity());
    EXPECT_FALSE(pool.deadlineExpired(none, 1e12));

    const ReqId tight = pool.adopt(tracked(2.0, 64, 64, 0, 10.0));
    EXPECT_TRUE(pool.hasDeadline(tight));
    EXPECT_EQ(pool.absoluteDeadline(tight), 12.0);
    EXPECT_FALSE(pool.deadlineExpired(tight, 12.0));
    // Within the shared slack: still on time.
    EXPECT_FALSE(pool.deadlineExpired(tight, 12.0 + 0.5 * kDeadlineSlack));
    EXPECT_TRUE(pool.deadlineExpired(tight, 12.0 + 2.0 * kDeadlineSlack));
}

TEST(RequestState, DeadlineMetUsesSharedSlack)
{
    // Satellite fix: the served-record check and the abort check share
    // kDeadlineSlack, so a request aborted as late can never be
    // re-counted as having met its deadline.
    ServedRequest s;
    s.request.arrival = 1.0;
    s.request.deadline = 10.0;
    s.outcome = RequestOutcome::Completed;
    s.finish = 11.0 + 0.5 * kDeadlineSlack;
    EXPECT_TRUE(s.deadlineMet());
    s.finish = 11.0 + 2.0 * kDeadlineSlack;
    EXPECT_FALSE(s.deadlineMet());
    s.outcome = RequestOutcome::TimedOut;
    s.finish = 5.0;
    EXPECT_FALSE(s.deadlineMet());
}

// ---------------------------------------------------------------------
// Scheduler unit behaviour (pickNext).
// ---------------------------------------------------------------------

TEST(SchedulerPick, PolicyNamesRoundTrip)
{
    for (auto p : {SchedulerPolicy::Fcfs, SchedulerPolicy::Edf,
                   SchedulerPolicy::Spjf}) {
        const auto back = schedulerPolicyFromName(
            schedulerPolicyName(p));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, p);
    }
    EXPECT_FALSE(schedulerPolicyFromName("sjf").has_value());
    EXPECT_FALSE(schedulerPolicyFromName("").has_value());
}

/** Columnar scheduler-test fixture: a pool plus a queue over it. */
struct PickQ
{
    RequestBatch pool;
    IdQueue q;
    void push(const TrackedRequest &t)
    {
        const ReqId id = pool.adopt(t);
        q.push(id, t.req.priority, t.req.arrival, t.notBefore > 0.0);
    }
};

TEST(SchedulerPick, FcfsPriorityThenArrival)
{
    FcfsScheduler s;
    PickQ f;
    f.push(tracked(5.0, 64, 64, 0));
    f.push(tracked(1.0, 64, 64, 0));
    f.push(tracked(9.0, 64, 64, 2)); // higher class, later arrival
    EXPECT_EQ(s.pickNext(f.pool, f.q, 100.0), 2u);
    f.q.eraseAt(2);
    EXPECT_EQ(s.pickNext(f.pool, f.q, 100.0), 1u); // earliest in class
}

TEST(SchedulerPick, FcfsOrderHintFastPathMatchesScan)
{
    // A uniform-priority, FIFO-by-arrival, gate-free queue takes the
    // order-hint fast path (front pick, no scan); the hints must drop
    // back to the scan the moment any assumption breaks.
    FcfsScheduler s;
    PickQ f;
    f.push(tracked(1.0, 64, 64, 0));
    f.push(tracked(2.0, 64, 64, 0));
    EXPECT_TRUE(f.q.fcfsFrontIsPick());
    EXPECT_EQ(s.pickNext(f.pool, f.q, 100.0), 0u);
    f.push(tracked(3.0, 64, 64, 1)); // second priority class
    EXPECT_FALSE(f.q.fcfsFrontIsPick());
    EXPECT_EQ(s.pickNext(f.pool, f.q, 100.0), 2u);
    // Draining the queue resets the hints for its next life.
    f.q.eraseAt(2);
    f.q.eraseAt(0);
    f.q.eraseAt(0);
    EXPECT_TRUE(f.q.empty());
    f.push(tracked(9.0, 64, 64, 5));
    EXPECT_TRUE(f.q.fcfsFrontIsPick());
    EXPECT_EQ(s.pickNext(f.pool, f.q, 100.0), 0u);
}

TEST(SchedulerPick, BackoffGateSkipsIneligibleEntries)
{
    FcfsScheduler s;
    PickQ f;
    f.push(tracked(0.0, 64, 64, 0, 0.0, /*not_before=*/10.0));
    f.push(tracked(1.0, 64, 64, 0));
    EXPECT_EQ(s.pickNext(f.pool, f.q, 5.0), 1u);  // 0 backing off
    EXPECT_EQ(s.pickNext(f.pool, f.q, 10.0), 0u); // gate open: earlier
    f.q.eraseAt(1);
    EXPECT_EQ(s.pickNext(f.pool, f.q, 5.0), f.q.size()); // none open
}

TEST(SchedulerPick, EdfPrefersTighterAbsoluteDeadline)
{
    EdfScheduler s;
    PickQ f;
    f.push(tracked(0.0, 64, 64, 0, 50.0));  // absolute 50
    f.push(tracked(20.0, 64, 64, 0, 10.0)); // absolute 30
    f.push(tracked(1.0, 64, 64, 0));        // no deadline: +inf
    EXPECT_EQ(s.pickNext(f.pool, f.q, 25.0), 1u);
    // Deadline-free requests rank after every deadline-carrying one,
    // even though they arrived first.
    f.q.eraseAt(1);
    EXPECT_EQ(s.pickNext(f.pool, f.q, 25.0), 0u);
    // Equal deadlines fall back to the fcfs order.
    PickQ tie;
    tie.push(tracked(4.0, 64, 64, 0, 6.0)); // absolute 10
    tie.push(tracked(2.0, 64, 64, 0, 8.0)); // absolute 10
    EXPECT_EQ(s.pickNext(tie.pool, tie.q, 5.0), 1u);
}

TEST(SchedulerPick, SpjfPrefersShortPredictedJobs)
{
    SpjfScheduler s(toyModel());
    PickQ f;
    f.push(tracked(0.0, 128, 2048, 0));
    f.push(tracked(1.0, 128, 64, 0)); // far shorter job
    EXPECT_EQ(s.pickNext(f.pool, f.q, 10.0), 1u);
    EXPECT_LT(s.predictedService(f.pool.materialize(f.q[1])),
              s.predictedService(f.pool.materialize(f.q[0])));
    // Priority classes dominate predicted length.
    f.push(tracked(2.0, 4096, 8192, 1));
    EXPECT_EQ(s.pickNext(f.pool, f.q, 10.0), 2u);
}

TEST(SchedulerPick, FactoryBuildsEachPolicy)
{
    EXPECT_EQ(makeScheduler(SchedulerPolicy::Fcfs)->policy(),
              SchedulerPolicy::Fcfs);
    EXPECT_EQ(makeScheduler(SchedulerPolicy::Edf)->policy(),
              SchedulerPolicy::Edf);
    const auto m = toyModel();
    const auto spjf = makeScheduler(SchedulerPolicy::Spjf, &m);
    EXPECT_EQ(spjf->policy(), SchedulerPolicy::Spjf);
    EXPECT_STREQ(spjf->name(), "spjf");
}

// ---------------------------------------------------------------------
// Policy end-to-end comparisons.
// ---------------------------------------------------------------------

TEST(SchedulerPolicyCompare, EdfBeatsFcfsOnDeadlineHitRate)
{
    // Over-subscribed burst where arrival order is anti-correlated
    // with urgency: loose-deadline requests arrive first, so fcfs
    // serves them first and the tight ones expire in the queue.  EDF
    // reorders by absolute deadline and saves most of the tight ones.
    std::vector<ServerRequest> trace;
    for (int i = 0; i < 10; ++i) {
        ServerRequest r;
        r.arrival = 0.01 * i;
        r.inputTokens = 128;
        r.outputTokens = 256;
        r.deadline = 400.0; // loose
        trace.push_back(r);
    }
    for (int i = 0; i < 10; ++i) {
        ServerRequest r;
        r.arrival = 0.1 + 0.01 * i;
        r.inputTokens = 128;
        r.outputTokens = 256;
        r.deadline = 40.0; // tight
        trace.push_back(r);
    }

    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.maxBatch = 2; // scarce capacity: ordering decides who makes it
    ServingSimulator fcfs(eng, cfg);
    const auto rep_fcfs = fcfs.run(trace);

    cfg.scheduler = SchedulerPolicy::Edf;
    ServingSimulator edf(eng, cfg);
    const auto rep_edf = edf.run(trace);

    EXPECT_GT(rep_edf.deadlineHitRate, rep_fcfs.deadlineHitRate);
    EXPECT_GE(rep_edf.goodputQps, rep_fcfs.goodputQps);
}

TEST(SchedulerPolicyCompare, SpjfBeatsFcfsOnMeanLatencyBimodal)
{
    // Bimodal output lengths with long jobs at the head of the queue:
    // fcfs convoys every short job behind them; SPJF drains the shorts
    // first, cutting the mean without an oracle (predictions come from
    // the fitted characterization of the same engine).
    std::vector<ServerRequest> trace;
    for (int i = 0; i < 4; ++i) {
        ServerRequest r;
        r.arrival = 0.01 * i;
        r.inputTokens = 128;
        r.outputTokens = 2048; // long
        trace.push_back(r);
    }
    for (int i = 0; i < 12; ++i) {
        ServerRequest r;
        r.arrival = 0.04 + 0.01 * i;
        r.inputTokens = 128;
        r.outputTokens = 64; // short
        trace.push_back(r);
    }

    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.maxBatch = 1; // pure convoy effect
    ServingSimulator fcfs(eng, cfg);
    const auto rep_fcfs = fcfs.run(trace);

    cfg.scheduler = SchedulerPolicy::Spjf;
    cfg.spjfModel = toyModel();
    ServingSimulator spjf(eng, cfg);
    const auto rep_spjf = spjf.run(trace);

    EXPECT_LT(rep_spjf.meanLatency, rep_fcfs.meanLatency);
    // Work conserved: both plans finish everything.
    EXPECT_EQ(rep_fcfs.completed, trace.size());
    EXPECT_EQ(rep_spjf.completed, trace.size());
    EXPECT_EQ(rep_fcfs.generatedTokens, rep_spjf.generatedTokens);
}

TEST(SchedulerPolicyCompare, SetSchedulerOverridesConfig)
{
    auto eng = makeEngine();
    ServingSimulator srv(eng);
    EXPECT_EQ(srv.scheduler().policy(), SchedulerPolicy::Fcfs);
    srv.setScheduler(std::make_unique<EdfScheduler>());
    EXPECT_EQ(srv.scheduler().policy(), SchedulerPolicy::Edf);
    const auto rep = srv.run({{0.0, 128, 64}});
    EXPECT_EQ(rep.schedulerPolicy, SchedulerPolicy::Edf);
    EXPECT_EQ(rep.completed, 1u);
}

// ---------------------------------------------------------------------
// Chunked prefill.
// ---------------------------------------------------------------------

TEST(ChunkedPrefill, ConservesWorkAndCompletes)
{
    auto eng = makeEngine();
    ServerConfig plain;
    ServingSimulator base(eng, plain);
    std::vector<ServerRequest> trace;
    for (int i = 0; i < 12; ++i)
        trace.push_back({0.5 * i, i % 3 == 0 ? Tokens(3000) : Tokens(96),
                         128});
    const auto rep_base = base.run(trace);

    ServerConfig chunked;
    chunked.prefillChunk = 256;
    ServingSimulator srv(eng, chunked);
    const auto rep = srv.run(trace);
    EXPECT_EQ(rep.completed, trace.size());
    EXPECT_EQ(rep.generatedTokens, rep_base.generatedTokens);
    // Chunking adds per-chunk overhead but must stay the same order of
    // magnitude (it only re-schedules the same prompt work).
    EXPECT_LT(rep.makespan, 1.5 * rep_base.makespan);
}

TEST(ChunkedPrefill, ImprovesTailLatencyUnderLongPromptInterference)
{
    // Interactive cohorts are mid-decode when a huge prompt lands.
    // Unchunked, its whole ~11 s prefill freezes every in-flight
    // decode, and those near-finished requests become the p95 tail;
    // with bounded chunks they keep stepping between chunks and finish
    // early.  (Chunking costs some extra total prefill work, so the
    // trace leaves idle slack to absorb it — chunked prefill trades
    // peak throughput for tail latency, not a free lunch.)
    std::vector<ServerRequest> trace;
    for (int i = 0; i < 10; ++i)
        trace.push_back({0.01 * i, 64, 24});
    trace.push_back({0.5, 8192, 8}); // huge prompt, cohort mid-decode
    for (int i = 0; i < 10; ++i)
        trace.push_back({30.0 + 0.01 * i, 64, 24});
    trace.push_back({30.5, 8192, 8}); // second interference window
    for (int i = 0; i < 20; ++i)
        trace.push_back({60.0 + 1.0 * i, 64, 24});

    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.maxBatch = 16;
    ServingSimulator plain(eng, cfg);
    const auto rep_plain = plain.run(trace);

    cfg.prefillChunk = 128;
    ServingSimulator chunked(eng, cfg);
    const auto rep_chunked = chunked.run(trace);

    EXPECT_EQ(rep_plain.completed, trace.size());
    EXPECT_EQ(rep_chunked.completed, trace.size());
    EXPECT_LT(rep_chunked.p95Latency, 0.5 * rep_plain.p95Latency);
    EXPECT_LT(rep_chunked.meanLatency, rep_plain.meanLatency);
}

TEST(ChunkedPrefill, WorksUnderFaultsWithPreemption)
{
    // Chunked prefill composes with the fault path: preempted work is
    // recomputed from the first chunk and accounting stays conserved.
    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.maxBatch = 16;
    cfg.prefillChunk = 128;
    ServingSimulator srv(eng, cfg);
    er::Rng rng(7, "golden-kv");
    const auto trace =
        ServingSimulator::poissonTrace(rng, 30, 4.0, 120, 3000);
    FaultConfig fc;
    fc.seed = 0xFA17;
    fc.horizon = trace.back().arrival + 600.0;
    fc.kvShrinksPerHour = 240.0;
    fc.kvShrinkFraction = 0.9;
    fc.kvShrinkDuration = 20.0;
    const auto rep = srv.run(trace, FaultPlan(fc));
    EXPECT_EQ(rep.completed + rep.timedOut + rep.shed, trace.size());
    EXPECT_EQ(srv.served().size(), trace.size());
    for (const auto &s : srv.served()) {
        EXPECT_GE(s.queueDelay, 0.0);
        EXPECT_GE(s.serviceTime, 0.0);
    }
}

// ---------------------------------------------------------------------
// New report fields.
// ---------------------------------------------------------------------

TEST(ServingReportFields, QueueStatsAndTailPercentiles)
{
    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.maxBatch = 2;
    ServingSimulator srv(eng, cfg);
    std::vector<ServerRequest> trace;
    for (int i = 0; i < 24; ++i)
        trace.push_back({0.01 * i, 128, 192});
    const auto rep = srv.run(trace);
    EXPECT_EQ(rep.completed, trace.size());
    // Tail percentiles are ordered and the burst visibly queued.
    EXPECT_GE(rep.p95Latency, rep.p50Latency);
    EXPECT_GE(rep.p99Latency, rep.p95Latency);
    EXPECT_GE(rep.meanLatency, rep.meanQueueDelay);
    EXPECT_GT(rep.meanQueueDelay, 0.0);
    EXPECT_GE(rep.p99QueueDelay, rep.p95QueueDelay);
    EXPECT_GT(rep.peakQueueDepth, 8u); // 24 arrivals vs 2-wide service
}

} // namespace
