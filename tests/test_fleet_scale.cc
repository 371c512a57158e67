/**
 * @file
 * Fleet-scale event engine suite (DESIGN.md §15).  The next-stop
 * index, batched routing window, and streaming trace source are pure
 * performance work: the fleet reports they produce are pinned as
 * goldens.  Covered here:
 *  - NodeStopIndex against a brute-force scan on adversarial update
 *    sequences (same FP lag predicate, same ascending-id order);
 *  - PoissonTraceStream against the materialized poissonTrace it
 *    reimplements, draw for draw;
 *  - the router-policy x fault-mix matrix pinned as %.17g goldens
 *    (recorded from the all-node-scan driver the index replaced) at
 *    1, 2 and 4 threads, plus the rr/Gray cell with adaptive per-try
 *    timeouts;
 *  - macro-stepping against the --exact-steps oracle on a Gray fleet
 *    with crashes, retries and hedges;
 *  - lazy sync's advance count on a small fleet_gray-shaped run;
 *  - a 1-node rr fleet against ServingSimulator on the same trace,
 *    record for record (the cross-layer oracle);
 *  - crash-resume with the index live, at two crash points;
 *  - a streamed run against the same trace materialized, on a
 *    hedged least-loaded fleet and on a small fleet_gray-shaped one
 *    (Gray slowdowns, crashes, retries, adaptive health);
 *  - unsorted arrivals rejected by run() and runStream() alike.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "engine/journal.hh"
#include "engine/server.hh"
#include "engine/trace_stream.hh"
#include "fleet/fleet.hh"
#include "fleet/node_faults.hh"
#include "fleet/stop_index.hh"
#include "hw/gpu_spec.hh"
#include "model/model_id.hh"

namespace er = edgereason;
using namespace er::fleet;
using er::engine::PoissonTraceStream;
using er::engine::ServerRequest;
using er::engine::ServingSimulator;

namespace {

// --- NodeStopIndex vs brute force ------------------------------------

TEST(NodeStopIndex, MatchesBruteForceScan)
{
    // Random update/query interleaving: the index must report the
    // exact node set a linear scan with the fleet's literal lag
    // predicate (`key + slack < target`) reports, in ascending id
    // order, and the same min key.
    constexpr int kNodes = 37;
    constexpr double kSlack = 1e-9;
    NodeStopIndex idx;
    idx.reset(kNodes);
    std::vector<double> keys(kNodes, NodeStopIndex::kNoStop);

    er::Rng rng(99, "stop-index-fuzz");
    for (int step = 0; step < 2000; ++step) {
        const int i =
            static_cast<int>(rng.uniform() * kNodes) % kNodes;
        // Mix of finite stop times (including duplicates, to stress
        // the id tie-break) and "parked" (+inf) nodes.
        const double key = rng.uniform() < 0.25
            ? NodeStopIndex::kNoStop
            : 1.0 + static_cast<double>(
                        static_cast<int>(rng.uniform() * 64.0));
        idx.update(static_cast<std::size_t>(i), key);
        keys[static_cast<std::size_t>(i)] = key;

        double brute_min = NodeStopIndex::kNoStop;
        for (const double k : keys)
            brute_min = std::min(brute_min, k);
        ASSERT_EQ(idx.minKey(), brute_min);

        const double target = 1.0 + rng.uniform() * 66.0;
        std::vector<int> got, want;
        idx.collectLagging(target, kSlack, got);
        for (int j = 0; j < kNodes; ++j)
            if (keys[static_cast<std::size_t>(j)] + kSlack < target)
                want.push_back(j);
        ASSERT_EQ(got, want) << "step " << step;
    }
}

// --- Streaming trace source vs materialized trace --------------------

TEST(TraceStream, MatchesMaterializedPoissonTrace)
{
    er::Rng a(55, "trace-stream");
    const auto trace =
        ServingSimulator::poissonTrace(a, 500, 3.0, 96, 256);

    PoissonTraceStream src(55, "trace-stream", 500, 3.0, 96, 256);
    ASSERT_EQ(src.totalRequests(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const ServerRequest r = src.next();
        ASSERT_EQ(r.arrival, trace[i].arrival) << i;
        ASSERT_EQ(r.inputTokens, trace[i].inputTokens) << i;
        ASSERT_EQ(r.outputTokens, trace[i].outputTokens) << i;
    }
}

TEST(TraceStream, RejectsLengthsPastTheTokenRange)
{
    // A length sample past 2^63 has no long long to round to; both
    // the stream and the materialized trace it backs refuse it by
    // name instead of serving an unspecified (clamped to 8) length.
    PoissonTraceStream src(1, "trace-overflow", 3, 2.0, 96, 1e30);
    try {
        src.next();
        ADD_FAILURE() << "a 1e30-token mean produced a request";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("mean-out 1e+30"),
                  std::string::npos)
            << e.what();
    }
    er::Rng rng(1, "trace-overflow");
    EXPECT_THROW(ServingSimulator::poissonTrace(rng, 3, 2.0, 1e30, 96),
                 std::runtime_error);
}

// --- Golden matrix: router x fault mix x thread count ----------------

/** Fault mixes the matrix sweeps; each stresses a different index
 *  maintenance path (refresh-on-advance only; crash/reboot edges;
 *  gray slowdowns + adaptive ejections + flaps). */
enum class FaultMix { Healthy, Crashy, Gray };

const char *
mixName(FaultMix m)
{
    switch (m) {
      case FaultMix::Healthy:
        return "healthy";
      case FaultMix::Crashy:
        return "crashy";
      case FaultMix::Gray:
        return "gray";
    }
    return "?";
}

FleetConfig
matrixConfig(RouterPolicy p, FaultMix mix)
{
    FleetConfig fc;
    fc.nodes.assign(6, NodeSpec{er::model::ModelId::DeepScaleR1_5B});
    fc.server.maxBatch = 6;
    fc.router = p;
    fc.paranoid = true; // includes the index/brute cross-check
    fc.maxRetries = 3;
    fc.retryBackoff = 0.5;
    fc.hedgeFraction = 0.3;
    fc.requestTimeout = 45.0;
    fc.healthFailureThreshold = 2;
    fc.healthCooldown = 12.0;
    switch (mix) {
      case FaultMix::Healthy:
        break;
      case FaultMix::Crashy:
        fc.nodeFaults.seed = 0xD00B;
        fc.nodeFaults.horizon = 300.0;
        fc.nodeFaults.crashesPerHour = 120.0;
        fc.nodeFaults.meanRebootSeconds = 10.0;
        fc.nodeFaults.degradesPerHour = 45.0;
        fc.nodeFaults.meanDegradeSeconds = 15.0;
        break;
      case FaultMix::Gray:
        fc.adaptiveHealth = true;
        fc.healthQuantile = 0.9;
        fc.healthLatencyMultiple = 2.0;
        fc.healthMinSamples = 4;
        fc.healthCooldown = 60.0;
        fc.nodeFaults.seed = 0x6EA7;
        fc.nodeFaults.horizon = 300.0;
        fc.nodeFaults.slowdownsPerHour = 90.0;
        fc.nodeFaults.meanSlowdownSeconds = 30.0;
        fc.nodeFaults.slowdownMultiplier = 8.0;
        fc.nodeFaults.flapsPerHour = 60.0;
        fc.nodeFaults.meanFlapSeconds = 5.0;
        break;
    }
    return fc;
}

std::vector<ServerRequest>
matrixTrace()
{
    er::Rng rng(7, "fleet-scale-matrix");
    auto t = ServingSimulator::poissonTrace(rng, 40, 1.5, 96, 224);
    for (auto &r : t)
        r.deadline = 75.0;
    return t;
}

struct MatrixGolden
{
    RouterPolicy policy;
    FaultMix mix;
    const char *report;
};

// clang-format off
const MatrixGolden kMatrixGoldens[] = {
    {RouterPolicy::RoundRobin, FaultMix::Healthy,
     "fleet report (router=rr)\n"
     "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 40.147693717500395 throughput 0.99632124030486924 goodput 0.99632124030486924 deadline-hit 1\n"
     "latency mean 5.5053208535809546 p50 4.9779582740955242 p99 10.702334415714134 p999 11.156576276543454\n"
     "energy 2817.7177474130694 J (70.442943685326739 J/query) tokens 8523\n"
     "dollars edge 0.0022389749910052582 cloud 0 (5.5974374775131457e-05 $/query)\n"
     "node 0: served 7 timed-out 0 cancelled 0 crashes 0 energy 430.99943931918972 busy 29.112116309275731 tokens 1242 up\n"
     "node 1: served 7 timed-out 0 cancelled 0 crashes 0 energy 502.48173367204618 busy 29.113575783911756 tokens 1677 up\n"
     "node 2: served 7 timed-out 0 cancelled 0 crashes 0 energy 450.26310334443207 busy 28.576095926162292 tokens 1352 up\n"
     "node 3: served 7 timed-out 0 cancelled 0 crashes 0 energy 538.94514087279174 busy 31.996237232447033 tokens 1511 up\n"
     "node 4: served 6 timed-out 0 cancelled 0 crashes 0 energy 516.81585241318624 busy 29.320991656719301 tokens 1449 up\n"
     "node 5: served 6 timed-out 0 cancelled 0 crashes 0 energy 378.21247779142305 busy 21.606589880527622 tokens 1292 up\n"
     ""},
    {RouterPolicy::RoundRobin, FaultMix::Crashy,
     "fleet report (router=rr)\n"
     "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 4 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 42.415599187873596 throughput 0.94304927351906409 goodput 0.94304927351906409 deadline-hit 1\n"
     "latency mean 6.1336938666724068 p50 5.1986143999864822 p99 13.818657489153015 p999 14.073051444392542\n"
     "energy 2433.2942717935725 J (60.832356794839313 J/query) tokens 9137\n"
     "dollars edge 0.0018854700703461185 cloud 0 (4.7136751758652959e-05 $/query)\n"
     "node 0: served 6 timed-out 0 cancelled 0 crashes 5 energy 496.26663630970938 busy 27.45240251574571 tokens 1705 up\n"
     "node 1: served 11 timed-out 0 cancelled 0 crashes 6 energy 402.84460727637872 busy 26.628655829677935 tokens 1788 up\n"
     "node 2: served 3 timed-out 0 cancelled 0 crashes 9 energy 223.47205274024702 busy 14.867692531258372 tokens 599 up\n"
     "node 3: served 3 timed-out 0 cancelled 0 crashes 7 energy 150.43762358354761 busy 10.04772336256252 tokens 509 up\n"
     "node 4: served 11 timed-out 0 cancelled 0 crashes 10 energy 702.76383442303882 busy 37.311759721585105 tokens 2761 up\n"
     "node 5: served 6 timed-out 0 cancelled 0 crashes 5 energy 457.5095174606509 busy 26.418390760881277 tokens 1775 up\n"
     ""},
    {RouterPolicy::RoundRobin, FaultMix::Gray,
     "fleet report (router=rr)\n"
     "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "adaptive-health ejections 1\n"
     "makespan 60.533957366290828 throughput 0.66078613955403742 goodput 0.66078613955403742 deadline-hit 1\n"
     "latency mean 9.0575948161280877 p50 5.3642884810714833 p99 37.832294081068241 p999 41.276214097990461\n"
     "energy 3565.1618309374926 J (89.129045773437312 J/query) tokens 8523\n"
     "dollars edge 0.0026505814811278974 cloud 0 (6.6264537028197439e-05 $/query)\n"
     "node 0: served 7 timed-out 0 cancelled 0 crashes 0 energy 430.99943931918966 busy 29.112116309275731 tokens 1242 up\n"
     "node 1: served 7 timed-out 0 cancelled 0 crashes 0 energy 502.48173367204618 busy 29.113575783911756 tokens 1677 up\n"
     "node 2: served 7 timed-out 0 cancelled 0 crashes 0 energy 1068.1093002347625 busy 53.330521812842868 tokens 1352 up\n"
     "node 3: served 7 timed-out 0 cancelled 0 crashes 0 energy 538.94514087279174 busy 31.996237232447033 tokens 1511 up\n"
     "node 4: served 6 timed-out 0 cancelled 0 crashes 0 energy 646.41373904727948 busy 35.003604701435073 tokens 1449 up\n"
     "node 5: served 6 timed-out 0 cancelled 0 crashes 0 energy 378.21247779142305 busy 21.606589880527622 tokens 1292 up\n"
     ""},
    {RouterPolicy::LeastLoaded, FaultMix::Healthy,
     "fleet report (router=least)\n"
     "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 40.271447453376375 throughput 0.99325955557741896 goodput 0.99325955557741896 deadline-hit 1\n"
     "latency mean 5.475042972269768 p50 5.0422588602036456 p99 10.672507350825706 p999 10.874760157025056\n"
     "energy 2792.2795684115695 J (69.806989210289231 J/query) tokens 8523\n"
     "dollars edge 0.0022771318336103977 cloud 0 (5.6928295840259944e-05 $/query)\n"
     "node 0: served 8 timed-out 0 cancelled 0 crashes 0 energy 678.10209404211776 busy 37.593295817580731 tokens 2153 up\n"
     "node 1: served 10 timed-out 0 cancelled 0 crashes 0 energy 463.43505261239221 busy 31.654472215853023 tokens 1611 up\n"
     "node 2: served 9 timed-out 0 cancelled 0 crashes 0 energy 471.7082468453861 busy 32.203017640663141 tokens 1551 up\n"
     "node 3: served 4 timed-out 0 cancelled 0 crashes 0 energy 507.75483169620043 busy 28.025452213053725 tokens 1309 up\n"
     "node 4: served 6 timed-out 0 cancelled 0 crashes 0 energy 464.74373143459559 busy 29.2048745504568 tokens 1328 up\n"
     "node 5: served 3 timed-out 0 cancelled 0 crashes 0 energy 206.53561178087708 busy 14.181835689852493 tokens 571 up\n"
     ""},
    {RouterPolicy::LeastLoaded, FaultMix::Crashy,
     "fleet report (router=least)\n"
     "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 6 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 54.842793432269531 throughput 0.72935745057187362 goodput 0.72935745057187362 deadline-hit 1\n"
     "latency mean 6.4781786589415145 p50 5.1857081731186145 p99 25.272152922281439 p999 25.490689592397942\n"
     "energy 2883.75224937247 J (72.093806234311756 J/query) tokens 9837\n"
     "dollars edge 0.0022764328824983514 cloud 0 (5.6910822062458784e-05 $/query)\n"
     "node 0: served 6 timed-out 0 cancelled 0 crashes 5 energy 453.59386602278312 busy 26.344877091082843 tokens 1620 up\n"
     "node 1: served 14 timed-out 0 cancelled 0 crashes 6 energy 768.04413775997955 busy 45.245822656618486 tokens 2754 up\n"
     "node 2: served 6 timed-out 0 cancelled 0 crashes 9 energy 368.8355253888692 busy 24.435939995659631 tokens 1115 up\n"
     "node 3: served 2 timed-out 0 cancelled 0 crashes 7 energy 336.24812091519391 busy 18.589775039795487 tokens 752 up\n"
     "node 4: served 9 timed-out 0 cancelled 0 crashes 10 energy 614.95994232264229 busy 37.217295186890041 tokens 2318 up\n"
     "node 5: served 3 timed-out 0 cancelled 0 crashes 5 energy 342.07065696300174 busy 20.668413131913432 tokens 1278 up\n"
     ""},
    {RouterPolicy::LeastLoaded, FaultMix::Gray,
     "fleet report (router=least)\n"
     "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "adaptive-health ejections 1\n"
     "makespan 43.731578779319236 throughput 0.91467084236428464 goodput 0.91467084236428464 deadline-hit 1\n"
     "latency mean 6.5617488683539662 p50 5.1360865245305458 p99 26.224126219270474 p999 28.412599883636471\n"
     "energy 3147.5619964616776 J (78.689049911541943 J/query) tokens 8523\n"
     "dollars edge 0.0025342811630740987 cloud 0 (6.3357029076852468e-05 $/query)\n"
     "node 0: served 10 timed-out 0 cancelled 0 crashes 0 energy 610.73280463013191 busy 35.591525472700923 tokens 2226 up\n"
     "node 1: served 9 timed-out 0 cancelled 0 crashes 0 energy 541.48612548140215 busy 33.616900123450698 tokens 1702 up\n"
     "node 2: served 5 timed-out 0 cancelled 0 crashes 0 energy 568.88075209611202 busy 37.420490558981975 tokens 673 up\n"
     "node 3: served 6 timed-out 0 cancelled 0 crashes 0 energy 574.44171091800195 busy 32.265188010839452 tokens 1610 up\n"
     "node 4: served 5 timed-out 0 cancelled 0 crashes 0 energy 479.78123712976441 busy 28.485404935431518 tokens 1301 up\n"
     "node 5: served 5 timed-out 0 cancelled 0 crashes 0 energy 372.23936620626517 busy 24.871110622984439 tokens 1011 up\n"
     ""},
    {RouterPolicy::DeadlineAware, FaultMix::Healthy,
     "fleet report (router=deadline)\n"
     "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 40.271447453376375 throughput 0.99325955557741896 goodput 0.99325955557741896 deadline-hit 1\n"
     "latency mean 5.475042972269768 p50 5.0422588602036456 p99 10.672507350825706 p999 10.874760157025056\n"
     "energy 2792.2795684115695 J (69.806989210289231 J/query) tokens 8523\n"
     "dollars edge 0.0022771318336103977 cloud 0 (5.6928295840259944e-05 $/query)\n"
     "node 0: served 8 timed-out 0 cancelled 0 crashes 0 energy 678.10209404211776 busy 37.593295817580731 tokens 2153 up\n"
     "node 1: served 10 timed-out 0 cancelled 0 crashes 0 energy 463.43505261239221 busy 31.654472215853023 tokens 1611 up\n"
     "node 2: served 9 timed-out 0 cancelled 0 crashes 0 energy 471.7082468453861 busy 32.203017640663141 tokens 1551 up\n"
     "node 3: served 4 timed-out 0 cancelled 0 crashes 0 energy 507.75483169620043 busy 28.025452213053725 tokens 1309 up\n"
     "node 4: served 6 timed-out 0 cancelled 0 crashes 0 energy 464.74373143459559 busy 29.2048745504568 tokens 1328 up\n"
     "node 5: served 3 timed-out 0 cancelled 0 crashes 0 energy 206.53561178087708 busy 14.181835689852493 tokens 571 up\n"
     ""},
    {RouterPolicy::DeadlineAware, FaultMix::Crashy,
     "fleet report (router=deadline)\n"
     "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 5 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 54.156739300200577 throughput 0.73859690440875292 goodput 0.73859690440875292 deadline-hit 1\n"
     "latency mean 6.2600696097539164 p50 5.1862218740552901 p99 21.715003894866889 p999 25.134974689656541\n"
     "energy 2771.1187812284261 J (69.277969530710649 J/query) tokens 9496\n"
     "dollars edge 0.0021890134105216081 cloud 0 (5.4725335263040205e-05 $/query)\n"
     "node 0: served 6 timed-out 0 cancelled 0 crashes 5 energy 453.59386602278312 busy 26.344877091082843 tokens 1620 up\n"
     "node 1: served 13 timed-out 0 cancelled 0 crashes 6 energy 675.91054636874617 busy 39.320436647233649 tokens 2515 up\n"
     "node 2: served 6 timed-out 0 cancelled 0 crashes 9 energy 353.11204154940526 busy 23.74988586359067 tokens 1087 up\n"
     "node 3: served 2 timed-out 0 cancelled 0 crashes 7 energy 336.24812091519391 busy 18.589775039795487 tokens 752 up\n"
     "node 4: served 10 timed-out 0 cancelled 0 crashes 10 energy 610.18354940929623 busy 37.210622464017796 tokens 2244 up\n"
     "node 5: served 3 timed-out 0 cancelled 0 crashes 5 energy 342.07065696300174 busy 20.668413131913432 tokens 1278 up\n"
     ""},
    {RouterPolicy::DeadlineAware, FaultMix::Gray,
     "fleet report (router=deadline)\n"
     "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "adaptive-health ejections 1\n"
     "makespan 43.731578779319236 throughput 0.91467084236428464 goodput 0.91467084236428464 deadline-hit 1\n"
     "latency mean 6.5617488683539662 p50 5.1360865245305458 p99 26.224126219270474 p999 28.412599883636471\n"
     "energy 3147.5619964616776 J (78.689049911541943 J/query) tokens 8523\n"
     "dollars edge 0.0025342811630740987 cloud 0 (6.3357029076852468e-05 $/query)\n"
     "node 0: served 10 timed-out 0 cancelled 0 crashes 0 energy 610.73280463013191 busy 35.591525472700923 tokens 2226 up\n"
     "node 1: served 9 timed-out 0 cancelled 0 crashes 0 energy 541.48612548140215 busy 33.616900123450698 tokens 1702 up\n"
     "node 2: served 5 timed-out 0 cancelled 0 crashes 0 energy 568.88075209611202 busy 37.420490558981975 tokens 673 up\n"
     "node 3: served 6 timed-out 0 cancelled 0 crashes 0 energy 574.44171091800195 busy 32.265188010839452 tokens 1610 up\n"
     "node 4: served 5 timed-out 0 cancelled 0 crashes 0 energy 479.78123712976441 busy 28.485404935431518 tokens 1301 up\n"
     "node 5: served 5 timed-out 0 cancelled 0 crashes 0 energy 372.23936620626517 busy 24.871110622984439 tokens 1011 up\n"
     ""},
    {RouterPolicy::CostAware, FaultMix::Healthy,
     "fleet report (router=cost)\n"
     "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 40.271447453376375 throughput 0.99325955557741896 goodput 0.99325955557741896 deadline-hit 1\n"
     "latency mean 5.475042972269768 p50 5.0422588602036456 p99 10.672507350825706 p999 10.874760157025056\n"
     "energy 2792.2795684115695 J (69.806989210289231 J/query) tokens 8523\n"
     "dollars edge 0.0022771318336103977 cloud 0 (5.6928295840259944e-05 $/query)\n"
     "node 0: served 8 timed-out 0 cancelled 0 crashes 0 energy 678.10209404211776 busy 37.593295817580731 tokens 2153 up\n"
     "node 1: served 10 timed-out 0 cancelled 0 crashes 0 energy 463.43505261239221 busy 31.654472215853023 tokens 1611 up\n"
     "node 2: served 9 timed-out 0 cancelled 0 crashes 0 energy 471.7082468453861 busy 32.203017640663141 tokens 1551 up\n"
     "node 3: served 4 timed-out 0 cancelled 0 crashes 0 energy 507.75483169620043 busy 28.025452213053725 tokens 1309 up\n"
     "node 4: served 6 timed-out 0 cancelled 0 crashes 0 energy 464.74373143459559 busy 29.2048745504568 tokens 1328 up\n"
     "node 5: served 3 timed-out 0 cancelled 0 crashes 0 energy 206.53561178087708 busy 14.181835689852493 tokens 571 up\n"
     ""},
    {RouterPolicy::CostAware, FaultMix::Crashy,
     "fleet report (router=cost)\n"
     "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 6 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 64.895177304622237 throughput 0.61637862259374632 goodput 0.61637862259374632 deadline-hit 1\n"
     "latency mean 6.6753955107784462 p50 5.1864478722344298 p99 31.554799380544456 p999 34.605749287145578\n"
     "energy 2903.52377874587 J (72.588094468646744 J/query) tokens 10106\n"
     "dollars edge 0.0022731483812451375 cloud 0 (5.6828709531128437e-05 $/query)\n"
     "node 0: served 7 timed-out 0 cancelled 0 crashes 5 energy 630.83416575940055 busy 36.059760158575664 tokens 2013 up\n"
     "node 1: served 14 timed-out 0 cancelled 0 crashes 6 energy 763.34275416065998 busy 44.239798183280811 tokens 3006 up\n"
     "node 2: served 5 timed-out 0 cancelled 0 crashes 9 energy 191.59522565225177 busy 14.721056928166808 tokens 722 up\n"
     "node 3: served 2 timed-out 0 cancelled 0 crashes 7 energy 336.24812091519391 busy 18.589775039795487 tokens 752 up\n"
     "node 4: served 8 timed-out 0 cancelled 0 crashes 10 energy 638.45482761246171 busy 37.906225111292947 tokens 2263 up\n"
     "node 5: served 4 timed-out 0 cancelled 0 crashes 5 energy 343.04868464590271 busy 20.656842482679767 tokens 1350 up\n"
     ""},
    {RouterPolicy::CostAware, FaultMix::Gray,
     "fleet report (router=cost)\n"
     "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "adaptive-health ejections 1\n"
     "makespan 43.731578779319236 throughput 0.91467084236428464 goodput 0.91467084236428464 deadline-hit 1\n"
     "latency mean 6.5617488683539662 p50 5.1360865245305458 p99 26.224126219270474 p999 28.412599883636471\n"
     "energy 3147.5619964616776 J (78.689049911541943 J/query) tokens 8523\n"
     "dollars edge 0.0025342811630740987 cloud 0 (6.3357029076852468e-05 $/query)\n"
     "node 0: served 10 timed-out 0 cancelled 0 crashes 0 energy 610.73280463013191 busy 35.591525472700923 tokens 2226 up\n"
     "node 1: served 9 timed-out 0 cancelled 0 crashes 0 energy 541.48612548140215 busy 33.616900123450698 tokens 1702 up\n"
     "node 2: served 5 timed-out 0 cancelled 0 crashes 0 energy 568.88075209611202 busy 37.420490558981975 tokens 673 up\n"
     "node 3: served 6 timed-out 0 cancelled 0 crashes 0 energy 574.44171091800195 busy 32.265188010839452 tokens 1610 up\n"
     "node 4: served 5 timed-out 0 cancelled 0 crashes 0 energy 479.78123712976441 busy 28.485404935431518 tokens 1301 up\n"
     "node 5: served 5 timed-out 0 cancelled 0 crashes 0 energy 372.23936620626517 busy 24.871110622984439 tokens 1011 up\n"
     ""},
};
// clang-format on

TEST(FleetScale, IndexMatrixIsBitIdentical)
{
    const auto trace = matrixTrace();
    for (const unsigned threads : {1u, 2u, 4u}) {
        er::ThreadPool::setGlobalThreads(threads);
        for (const auto &g : kMatrixGoldens) {
            SCOPED_TRACE(std::string(routerPolicyName(g.policy)) + "/" +
                         mixName(g.mix) + " threads=" +
                         std::to_string(threads));
            FleetSimulator sim(matrixConfig(g.policy, g.mix));
            EXPECT_EQ(formatFleetReport(sim.run(trace)), g.report);
        }
    }
    er::ThreadPool::setGlobalThreads(0);
}

TEST(FleetScale, AdaptiveTimeoutGrayIsBitIdentical)
{
    // The rr Gray mix with adaptive per-try timeouts on: every
    // dispatch then reads the fleet-median latency quantile to cap its
    // leg budget, on top of the per-completion ejection check.  The
    // caps bite (timeouts, retries and a hedge that the matrix's
    // rr/Gray golden does not have).  Recorded from the copy-and-sort
    // median the maintained sorted vector replaced.
    // clang-format off
    const char *golden =
        "fleet report (router=rr)\n"
        "arrivals 40 served 40 timed-out 0 shed 0 offloaded 0\n"
        "retries 3 failovers 0 hedges 1 (wins 1, waste 0) cancelled-legs 1\n"
        "adaptive-health ejections 1\n"
        "makespan 87.538657465228042 throughput 0.4569409807991256 goodput 0.4569409807991256 deadline-hit 1\n"
        "latency mean 9.7822536044832624 p50 5.3642884810714833 p99 51.802188037760871 p999 57.829864755950567\n"
        "energy 4037.8611799449059 J (100.94652949862265 J/query) tokens 9073\n"
        "dollars edge 0.0032156443978551175 cloud 0 (8.039110994637794e-05 $/query)\n"
        "node 0: served 7 timed-out 0 cancelled 1 crashes 0 energy 543.6662660644572 busy 43.128639051925113 tokens 1403 up\n"
        "node 1: served 8 timed-out 0 cancelled 0 crashes 0 energy 597.19386259197199 busy 35.113182397439026 tokens 1919 up\n"
        "node 2: served 5 timed-out 2 cancelled 0 crashes 0 energy 1001.8578677395593 busy 50.713896640162481 tokens 1182 up\n"
        "node 3: served 7 timed-out 0 cancelled 0 crashes 0 energy 538.94514087279174 busy 31.996237232447033 tokens 1511 up\n"
        "node 4: served 6 timed-out 1 cancelled 0 crashes 0 energy 914.93686456337889 busy 56.758802286649221 tokens 1586 up\n"
        "node 5: served 7 timed-out 0 cancelled 0 crashes 0 energy 441.26117811274679 busy 26.081256953303463 tokens 1472 up\n";
    // clang-format on
    const auto trace = matrixTrace();
    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        er::ThreadPool::setGlobalThreads(threads);
        FleetConfig fc =
            matrixConfig(RouterPolicy::RoundRobin, FaultMix::Gray);
        fc.adaptiveTimeoutMultiple = 4.0;
        FleetSimulator sim(fc);
        EXPECT_EQ(formatFleetReport(sim.run(trace)), golden);
    }
    er::ThreadPool::setGlobalThreads(0);
}

// --- Macro-stepping against the exact-steps oracle -------------------

/** The Gray mix plus crashes, two retries and hedging: slowdown
 *  windows open and close mid-segment, crashes fail legs over and
 *  hedges cancel losers, so every way the fleet splits a node's run
 *  is exercised. */
FleetConfig
oracleConfig(RouterPolicy p, bool exact)
{
    FleetConfig fc = matrixConfig(p, FaultMix::Gray);
    fc.maxRetries = 2;
    fc.nodeFaults.crashesPerHour = 60.0;
    fc.nodeFaults.meanRebootSeconds = 10.0;
    fc.server.exactSteps = exact;
    return fc;
}

void
expectRelNear(double got, double want, const char *what)
{
    EXPECT_LE(std::abs(got - want), 1e-9 * std::abs(want))
        << what << ": " << got << " vs " << want;
}

TEST(FleetScale, MacroMatchesExactStepsOracle)
{
    // --exact-steps runs one scheduling cycle per decode step, so the
    // gray latch, admission and every stop check are evaluated at
    // each step.  Macro segments must land on the same steps: every
    // integer and timing field is bit-identical, and energy — summed
    // per bucket-run instead of per step — agrees within 1e-9.
    const auto trace = matrixTrace();
    for (const RouterPolicy p :
         {RouterPolicy::RoundRobin, RouterPolicy::DeadlineAware}) {
        FleetSimulator exact_sim(oracleConfig(p, true));
        const FleetReport want = exact_sim.run(trace);
        EXPECT_GT(want.failovers + want.retries + want.hedgesLaunched,
                  0u);
        for (const unsigned threads : {1u, 2u, 4u}) {
            SCOPED_TRACE(std::string(routerPolicyName(p)) +
                         " threads=" + std::to_string(threads));
            er::ThreadPool::setGlobalThreads(threads);
            FleetSimulator sim(oracleConfig(p, false));
            const FleetReport got = sim.run(trace);
            EXPECT_EQ(got.served, want.served);
            EXPECT_EQ(got.timedOut, want.timedOut);
            EXPECT_EQ(got.shed, want.shed);
            EXPECT_EQ(got.retries, want.retries);
            EXPECT_EQ(got.failovers, want.failovers);
            EXPECT_EQ(got.hedgesLaunched, want.hedgesLaunched);
            EXPECT_EQ(got.hedgeWins, want.hedgeWins);
            EXPECT_EQ(got.cancelledLegs, want.cancelledLegs);
            EXPECT_EQ(got.adaptiveEjections, want.adaptiveEjections);
            EXPECT_EQ(got.events, want.events);
            EXPECT_EQ(got.makespan, want.makespan);
            EXPECT_EQ(got.goodput, want.goodput);
            EXPECT_EQ(got.meanLatency, want.meanLatency);
            EXPECT_EQ(got.p50Latency, want.p50Latency);
            EXPECT_EQ(got.p99Latency, want.p99Latency);
            EXPECT_EQ(got.p999Latency, want.p999Latency);
            EXPECT_EQ(got.generatedTokens, want.generatedTokens);
            expectRelNear(got.totalEnergy, want.totalEnergy, "energy");
            ASSERT_EQ(got.nodes.size(), want.nodes.size());
            for (std::size_t i = 0; i < got.nodes.size(); ++i) {
                SCOPED_TRACE("node " + std::to_string(i));
                const NodeSummary &g = got.nodes[i], &w = want.nodes[i];
                EXPECT_EQ(g.served, w.served);
                EXPECT_EQ(g.timedOut, w.timedOut);
                EXPECT_EQ(g.cancelled, w.cancelled);
                EXPECT_EQ(g.crashes, w.crashes);
                EXPECT_EQ(g.busy, w.busy);
                EXPECT_EQ(g.generatedTokens, w.generatedTokens);
                EXPECT_EQ(g.up, w.up);
                expectRelNear(g.energy, w.energy, "node energy");
            }
        }
    }
    er::ThreadPool::setGlobalThreads(0);
}

// --- Lazy sync: advances per request --------------------------------

TEST(FleetScale, LazySyncAdvancesAFewTimesPerRequest)
{
    // A small fleet_gray: deadline router, crashes, slowdowns, two
    // retries, hedging and adaptive health over short unshared
    // requests.  A node is advanced only at its next change a router
    // or the driver reads (an admission, a retirement, a shed), so
    // the advances stay a small multiple of the requests rather than
    // one per decode step.  Paranoid mode checks every key against a
    // from-scratch peek after each event.
    FleetConfig fc;
    fc.nodes.assign(8, NodeSpec{er::model::ModelId::DeepScaleR1_5B});
    fc.server.maxBatch = 30;
    fc.router = RouterPolicy::DeadlineAware;
    fc.paranoid = true;
    fc.maxRetries = 2;
    fc.hedgeFraction = 0.3;
    fc.adaptiveHealth = true;
    fc.nodeFaults.seed = 0xF1EE7;
    fc.nodeFaults.horizon = 600.0;
    fc.nodeFaults.crashesPerHour = 30.0;
    fc.nodeFaults.meanRebootSeconds = 30.0;
    fc.nodeFaults.slowdownsPerHour = 30.0;
    er::Rng rng(1, "fleet-scale-lazy");
    auto trace = ServingSimulator::poissonTrace(rng, 400, 6.25, 64, 32);
    for (auto &r : trace)
        r.deadline = 5.0;
    FleetSimulator sim(fc);
    const FleetReport rep = sim.run(trace);
    EXPECT_GT(rep.failovers + rep.retries + rep.hedgesLaunched, 0u);
    EXPECT_GT(sim.syncRounds(), 0u);
    EXPECT_LE(sim.nodeAdvances(), 4 * rep.arrivals);
    // Pinned: a refactor of the serving cycle must not move when the
    // fleet advances a node.
    EXPECT_EQ(sim.nodeAdvances(), 947u);
    EXPECT_EQ(sim.syncRounds(), 561u);
}

// --- Routing per load class -----------------------------------------

TEST(FleetScale, RoutesVisitClassesNotNodes)
{
    // The fleet_gray shape at a tenth of its trace: 256 identical
    // boxes on one engine, deadline router, crashes, slowdowns, two
    // retries, hedging and adaptive health.  The router scores load
    // classes (engine, power mode, backlog, in flight, draining), and
    // identical boxes under one router fall into a handful of those
    // however many nodes there are.  Paranoid mode cross-checks the
    // incrementally patched classes against a from-scratch grouping
    // after every event.
    FleetConfig fc;
    fc.nodes.assign(256, NodeSpec{er::model::ModelId::DeepScaleR1_5B});
    fc.server.maxBatch = 30;
    fc.router = RouterPolicy::DeadlineAware;
    fc.paranoid = true;
    fc.maxRetries = 2;
    fc.hedgeFraction = 0.3;
    fc.adaptiveHealth = true;
    fc.nodeFaults.seed = 0xF1EE7;
    fc.nodeFaults.horizon = 3600.0;
    fc.nodeFaults.crashesPerHour = 2.0;
    fc.nodeFaults.meanRebootSeconds = 30.0;
    fc.nodeFaults.slowdownsPerHour = 2.0;
    er::Rng rng(1, "fleet-scale-classes");
    auto trace = ServingSimulator::poissonTrace(rng, 4000, 200.0, 64, 32);
    for (auto &r : trace)
        r.deadline = 5.0;
    FleetSimulator sim(fc);
    const FleetReport rep = sim.run(trace);
    EXPECT_GT(rep.failovers + rep.retries + rep.hedgesLaunched, 0u);
    EXPECT_GE(sim.classRoutes(), rep.arrivals);
    EXPECT_LE(sim.classVisits(), 8 * sim.classRoutes());
    // Pinned: the classes examined per route are the cost model of
    // routing; a change that scores nodes again moves them.
    EXPECT_EQ(sim.classRoutes(), 4008u);
    EXPECT_EQ(sim.classVisits(), 11590u);
}

// --- Cross-layer oracle: a 1-node fleet is the single-node server ----

/** The Retire records of the journal at @p path, in retirement
 *  order. */
std::vector<er::engine::ServedRequest>
retiredRecords(const std::filesystem::path &path)
{
    std::vector<er::engine::ServedRequest> out;
    const auto contents = er::engine::readJournal(path.string());
    for (const auto &rec : contents.records) {
        if (rec.type != er::engine::JournalRecordType::Retire)
            continue;
        er::ByteReader r(rec.payload);
        er::engine::ServedRequest s;
        er::engine::io(r, s);
        out.push_back(s);
    }
    return out;
}

/** The final accumulators of the journal at @p path (its RunEnd). */
er::engine::ExecAccumulators
runEndAccumulators(const std::filesystem::path &path)
{
    const auto contents = er::engine::readJournal(path.string());
    EXPECT_FALSE(contents.records.empty());
    EXPECT_EQ(contents.records.back().type,
              er::engine::JournalRecordType::RunEnd);
    er::ByteReader r(contents.records.back().payload);
    er::engine::ExecAccumulators acc;
    er::engine::io(r, acc);
    return acc;
}

TEST(FleetScale, OneNodeFleetMatchesServingSimulator)
{
    // With no faults, retries, hedges or deadlines, a 1-node rr fleet
    // dispatches every request at its arrival instant, so its node
    // must run the cycles ServingSimulator runs: every per-request
    // record and every shared report field is compared bit for bit.
    const NodeSpec spec{er::model::ModelId::DeepScaleR1_5B};
    er::Rng rng(1, "fleet-scale-one-node");
    const auto trace =
        ServingSimulator::poissonTrace(rng, 300, 2.0, 96, 64);
    const auto eng = makeNodeEngine(spec);
    const std::filesystem::path dir = "fleet-scale-oracle-artifacts";
    for (const bool exact : {false, true}) {
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(exact ? "exact" : "macro") +
                         " threads=" + std::to_string(threads));
            er::ThreadPool::setGlobalThreads(threads);
            std::filesystem::remove_all(dir);
            er::engine::ServerConfig cfg;
            cfg.maxBatch = 8;
            cfg.exactSteps = exact;

            er::engine::DurabilityOptions dur;
            dur.checkpointDir = (dir / "server").string();
            ServingSimulator srv(*eng, cfg);
            const er::engine::ServingReport want =
                srv.run(trace, er::engine::FaultPlan(), dur);

            FleetConfig fc;
            fc.nodes = {spec};
            fc.server = cfg;
            fc.router = RouterPolicy::RoundRobin;
            fc.maxRetries = 0;
            fc.journalDir = (dir / "fleet").string();
            FleetSimulator sim(fc);
            const FleetReport got = sim.run(trace);

            const auto w =
                retiredRecords(dir / "server" / "journal.bin");
            const auto g =
                retiredRecords(dir / "fleet" / "node-0-inc0.bin");
            ASSERT_EQ(w.size(), trace.size());
            ASSERT_EQ(g.size(), w.size());
            for (std::size_t i = 0; i < w.size(); ++i) {
                SCOPED_TRACE("record " + std::to_string(i));
                EXPECT_EQ(g[i].traceIndex, w[i].traceIndex);
                EXPECT_EQ(g[i].request.arrival, w[i].request.arrival);
                EXPECT_EQ(g[i].firstToken, w[i].firstToken);
                EXPECT_EQ(g[i].finish, w[i].finish);
                EXPECT_EQ(g[i].generated, w[i].generated);
                EXPECT_EQ(g[i].outcome, w[i].outcome);
                EXPECT_EQ(g[i].queueDelay, w[i].queueDelay);
                EXPECT_EQ(g[i].serviceTime, w[i].serviceTime);
            }

            EXPECT_EQ(got.served, want.completed);
            EXPECT_EQ(got.timedOut, want.timedOut);
            EXPECT_EQ(got.shed, want.shed);
            EXPECT_EQ(got.generatedTokens, want.generatedTokens);
            // Both reports come from one fold (summarizeRun), so the
            // run-level statistics are equal bit for bit.
            EXPECT_EQ(got.makespan, want.makespan);
            EXPECT_EQ(got.throughput, want.throughputQps);
            EXPECT_EQ(got.goodput, want.goodputQps);
            EXPECT_EQ(got.meanLatency, want.meanLatency);
            EXPECT_EQ(got.p50Latency, want.p50Latency);
            EXPECT_EQ(got.p99Latency, want.p99Latency);
            // Energy: the fleet ends a macro segment at each sync
            // target, which regroups the deferred per-bucket sums (one
            // ulp here); exact mode matches bit for bit.
            if (exact) {
                EXPECT_EQ(got.totalEnergy, want.totalEnergy);
            } else {
                EXPECT_NEAR(got.totalEnergy, want.totalEnergy,
                            1e-12 * want.totalEnergy);
            }

            // The executor's step counters, pinned: a refactor of the
            // serving cycle must not move them.
            const er::engine::ExecAccumulators acc =
                runEndAccumulators(dir / "server" / "journal.bin");
            EXPECT_EQ(acc.decodeSteps, 5608u);
            EXPECT_EQ(acc.macroSegments, exact ? 5608u : 566u);
        }
    }
    std::filesystem::remove_all(dir);
    er::ThreadPool::setGlobalThreads(0);
}

// --- Crash-resume with the index live --------------------------------

const std::filesystem::path kArtifacts = "fleet-scale-artifacts";

std::string
runCrashResume(const FleetConfig &fc,
               const std::vector<ServerRequest> &trace,
               const std::filesystem::path &dir,
               std::int64_t crash_event)
{
    FleetDurabilityOptions dur;
    dur.checkpointDir = (dir / "ckpt").string();
    dur.checkpointEvery = 20;
    dur.crashAtEvent = crash_event;
    bool crashed = false;
    try {
        FleetSimulator sim(fc);
        sim.run(trace, dur);
    } catch (const FleetSimulatedCrash &) {
        crashed = true;
    }
    EXPECT_TRUE(crashed) << "crash point was never reached";

    FleetDurabilityOptions res;
    res.checkpointDir = dur.checkpointDir;
    res.checkpointEvery = dur.checkpointEvery;
    res.resume = true;
    FleetSimulator sim(fc);
    return formatFleetReport(sim.run(trace, res));
}

TEST(FleetScale, CrashResumeWithIndexIsBitIdentical)
{
    // The index is derived state, rebuilt from the restored nodes:
    // a run killed at either crash point and resumed must finish
    // bit-identical to the uninterrupted run and its golden.
    std::filesystem::remove_all(kArtifacts);
    const auto trace = matrixTrace();
    const FleetConfig fc =
        matrixConfig(RouterPolicy::LeastLoaded, FaultMix::Crashy);
    const char *golden = nullptr;
    for (const auto &g : kMatrixGoldens)
        if (g.policy == RouterPolicy::LeastLoaded &&
            g.mix == FaultMix::Crashy)
            golden = g.report;
    ASSERT_NE(golden, nullptr);
    FleetSimulator base(fc);
    const std::string uninterrupted =
        formatFleetReport(base.run(trace));
    EXPECT_EQ(uninterrupted, golden);

    for (const std::int64_t crash_event : {30ll, 90ll}) {
        SCOPED_TRACE("crash@" + std::to_string(crash_event));
        const auto dir =
            kArtifacts / ("crash-" + std::to_string(crash_event));
        EXPECT_EQ(runCrashResume(fc, trace, dir, crash_event),
                  uninterrupted);
    }
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(kArtifacts);
}

// --- Streaming run vs materialized run -------------------------------

/** Serve one Poisson trace twice, as a vector through run() and as a
 *  PoissonTraceStream through runStream(): the reports must print
 *  the same, exact latency statistics included (both fold latencies
 *  in completion order).  @return the streamed report. */
FleetReport
expectStreamedMatchesMaterialized(const FleetConfig &fc,
                                  std::uint64_t seed,
                                  const std::string &name,
                                  std::size_t n, double qps,
                                  double mean_in, double mean_out,
                                  double deadline)
{
    er::Rng rng(seed, name);
    auto trace =
        ServingSimulator::poissonTrace(rng, n, qps, mean_in, mean_out);
    for (auto &r : trace)
        r.deadline = deadline;
    const std::string want = formatFleetReport(FleetSimulator(fc).run(trace));

    PoissonTraceStream src(seed, name, n, qps, mean_in, mean_out);
    src.setDeadline(deadline);
    const FleetReport streamed = FleetSimulator(fc).runStream(src);
    EXPECT_EQ(formatFleetReport(streamed), want);
    return streamed;
}

TEST(FleetScale, StreamedRunMatchesMaterialized)
{
    {
        SCOPED_TRACE("least-loaded, hedged");
        FleetConfig fc;
        fc.nodes.assign(4,
                        NodeSpec{er::model::ModelId::DeepScaleR1_5B});
        fc.server.maxBatch = 6;
        fc.router = RouterPolicy::LeastLoaded;
        fc.paranoid = true;
        fc.hedgeFraction = 0.3;
        fc.requestTimeout = 45.0;
        expectStreamedMatchesMaterialized(fc, 21, "fleet-scale-stream",
                                          60, 2.0, 96, 224, 75.0);
    }
    {
        // The fleet_gray shape on 8 nodes: Gray slowdowns, crashes,
        // retries, hedges and adaptive health.
        SCOPED_TRACE("deadline, Gray, crashes, adaptive health");
        FleetConfig fc;
        fc.nodes.assign(8,
                        NodeSpec{er::model::ModelId::DeepScaleR1_5B});
        fc.server.maxBatch = 30;
        fc.router = RouterPolicy::DeadlineAware;
        fc.paranoid = true;
        fc.maxRetries = 2;
        fc.hedgeFraction = 0.3;
        fc.adaptiveHealth = true;
        fc.nodeFaults.seed = 0xF1EE7;
        fc.nodeFaults.horizon = 600.0;
        fc.nodeFaults.crashesPerHour = 30.0;
        fc.nodeFaults.meanRebootSeconds = 30.0;
        fc.nodeFaults.slowdownsPerHour = 30.0;
        const FleetReport rep = expectStreamedMatchesMaterialized(
            fc, 1, "fleet-scale-gray", 2000, 6.25, 64, 32, 5.0);
        EXPECT_GT(rep.failovers + rep.retries + rep.hedgesLaunched, 0u);
    }
}

// --- Arrival order ---------------------------------------------------

/** A fixed request list served as a stream, in list order. */
class ListSource final : public er::engine::TraceSource
{
  public:
    explicit ListSource(std::vector<ServerRequest> reqs)
        : reqs_(std::move(reqs))
    {
    }
    std::size_t totalRequests() const override { return reqs_.size(); }
    ServerRequest next() override { return reqs_.at(next_++); }

  private:
    std::vector<ServerRequest> reqs_;
    std::size_t next_ = 0;
};

TEST(FleetScale, UnsortedTraceIsRejected)
{
    // Arrivals are checked as each request is drawn, on the one path
    // both run() and runStream() share.
    FleetConfig fc;
    fc.nodes.assign(2, NodeSpec{er::model::ModelId::DeepScaleR1_5B});
    er::Rng rng(21, "fleet-scale-unsorted");
    auto trace = ServingSimulator::poissonTrace(rng, 12, 2.0, 96, 224);
    ASSERT_LT(trace[6].arrival, trace[7].arrival);
    std::swap(trace[6], trace[7]);
    const auto expectUnsorted = [](auto &&run) {
        try {
            run();
            ADD_FAILURE() << "an unsorted trace was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("must be sorted"),
                      std::string::npos)
                << e.what();
        }
    };
    expectUnsorted([&] { FleetSimulator(fc).run(trace); });
    expectUnsorted([&] {
        ListSource src(trace);
        FleetSimulator(fc).runStream(src);
    });
}

} // namespace
