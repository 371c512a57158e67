/**
 * @file
 * Fleet serving suite (DESIGN.md §12): node-scoped fault-schedule
 * determinism, router-policy golden reports (exact EXPECT_EQ on the
 * %.17g formatFleetReport string), thread-count bit-identity,
 * hedging cancel-on-first-win, failover conservation under a forced
 * node crash, graceful drain, per-try timeouts with retry, the
 * cloud-offload tier, one engine per distinct node spec, and the
 * class-scored routers (least-loaded, deadline, cost) against per-node
 * brute-force references, across index rebuilds and in-place
 * loadChanged patches, and round-robin's cyclic scan against the
 * filtered-list cursor pick it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/binio.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "engine/server.hh"
#include "fleet/fleet.hh"
#include "fleet/node_faults.hh"
#include "hw/gpu_spec.hh"
#include "model/model_id.hh"

namespace er = edgereason;
using namespace er::fleet;
using er::engine::ServerRequest;
using er::engine::ServingSimulator;
using er::Seconds;

namespace {

// --- Node-fault determinism (the node-scoped stream rule) ------------

NodeFaultConfig
faultyConfig()
{
    NodeFaultConfig cfg;
    cfg.seed = 0xBEEF;
    cfg.horizon = 3600.0;
    cfg.crashesPerHour = 60.0;
    cfg.meanRebootSeconds = 15.0;
    cfg.degradesPerHour = 45.0;
    cfg.meanDegradeSeconds = 30.0;
    cfg.behavioural.thermal = true;
    cfg.behavioural.brownoutsPerHour = 30.0;
    cfg.behavioural.kvShrinksPerHour = 30.0;
    cfg.behavioural.horizon = 3600.0;
    return cfg;
}

void
expectSameSchedule(const NodeFaultSchedule &a, const NodeFaultSchedule &b)
{
    ASSERT_EQ(a.crashes.size(), b.crashes.size());
    for (std::size_t k = 0; k < a.crashes.size(); ++k) {
        EXPECT_EQ(a.crashes[k].time, b.crashes[k].time);
        EXPECT_EQ(a.crashes[k].rebootAfter, b.crashes[k].rebootAfter);
    }
    ASSERT_EQ(a.degrades.size(), b.degrades.size());
    for (std::size_t k = 0; k < a.degrades.size(); ++k) {
        EXPECT_EQ(a.degrades[k].start, b.degrades[k].start);
        EXPECT_EQ(a.degrades[k].duration, b.degrades[k].duration);
    }
    const auto &ea = a.behavioural.events();
    const auto &eb = b.behavioural.events();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t k = 0; k < ea.size(); ++k) {
        EXPECT_EQ(ea[k].kind, eb[k].kind);
        EXPECT_EQ(ea[k].time, eb[k].time);
        EXPECT_EQ(ea[k].duration, eb[k].duration);
        EXPECT_EQ(ea[k].magnitude, eb[k].magnitude);
    }
}

TEST(NodeFaults, SchedulesAreNodeScoped)
{
    // Growing the fleet must never perturb existing nodes: node i's
    // schedule is a pure function of (seed, i), not of the count.
    const auto cfg = faultyConfig();
    const auto two = deriveNodeFaultPlans(cfg, 2);
    const auto eight = deriveNodeFaultPlans(cfg, 8);
    ASSERT_EQ(two.size(), 2u);
    ASSERT_EQ(eight.size(), 8u);
    for (std::size_t i = 0; i < 2; ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        expectSameSchedule(two[i], eight[i]);
    }
    // ...and distinct nodes draw from distinct streams.
    ASSERT_FALSE(two[0].crashes.empty());
    ASSERT_FALSE(two[1].crashes.empty());
    EXPECT_NE(two[0].crashes[0].time, two[1].crashes[0].time);
}

// --- Golden scenario (shared by goldens + thread bit-identity) -------

FleetConfig
goldenConfig(RouterPolicy p, bool crashy, int n)
{
    FleetConfig fc;
    for (int i = 0; i < n; ++i) {
        NodeSpec s;
        s.model = er::model::ModelId::DeepScaleR1_5B;
        s.powerMode = i % 2 ? er::hw::PowerMode::W30
                            : er::hw::PowerMode::MaxN;
        fc.nodes.push_back(s);
    }
    fc.server.maxBatch = 8;
    fc.router = p;
    fc.maxRetries = 3;
    fc.retryBackoff = 0.5;
    fc.paranoid = true;
    fc.nodeFaults.seed = 0xF1EE7;
    fc.nodeFaults.horizon = 240.0;
    if (crashy) {
        fc.nodeFaults.crashesPerHour = 90.0;
        fc.nodeFaults.meanRebootSeconds = 15.0;
        fc.nodeFaults.degradesPerHour = 30.0;
        fc.nodeFaults.meanDegradeSeconds = 20.0;
    }
    return fc;
}

std::vector<ServerRequest>
goldenTrace()
{
    er::Rng rng(42, "fleet-golden");
    auto t = ServingSimulator::poissonTrace(rng, 24, 1.2, 96, 192);
    for (auto &r : t)
        r.deadline = 60.0;
    return t;
}

std::string
runGolden(RouterPolicy p, bool crashy, int n)
{
    FleetSimulator sim(goldenConfig(p, crashy, n));
    return formatFleetReport(sim.run(goldenTrace()));
}

struct GoldenCase
{
    RouterPolicy policy;
    bool crashy;
    int nodes;
    const char *report;
};

// Exact %.17g renderings pinned at introduction; any arithmetic or
// event-ordering change in the fleet driver shows up here first.
const GoldenCase kGoldens[] = {
    {RouterPolicy::RoundRobin, false, 2,
     "fleet report (router=rr)\n"
     "arrivals 24 served 24 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 45.602337345675195 throughput 0.52628881318242549 goodput 0.52628881318242549 deadline-hit 1\n"
     "latency mean 8.4049464283088184 p50 7.5189087971696349 p99 24.796064154665871 p999 26.81431800342008\n"
     "energy 906.62602349787289 J (37.776084312411371 J/query) tokens 4850\n"
     "dollars edge 0.00091343076254209827 cloud 0 (3.8059615105920764e-05 $/query)\n"
     "node 0: served 12 timed-out 0 cancelled 0 crashes 0 energy 522.7618930317642 busy 24.567952446609219 tokens 2539 up\n"
     "node 1: served 12 timed-out 0 cancelled 0 crashes 0 energy 383.86413046610875 busy 45.484421811765721 tokens 2311 up\n"
     ""},
    {RouterPolicy::RoundRobin, false, 4,
     "fleet report (router=rr)\n"
     "arrivals 24 served 24 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 44.652990626620593 throughput 0.53747799784975692 goodput 0.53747799784975692 deadline-hit 1\n"
     "latency mean 7.7127663113675773 p50 6.7152883148864273 p99 23.705129299884593 p999 25.850812470792814\n"
     "energy 1363.5329737627414 J (56.813873906780891 J/query) tokens 4850\n"
     "dollars edge 0.0015441562368844176 cloud 0 (6.4339843203517393e-05 $/query)\n"
     "node 0: served 6 timed-out 0 cancelled 0 crashes 0 energy 369.62286010459508 busy 22.378951346340241 tokens 1174 up\n"
     "node 1: served 6 timed-out 0 cancelled 0 crashes 0 energy 364.81215630682379 busy 44.53507509271121 tokens 1425 up\n"
     "node 2: served 6 timed-out 0 cancelled 0 crashes 0 energy 440.70867292257924 busy 23.667905990854642 tokens 1365 up\n"
     "node 3: served 6 timed-out 0 cancelled 0 crashes 0 energy 188.38928442874322 busy 28.405456608304835 tokens 886 up\n"
     ""},
    {RouterPolicy::RoundRobin, true, 2,
     "fleet report (router=rr)\n"
     "arrivals 24 served 24 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 6 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 47.037553180313324 throughput 0.51023062164816735 goodput 0.51023062164816735 deadline-hit 1\n"
     "latency mean 10.499515122001007 p50 8.0740855185784923 p99 35.476217204453235 p999 37.358689436040848\n"
     "energy 761.17984827720784 J (31.715827011550328 J/query) tokens 5337\n"
     "dollars edge 0.00086950177193010237 cloud 0 (3.6229240497087599e-05 $/query)\n"
     "node 0: served 11 timed-out 0 cancelled 0 crashes 4 energy 368.83599628385554 busy 23.524712512577207 tokens 2128 up\n"
     "node 1: served 13 timed-out 0 cancelled 0 crashes 4 energy 392.34385199335236 busy 43.498163080906963 tokens 3209 up\n"
     ""},
    {RouterPolicy::RoundRobin, true, 4,
     "fleet report (router=rr)\n"
     "arrivals 24 served 24 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 6 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 53.437912434464153 throughput 0.44911934068220605 goodput 0.44911934068220605 deadline-hit 1\n"
     "latency mean 8.2841748762012735 p50 5.7929724075575741 p99 31.558256096696596 p999 34.542554777533233\n"
     "energy 1348.2812825856317 J (56.178386774401325 J/query) tokens 5628\n"
     "dollars edge 0.0014150732814813211 cloud 0 (5.8961386728388381e-05 $/query)\n"
     "node 0: served 8 timed-out 0 cancelled 0 crashes 4 energy 365.7501051242221 busy 24.307395809294576 tokens 1617 up\n"
     "node 1: served 8 timed-out 0 cancelled 0 crashes 4 energy 370.80662914613674 busy 48.84642720619803 tokens 1589 up\n"
     "node 2: served 7 timed-out 0 cancelled 0 crashes 5 energy 575.09495594832958 busy 28.387089892615101 tokens 2204 up\n"
     "node 3: served 1 timed-out 0 cancelled 0 crashes 8 energy 36.629592366943257 busy 7.1706786684459063 tokens 218 up\n"
     ""},
    {RouterPolicy::DeadlineAware, false, 2,
     "fleet report (router=deadline)\n"
     "arrivals 24 served 24 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 33.100630808153475 throughput 0.72506171072994252 goodput 0.72506171072994252 deadline-hit 1\n"
     "latency mean 6.2046713395407966 p50 5.0448649541618185 p99 17.844786687299006 p999 18.734059976011487\n"
     "energy 739.26129149272401 J (30.802553812196834 J/query) tokens 4850\n"
     "dollars edge 0.00044456043891411256 cloud 0 (1.8523351621421357e-05 $/query)\n"
     "node 0: served 24 timed-out 0 cancelled 0 crashes 0 energy 739.26129149272401 busy 33.100630808153262 tokens 4850 up\n"
     "node 1: served 0 timed-out 0 cancelled 0 crashes 0 energy 0 busy 0 tokens 0 up\n"
     ""},
    {RouterPolicy::DeadlineAware, false, 4,
     "fleet report (router=deadline)\n"
     "arrivals 24 served 24 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 32.492018508955148 throughput 0.73864293759974753 goodput 0.73864293759974753 deadline-hit 1\n"
     "latency mean 5.6501187639258692 p50 4.6907424318509499 p99 16.386787215550591 p999 17.047718757876225\n"
     "energy 1070.6980934518519 J (44.612420560493831 J/query) tokens 4850\n"
     "dollars edge 0.00075120856245638697 cloud 0 (3.1300356769016126e-05 $/query)\n"
     "node 0: served 11 timed-out 0 cancelled 0 crashes 0 energy 510.85636975548954 busy 24.153588376625819 tokens 2442 up\n"
     "node 1: served 0 timed-out 0 cancelled 0 crashes 0 energy 0 busy 0 tokens 0 up\n"
     "node 2: served 13 timed-out 0 cancelled 0 crashes 0 energy 559.84172369636235 busy 32.374102975045631 tokens 2408 up\n"
     "node 3: served 0 timed-out 0 cancelled 0 crashes 0 energy 0 busy 0 tokens 0 up\n"
     ""},
    {RouterPolicy::DeadlineAware, true, 2,
     "fleet report (router=deadline)\n"
     "arrivals 24 served 24 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 4 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 38.26804591664839 throughput 0.62715509572331929 goodput 0.62715509572331929 deadline-hit 1\n"
     "latency mean 7.6291286002545302 p50 5.4176550693492578 p99 30.818922655505659 p999 33.218410346294284\n"
     "energy 897.81633340058102 J (37.409013891690876 J/query) tokens 5147\n"
     "dollars edge 0.00082572274234016859 cloud 0 (3.4405114264173691e-05 $/query)\n"
     "node 0: served 20 timed-out 0 cancelled 0 crashes 4 energy 618.87320549138008 busy 32.086151953770809 tokens 3934 up\n"
     "node 1: served 4 timed-out 0 cancelled 0 crashes 4 energy 278.94312790920094 busy 30.978946322107397 tokens 1213 up\n"
     ""},
    {RouterPolicy::DeadlineAware, true, 4,
     "fleet report (router=deadline)\n"
     "arrivals 24 served 24 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 3 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 41.514428123289079 throughput 0.57811226325279186 goodput 0.57811226325279186 deadline-hit 1\n"
     "latency mean 6.7093179194058248 p50 4.6805285500176552 p99 29.284550312508941 p999 30.987297661202462\n"
     "energy 1421.2671579657872 J (59.219464915241133 J/query) tokens 5431\n"
     "dollars edge 0.0012497014505780113 cloud 0 (5.2070893774083804e-05 $/query)\n"
     "node 0: served 15 timed-out 0 cancelled 0 crashes 4 energy 664.99905116690888 busy 38.125230446613173 tokens 2884 up\n"
     "node 1: served 1 timed-out 0 cancelled 0 crashes 4 energy 244.83048846412279 busy 28.670418043449473 tokens 604 up\n"
     "node 2: served 8 timed-out 0 cancelled 0 crashes 5 energy 511.4376183347556 busy 28.442910362958973 tokens 1943 up\n"
     "node 3: served 0 timed-out 0 cancelled 0 crashes 8 energy 0 busy 0 tokens 0 up\n"
     ""},
    {RouterPolicy::CostAware, false, 2,
     "fleet report (router=cost)\n"
     "arrivals 24 served 24 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 37.414389982580637 throughput 0.64146442080637689 goodput 0.64146442080637689 deadline-hit 1\n"
     "latency mean 8.1986175582622067 p50 5.7280980903375465 p99 29.83237697519219 p999 32.351465437601959\n"
     "energy 916.30907313966372 J (38.179544714152655 J/query) tokens 4850\n"
     "dollars edge 0.00091279819022029908 cloud 0 (3.8033257925845795e-05 $/query)\n"
     "node 0: served 14 timed-out 0 cancelled 0 crashes 0 energy 582.69629198869404 busy 32.555101657911038 tokens 2719 up\n"
     "node 1: served 10 timed-out 0 cancelled 0 crashes 0 energy 333.61278115096962 busy 37.414389982580673 tokens 2131 up\n"
     ""},
    {RouterPolicy::CostAware, false, 4,
     "fleet report (router=cost)\n"
     "arrivals 24 served 24 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 0 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 35.907361817170901 throughput 0.66838661448313919 goodput 0.66838661448313919 deadline-hit 1\n"
     "latency mean 7.4753441678063322 p50 6.2324723381049258 p99 27.012008750916728 p999 30.713103266305676\n"
     "energy 1388.4896561302053 J (57.853735672091886 J/query) tokens 4850\n"
     "dollars edge 0.0015471408782693065 cloud 0 (6.4464203261221099e-05 $/query)\n"
     "node 0: served 7 timed-out 0 cancelled 0 crashes 0 energy 399.69011758702896 busy 24.995944738374536 tokens 1368 up\n"
     "node 1: served 5 timed-out 0 cancelled 0 crashes 0 energy 309.71712162936302 busy 35.90736181717093 tokens 1299 up\n"
     "node 2: served 7 timed-out 0 cancelled 0 crashes 0 energy 479.40591545850197 busy 29.670073490939817 tokens 1375 up\n"
     "node 3: served 5 timed-out 0 cancelled 0 crashes 0 energy 199.67650145531147 busy 28.569591361291902 tokens 808 up\n"
     ""},
    {RouterPolicy::CostAware, true, 2,
     "fleet report (router=cost)\n"
     "arrivals 24 served 24 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 7 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 46.472464727215048 throughput 0.51643484245726268 goodput 0.51643484245726268 deadline-hit 1\n"
     "latency mean 9.8945965140590797 p50 5.8770118036211985 p99 34.692470377886352 p999 36.516160423359679\n"
     "energy 815.25490249267807 J (33.968954270528251 J/query) tokens 5515\n"
     "dollars edge 0.0008826540432836517 cloud 0 (3.677725180348549e-05 $/query)\n"
     "node 0: served 14 timed-out 0 cancelled 0 crashes 4 energy 427.81308504037702 busy 24.880919770814778 tokens 2851 up\n"
     "node 1: served 10 timed-out 0 cancelled 0 crashes 4 energy 387.44181745230105 busy 43.013887350235102 tokens 2664 up\n"
     ""},
    {RouterPolicy::CostAware, true, 4,
     "fleet report (router=cost)\n"
     "arrivals 24 served 24 timed-out 0 shed 0 offloaded 0\n"
     "retries 0 failovers 3 hedges 0 (wins 0, waste 0) cancelled-legs 0\n"
     "makespan 32.299596033376446 throughput 0.74304334875271671 goodput 0.74304334875271671 deadline-hit 1\n"
     "latency mean 7.6101309413624074 p50 6.7446491821294146 p99 15.91493808169384 p999 16.20935663087592\n"
     "energy 1236.0089235029475 J (51.500371812622809 J/query) tokens 5119\n"
     "dollars edge 0.0011568435058513446 cloud 0 (4.8201812743806027e-05 $/query)\n"
     "node 0: served 8 timed-out 0 cancelled 0 crashes 4 energy 551.03175007009963 busy 31.294012959566604 tokens 1985 up\n"
     "node 1: served 9 timed-out 0 cancelled 0 crashes 4 energy 193.59545732842534 busy 26.667377182207627 tokens 1354 up\n"
     "node 2: served 6 timed-out 0 cancelled 0 crashes 5 energy 447.00720254892161 busy 23.281769060498178 tokens 1537 up\n"
     "node 3: served 1 timed-out 0 cancelled 0 crashes 8 energy 44.374513555500954 busy 7.1842915208253606 tokens 243 up\n"
     ""},
};

TEST(FleetGolden, ReportsAreBitExact)
{
    for (const auto &g : kGoldens) {
        SCOPED_TRACE(std::string(routerPolicyName(g.policy)) +
                     (g.crashy ? "/crashy/" : "/healthy/") +
                     std::to_string(g.nodes) + " nodes");
        EXPECT_EQ(runGolden(g.policy, g.crashy, g.nodes), g.report);
    }
}

TEST(FleetGolden, ReportsAreThreadCountInvariant)
{
    const std::string one = runGolden(RouterPolicy::DeadlineAware,
                                      true, 4);
    for (const unsigned t : {2u, 4u}) {
        er::ThreadPool::setGlobalThreads(t);
        EXPECT_EQ(runGolden(RouterPolicy::DeadlineAware, true, 4), one)
            << "report drifted at " << t << " threads";
    }
    er::ThreadPool::setGlobalThreads(0);
}

// --- Hedging: first completion wins, the loser is cancelled ----------

TEST(FleetHedge, CancelOnFirstWin)
{
    // Node 0 is a slow 15 W build, node 1 runs MAXN.  Round-robin
    // sends the primary to node 0; the hedge timer fires early (90%
    // of the deadline still ahead) and duplicates onto node 1, which
    // finishes first — the node-0 leg must be withdrawn.
    FleetConfig fc;
    NodeSpec slow, fast;
    slow.model = fast.model = er::model::ModelId::DeepScaleR1_5B;
    slow.powerMode = er::hw::PowerMode::W15;
    fast.powerMode = er::hw::PowerMode::MaxN;
    fc.nodes = {slow, fast};
    fc.router = RouterPolicy::RoundRobin;
    fc.hedgeFraction = 0.9;
    fc.paranoid = true;

    std::vector<ServerRequest> trace(1);
    trace[0].arrival = 0.0;
    trace[0].inputTokens = 64;
    trace[0].outputTokens = 1024;
    trace[0].deadline = 300.0;

    FleetSimulator sim(fc);
    const auto rep = sim.run(trace);
    EXPECT_EQ(rep.served, 1u);
    EXPECT_EQ(rep.hedgesLaunched, 1u);
    EXPECT_EQ(rep.hedgeWins, 1u);
    EXPECT_EQ(rep.hedgeWaste, 0u);
    EXPECT_EQ(rep.cancelledLegs, 1u);
    ASSERT_EQ(rep.nodes.size(), 2u);
    EXPECT_EQ(rep.nodes[1].served, 1u);  // the hedge won
    EXPECT_EQ(rep.nodes[0].served, 0u);
    EXPECT_EQ(rep.nodes[0].cancelled, 1u);
}

// --- Failover: a crashed node's legs are re-homed, none lost ---------

TEST(FleetFailover, ConservationUnderForcedCrash)
{
    FleetConfig fc;
    fc.nodes.assign(2, NodeSpec{er::model::ModelId::DeepScaleR1_5B});
    fc.router = RouterPolicy::RoundRobin;
    fc.paranoid = true;
    fc.explicitSchedules.resize(2);
    fc.explicitSchedules[0].crashes.push_back({2.0, 50.0});

    // Eight requests land inside 2 s; round-robin puts half on node 0,
    // all of which are live when it dies.
    std::vector<ServerRequest> trace(8);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].arrival = 0.25 * static_cast<double>(i);
        trace[i].inputTokens = 64;
        trace[i].outputTokens = 128;
    }

    FleetSimulator sim(fc);
    const auto rep = sim.run(trace);
    // run() itself fatals if any arrival fails to reach a terminal
    // state; the tallies must also reconcile.
    EXPECT_EQ(rep.served + rep.timedOut + rep.shed + rep.offloaded,
              rep.arrivals);
    EXPECT_EQ(rep.served, rep.arrivals); // no deadlines: all complete
    EXPECT_GE(rep.failovers, 1u);
    EXPECT_EQ(rep.nodes[0].crashes, 1u);
    EXPECT_EQ(rep.nodes[1].crashes, 0u);
}

// --- Graceful drain: degraded nodes take no new work -----------------

TEST(FleetDrain, DegradedNodeIsAvoidedWhileAlternativesExist)
{
    FleetConfig fc;
    fc.nodes.assign(2, NodeSpec{er::model::ModelId::DeepScaleR1_5B});
    fc.router = RouterPolicy::RoundRobin;
    fc.paranoid = true;
    fc.explicitSchedules.resize(2);
    fc.explicitSchedules[0].degrades.push_back({0.0, 1000.0});

    std::vector<ServerRequest> trace(6);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].arrival = static_cast<double>(i);
        trace[i].inputTokens = 64;
        trace[i].outputTokens = 64;
    }

    FleetSimulator sim(fc);
    const auto rep = sim.run(trace);
    EXPECT_EQ(rep.served, rep.arrivals);
    EXPECT_EQ(rep.nodes[0].served, 0u); // drained the whole run
    EXPECT_EQ(rep.nodes[1].served, rep.arrivals);
}

// --- Per-try timeouts: capped-backoff retry, then a terminal state ---

TEST(FleetRetry, TimeoutBudgetExhaustsIntoTimedOut)
{
    FleetConfig fc;
    fc.nodes.assign(2, NodeSpec{er::model::ModelId::DeepScaleR1_5B});
    fc.router = RouterPolicy::LeastLoaded;
    fc.maxRetries = 2;
    fc.retryBackoff = 0.25;
    fc.requestTimeout = 1.0; // far below the ~10 s service time
    fc.paranoid = true;

    std::vector<ServerRequest> trace(3);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].arrival = static_cast<double>(i);
        trace[i].inputTokens = 64;
        trace[i].outputTokens = 512;
    }

    FleetSimulator sim(fc);
    const auto rep = sim.run(trace);
    EXPECT_EQ(rep.timedOut, rep.arrivals);
    EXPECT_EQ(rep.served, 0u);
    // Every request burns its full budget: 1 dispatch + maxRetries.
    EXPECT_EQ(rep.retries,
              static_cast<std::size_t>(fc.maxRetries) * rep.arrivals);
}

// --- Cloud offload: saturation spills to the priced tier -------------

TEST(FleetCloud, SaturationOffloadsAndCharges)
{
    FleetConfig fc;
    fc.nodes.assign(1, NodeSpec{er::model::ModelId::DeepScaleR1_5B});
    fc.router = RouterPolicy::CostAware;
    fc.server.maxBatch = 2; // tiny batch so the queue actually buries
    fc.paranoid = true;
    fc.cloud.enabled = true;
    fc.cloud.price = er::cost::o4Mini();
    fc.cloud.saturationBacklog = 2;

    // A burst far beyond one node's capacity.
    std::vector<ServerRequest> trace(12);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].arrival = 0.1 * static_cast<double>(i);
        trace[i].inputTokens = 96;
        trace[i].outputTokens = 256;
    }

    FleetSimulator sim(fc);
    const auto rep = sim.run(trace);
    EXPECT_EQ(rep.served + rep.offloaded, rep.arrivals);
    EXPECT_GT(rep.offloaded, 0u);
    EXPECT_GT(rep.cloudDollars, 0.0);
    EXPECT_GT(rep.dollarsPerQuery, 0.0);
}

// --- Engine sharing: one engine per distinct node spec ---------------

TEST(FleetEngines, OneEnginePerDistinctSpec)
{
    // The four --hetero power modes, three nodes each, plus a
    // quantized spec on two nodes: five distinct specs.
    const er::hw::PowerMode kModes[] = {
        er::hw::PowerMode::MaxN, er::hw::PowerMode::W50,
        er::hw::PowerMode::W30, er::hw::PowerMode::W15};
    FleetConfig fc;
    for (int i = 0; i < 12; ++i)
        fc.nodes.push_back(
            {er::model::ModelId::DeepScaleR1_5B, false, kModes[i % 4]});
    fc.nodes.push_back({er::model::ModelId::DeepScaleR1_5B, true,
                        er::hw::PowerMode::MaxN});
    fc.nodes.push_back(fc.nodes.back());

    FleetSimulator sim(fc);
    EXPECT_EQ(sim.engineCount(), 5u);
    for (std::size_t i = 0; i < fc.nodes.size(); ++i) {
        const auto &eng = sim.node(i).engine();
        EXPECT_EQ(eng.config().powerMode, fc.nodes[i].powerMode);
        EXPECT_EQ(eng.spec().weightDtype == er::DType::W4A16,
                  fc.nodes[i].quantized);
        for (std::size_t j = 0; j < fc.nodes.size(); ++j)
            EXPECT_EQ(&eng == &sim.node(j).engine(),
                      fc.nodes[i] == fc.nodes[j])
                << "nodes " << i << " and " << j;
    }

    // Fleets never share engines with each other, and a standalone
    // node still builds its own.
    FleetSimulator other(fc);
    EXPECT_NE(&other.node(0).engine(), &sim.node(0).engine());
    FleetNode a(0, fc.nodes[0], fc.server, er::engine::FaultPlan{});
    FleetNode b(1, fc.nodes[0], fc.server, er::engine::FaultPlan{});
    EXPECT_NE(&a.engine(), &b.engine());
    EXPECT_NE(&a.engine(), &sim.node(0).engine());

    ServerRequest r;
    r.inputTokens = 96;
    r.outputTokens = 192;
    EXPECT_EQ(a.estimateServiceTime(r), sim.node(0).estimateServiceTime(r));
}

// --- Route memo vs a per-node brute-force reference ------------------

std::vector<int>
refCandidates(const std::vector<NodeView> &views, int exclude)
{
    std::vector<int> out;
    for (int pass = 0; pass < 3 && out.empty(); ++pass) {
        for (std::size_t i = 0; i < views.size(); ++i) {
            if (!views[i].up || (pass < 1 && views[i].draining) ||
                (pass < 2 && static_cast<int>(i) == exclude))
                continue;
            out.push_back(static_cast<int>(i));
        }
    }
    return out;
}

Seconds
refFinish(const ServerRequest &req, Seconds now, const FleetNode &n)
{
    return now +
        n.estimateServiceTime(req) *
        (1.0 + static_cast<double>(n.backlog()));
}

RouteDecision
refDeadline(const ServerRequest &req, Seconds now, Seconds abs_deadline,
            const std::vector<NodeView> &views, const CloudTier &cloud,
            int exclude)
{
    const auto ids = refCandidates(views, exclude);
    if (ids.empty())
        return cloud.enabled ? RouteDecision::toCloud()
                             : RouteDecision::reject();
    int best = -1;
    Seconds best_finish = std::numeric_limits<Seconds>::infinity();
    for (const int i : ids) {
        const Seconds f = refFinish(req, now, *views[i].node);
        if (f < best_finish) {
            best = i;
            best_finish = f;
        }
    }
    if (cloud.enabled &&
        abs_deadline < std::numeric_limits<Seconds>::infinity() &&
        best_finish > abs_deadline + er::engine::kDeadlineSlack &&
        now + cloud.latency(req) <=
            abs_deadline + er::engine::kDeadlineSlack)
        return RouteDecision::toCloud();
    return RouteDecision::toNode(best);
}

RouteDecision
refCost(const ServerRequest &req, Seconds now, Seconds abs_deadline,
        const std::vector<NodeView> &views, const CloudTier &cloud,
        int exclude)
{
    const auto ids = refCandidates(views, exclude);
    if (ids.empty())
        return cloud.enabled ? RouteDecision::toCloud()
                             : RouteDecision::reject();
    const bool cloud_feasible = cloud.enabled &&
        now + cloud.latency(req) <=
            abs_deadline + er::engine::kDeadlineSlack;
    int best_feasible = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    int best_any = -1;
    Seconds best_finish = std::numeric_limits<Seconds>::infinity();
    std::size_t min_backlog = std::numeric_limits<std::size_t>::max();
    for (const int i : ids) {
        const FleetNode &n = *views[i].node;
        const Seconds f = refFinish(req, now, n);
        if (f < best_finish) {
            best_any = i;
            best_finish = f;
        }
        min_backlog = std::min(min_backlog, n.backlog());
        if (f <= abs_deadline + er::engine::kDeadlineSlack) {
            const double cost = n.estimateServiceTime(req) *
                er::hw::powerModeCap(n.spec().powerMode);
            if (cost < best_cost) {
                best_feasible = i;
                best_cost = cost;
            }
        }
    }
    if (cloud.enabled && min_backlog >= cloud.saturationBacklog)
        return RouteDecision::toCloud();
    if (best_feasible >= 0)
        return RouteDecision::toNode(best_feasible);
    if (cloud_feasible &&
        abs_deadline < std::numeric_limits<Seconds>::infinity())
        return RouteDecision::toCloud();
    return RouteDecision::toNode(best_any);
}

RouteDecision
refLeast(const std::vector<NodeView> &views, const CloudTier &cloud,
         int exclude)
{
    const auto ids = refCandidates(views, exclude);
    if (ids.empty())
        return cloud.enabled ? RouteDecision::toCloud()
                             : RouteDecision::reject();
    int best = ids.front();
    std::size_t best_load = std::numeric_limits<std::size_t>::max();
    for (const int i : ids) {
        const FleetNode &n = *views[i].node;
        const std::size_t load =
            n.backlog() + static_cast<std::size_t>(n.inFlight());
        if (load < best_load) {
            best = i;
            best_load = load;
        }
    }
    return RouteDecision::toNode(best);
}

/** The three class-scored routers, checked together against their
 *  per-node references. */
struct ScoredRouters
{
    std::unique_ptr<Router> least = makeRouter(RouterPolicy::LeastLoaded);
    std::unique_ptr<Router> deadline =
        makeRouter(RouterPolicy::DeadlineAware);
    std::unique_ptr<Router> cost = makeRouter(RouterPolicy::CostAware);

    /** Route one dispatch through all three and the references;
     *  @return the cloud decisions among the references. */
    std::size_t expectMatch(const ServerRequest &req, Seconds now,
                            Seconds abs_deadline,
                            const std::vector<NodeView> &views,
                            std::uint64_t gen, const CloudTier &cloud,
                            int exclude)
    {
        const auto want_l = refLeast(views, cloud, exclude);
        const auto got_l = least->route(req, now, abs_deadline, views,
                                        gen, cloud, exclude);
        EXPECT_EQ(got_l.node, want_l.node);
        EXPECT_EQ(got_l.cloud, want_l.cloud);
        const auto want_d =
            refDeadline(req, now, abs_deadline, views, cloud, exclude);
        const auto got_d = deadline->route(req, now, abs_deadline, views,
                                           gen, cloud, exclude);
        EXPECT_EQ(got_d.node, want_d.node);
        EXPECT_EQ(got_d.cloud, want_d.cloud);
        const auto want_c =
            refCost(req, now, abs_deadline, views, cloud, exclude);
        const auto got_c = cost->route(req, now, abs_deadline, views, gen,
                                       cloud, exclude);
        EXPECT_EQ(got_c.node, want_c.node);
        EXPECT_EQ(got_c.cloud, want_c.cloud);
        return want_d.cloud + want_c.cloud;
    }

    void loadChanged(int node)
    {
        least->loadChanged(node);
        deadline->loadChanged(node);
        cost->loadChanged(node);
    }

    /** Every router's incremental index equals a from-scratch one. */
    void expectIndexCurrent(const std::vector<NodeView> &views,
                            std::uint64_t gen)
    {
        const auto want = Router::loadClassesFromScratch(views);
        for (const Router *r : {least.get(), deadline.get(), cost.get()}) {
            const auto got = r->loadClasses(views, gen);
            ASSERT_TRUE(got.has_value());
            EXPECT_TRUE(*got == want);
        }
    }
};

/** A random request, deadline and exclusion for one dispatch. */
struct Dispatch
{
    ServerRequest req;
    Seconds absDeadline;
    int exclude;
};

Dispatch
randomDispatch(er::Rng &rng, Seconds now, std::size_t nodes)
{
    Dispatch d;
    d.req.inputTokens = rng.uniformInt(16, 256);
    d.req.outputTokens = rng.uniformInt(8, 512);
    d.absDeadline = rng.bernoulli(0.25)
        ? std::numeric_limits<Seconds>::infinity()
        : now + rng.uniform(0.05, 30.0);
    d.exclude = rng.bernoulli(0.5)
        ? -1
        : static_cast<int>(
              rng.uniformInt(0, static_cast<std::int64_t>(nodes) - 1));
    return d;
}

/** Drive the three class-scored routers and the per-node references
 *  over randomized health flags, exclusions, cloud settings, deadlines
 *  and request shapes.  Phase 1 advances the nodes between rounds and
 *  bumps the views generation every window, so the index is rebuilt;
 *  phase 2 keeps one generation and moves loads between dispatches
 *  (advances and new legs) reported through loadChanged, so the index
 *  is patched in place. */
void
expectRoutersMatchReference(std::vector<std::unique_ptr<FleetNode>> &nodes,
                            std::uint64_t seed)
{
    er::Rng rng(seed, "route-memo");
    // Uneven backlogs: some legs start, the rest stay queued/pending.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const int legs = static_cast<int>((i * 3) % 11);
        for (int k = 0; k < legs; ++k) {
            ServerRequest leg;
            leg.inputTokens = 32 + 16 * ((i + k) % 5);
            leg.outputTokens = 64 + 48 * ((i * k) % 7);
            nodes[i]->submit(leg, k);
        }
        nodes[i]->advanceUntil(0.02 * static_cast<double>(i % 4), false);
    }

    ScoredRouters routers;
    std::vector<NodeView> views(nodes.size());
    std::uint64_t gen = 0;
    std::size_t clouds = 0, in_flight_levels = 0;
    for (int round = 0; round < 6; ++round) {
        std::vector<int> levels;
        for (const auto &n : nodes)
            levels.push_back(n->inFlight());
        std::sort(levels.begin(), levels.end());
        in_flight_levels = std::max<std::size_t>(
            in_flight_levels,
            std::unique(levels.begin(), levels.end()) - levels.begin());
        for (int trial = 0; trial < 60; ++trial) {
            for (std::size_t i = 0; i < nodes.size(); ++i) {
                views[i].node = nodes[i].get();
                views[i].up = !rng.bernoulli(trial % 7 == 0 ? 0.9 : 0.15);
                views[i].draining = rng.bernoulli(0.2);
            }
            ++gen;
            CloudTier cloud;
            cloud.enabled = rng.bernoulli(0.5);
            cloud.price = er::cost::o4Mini();
            cloud.saturationBacklog =
                static_cast<std::size_t>(rng.uniformInt(2, 64));
            // Several dispatches per views window, so the routers'
            // load classes get reused.
            for (int d = 0; d < 4; ++d) {
                const Seconds now = 0.1 * round;
                const Dispatch x = randomDispatch(rng, now, nodes.size());
                clouds += routers.expectMatch(x.req, now, x.absDeadline,
                                              views, gen, cloud,
                                              x.exclude);
            }
        }
        for (auto &n : nodes)
            n->advanceUntil(0.1 * (round + 1), false);
    }

    // Phase 2: one views generation; loads move between dispatches.
    for (std::size_t i = 0; i < nodes.size(); ++i)
        views[i] = {nodes[i].get(), i % 5 != 3, i % 4 == 1};
    ++gen;
    CloudTier cloud;
    cloud.enabled = true;
    cloud.price = er::cost::o4Mini();
    cloud.saturationBacklog = 6;
    std::size_t moves = 0;
    Seconds now = 0.6;
    for (int step = 0; step < 120; ++step) {
        const Dispatch x = randomDispatch(rng, now, nodes.size());
        clouds += routers.expectMatch(x.req, now, x.absDeadline, views,
                                      gen, cloud, x.exclude);
        // Touch a few nodes: a new leg, or an advance that admits,
        // decodes or retires legs.
        now += 0.02;
        for (int k = 0; k < 3; ++k) {
            const auto i = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(nodes.size()) - 1));
            const FleetNode::Visible before = nodes[i]->visible();
            if (rng.bernoulli(0.5)) {
                ServerRequest leg = x.req;
                leg.arrival = std::max(now, nodes[i]->clock());
                nodes[i]->submit(leg, 1000 + step * 3 + k);
            } else {
                nodes[i]->advanceUntil(now, false);
            }
            const FleetNode::Visible after = nodes[i]->visible();
            moves += after.backlog != before.backlog ||
                after.inFlight != before.inFlight;
            routers.loadChanged(static_cast<int>(i));
        }
        routers.expectIndexCurrent(views, gen);
    }
    // The sweep must reach the branches it claims to cover.
    EXPECT_GT(clouds, 0u);
    EXPECT_GT(in_flight_levels, 2u);
    EXPECT_GT(moves, 60u);
}

/** Round-robin's pick as it was made before the cyclic scan: the
 *  first relaxed candidate at or after the cursor in ascending id
 *  order, wrapping to the lowest. */
RouteDecision
refRoundRobin(const std::vector<NodeView> &views, const CloudTier &cloud,
              int exclude, int *cursor)
{
    const auto ids = refCandidates(views, exclude);
    if (ids.empty())
        return cloud.enabled ? RouteDecision::toCloud()
                             : RouteDecision::reject();
    const auto it = std::lower_bound(ids.begin(), ids.end(), *cursor);
    const int pick = it == ids.end() ? ids.front() : *it;
    *cursor = (pick + 1) % static_cast<int>(views.size());
    return RouteDecision::toNode(pick);
}

TEST(RouteMemo, RoundRobinMatchesFilteredCursorReference)
{
    constexpr int kNodes = 11;
    auto rr = makeRouter(RouterPolicy::RoundRobin);
    int cursor = 0;
    std::vector<NodeView> views(kNodes); // the policy reads no node
    CloudTier cloud;
    std::uint64_t gen = 0;
    std::size_t picks = 0, wraps = 0, clouds = 0, rejects = 0;
    const auto expect_pick = [&](int exclude) {
        const int before = cursor;
        const auto want = refRoundRobin(views, cloud, exclude, &cursor);
        const auto got =
            rr->route(ServerRequest{}, 0.0,
                      std::numeric_limits<Seconds>::infinity(), views,
                      gen, cloud, exclude);
        EXPECT_EQ(got.node, want.node) << "exclude " << exclude;
        EXPECT_EQ(got.cloud, want.cloud) << "exclude " << exclude;
        picks += want.node >= 0;
        wraps += want.node >= 0 && want.node < before;
        clouds += want.cloud;
        rejects += want.rejected();
    };
    // Every exclusion, three dispatches each, so the cursor moves
    // under one views generation.
    const auto sweep_excludes = [&] {
        for (int exclude = -1; exclude < kNodes; ++exclude)
            for (int d = 0; d < 3; ++d)
                expect_pick(exclude);
    };

    er::Rng rng(0x5EED, "route-rr");
    for (int trial = 0; trial < 200; ++trial) {
        const double p_down = trial % 5 == 0 ? 0.85 : 0.3;
        const double p_drain = trial % 7 == 0 ? 0.9 : 0.25;
        for (auto &v : views) {
            v.up = !rng.bernoulli(p_down);
            v.draining = rng.bernoulli(p_drain);
        }
        cloud.enabled = rng.bernoulli(0.5);
        ++gen;
        sweep_excludes();
    }

    // Only the excluded node is up: the third pass still serves it.
    for (int only = 0; only < kNodes; ++only) {
        for (int i = 0; i < kNodes; ++i)
            views[i] = {nullptr, i == only, i == only && only % 2 == 1};
        ++gen;
        const std::size_t before = picks;
        expect_pick(only);
        EXPECT_EQ(picks, before + 1);
    }
    // All draining: the second pass serves them.
    for (auto &v : views)
        v = {nullptr, true, true};
    ++gen;
    sweep_excludes();
    // All down: the cloud when enabled, else a rejection.
    for (auto &v : views)
        v = {nullptr, false, false};
    for (const bool enabled : {false, true}) {
        cloud.enabled = enabled;
        ++gen;
        sweep_excludes();
    }

    // The cursor survives a checkpoint: a restored router continues
    // the rotation exactly where the original stands.
    for (auto &v : views)
        v = {nullptr, true, false};
    views[3].up = false;
    views[7].draining = true;
    ++gen;
    expect_pick(-1);
    er::ByteWriter w;
    rr->io(w);
    auto restored = makeRouter(RouterPolicy::RoundRobin);
    er::ByteReader r(w.bytes());
    restored->io(r);
    for (int d = 0; d < 2 * kNodes; ++d) {
        const auto want = rr->route(ServerRequest{}, 0.0, 0.0, views, gen,
                                    cloud, d % 4 == 0 ? d % kNodes : -1);
        const auto got = restored->route(ServerRequest{}, 0.0, 0.0, views,
                                         gen, cloud,
                                         d % 4 == 0 ? d % kNodes : -1);
        EXPECT_EQ(got.node, want.node);
    }

    // The sweep must reach the branches it claims to cover.
    EXPECT_GT(picks, 1000u);
    EXPECT_GT(wraps, 100u);
    EXPECT_GT(clouds, 0u);
    EXPECT_GT(rejects, 0u);
}

TEST(RouteMemo, MatchesPerNodeReferenceOnSharedEngines)
{
    // Three specs on shared engines, plus two standalone nodes whose
    // private engines equal a shared spec (equal estimates, distinct
    // memo keys: tie-breaks must still go to the lowest id).
    const NodeSpec kSpecs[] = {
        {er::model::ModelId::DeepScaleR1_5B, false,
         er::hw::PowerMode::MaxN},
        {er::model::ModelId::DeepScaleR1_5B, false,
         er::hw::PowerMode::W15},
        {er::model::ModelId::DeepScaleR1_5B, true,
         er::hw::PowerMode::W30},
    };
    std::vector<std::unique_ptr<er::engine::InferenceEngine>> engines;
    for (const auto &spec : kSpecs)
        engines.push_back(makeNodeEngine(spec));
    er::engine::ServerConfig server;
    server.maxBatch = 4;
    std::vector<std::unique_ptr<FleetNode>> nodes;
    for (int i = 0; i < 16; ++i) {
        const NodeSpec &spec = kSpecs[i % 3];
        if (i == 5 || i == 12)
            nodes.push_back(std::make_unique<FleetNode>(
                i, spec, server, er::engine::FaultPlan{}));
        else
            nodes.push_back(std::make_unique<FleetNode>(
                i, spec, *engines[i % 3], server,
                er::engine::FaultPlan{}));
    }
    expectRoutersMatchReference(nodes, 0xA11CE);
}

TEST(RouteMemo, MatchesPerNodeReferenceOnStandaloneNodes)
{
    // One private engine per node: every memo key is distinct.
    er::engine::ServerConfig server;
    server.maxBatch = 4;
    std::vector<std::unique_ptr<FleetNode>> nodes;
    for (int i = 0; i < 24; ++i)
        nodes.push_back(std::make_unique<FleetNode>(
            i,
            NodeSpec{er::model::ModelId::DeepScaleR1_5B, false,
                     i % 2 ? er::hw::PowerMode::W50
                           : er::hw::PowerMode::MaxN},
            server, er::engine::FaultPlan{}));
    expectRoutersMatchReference(nodes, 0xB0B);
}

} // namespace
