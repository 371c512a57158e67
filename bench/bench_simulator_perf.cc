/**
 * @file
 * google-benchmark micro-benchmarks of the simulator itself: kernel
 * enumeration, roofline execution, full request simulation, the
 * characterization pipeline's question runs, and the Monte-Carlo
 * accuracy evaluator.  These guard against performance regressions in
 * the infrastructure (a full Table XI regeneration runs ~60 strategy
 * evaluations over 3,000 questions each).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <optional>

#include "accuracy/simulate.hh"
#include "accuracy/trace_gen.hh"
#include "cli/serve_run.hh"
#include "common/thread_pool.hh"
#include "core/edge_reasoning.hh"
#include "core/pareto.hh"
#include "engine/engine.hh"
#include "engine/server.hh"
#include "fleet/fleet.hh"
#include "model/calibration.hh"
#include "model/zoo.hh"

namespace er = edgereason;
using er::model::ModelId;

namespace {

er::engine::InferenceEngine &
sharedEngine()
{
    static er::engine::InferenceEngine eng = [] {
        er::engine::EngineConfig cfg;
        cfg.measurementNoise = false;
        return er::engine::InferenceEngine(
            er::model::spec(ModelId::Dsr1Llama8B),
            er::model::calibration(ModelId::Dsr1Llama8B), cfg);
    }();
    return eng;
}

void
BM_KernelEnumeration(benchmark::State &state)
{
    const auto spec = er::model::spec(ModelId::Dsr1Llama8B);
    for (auto _ : state) {
        auto ks = er::engine::decodeKernels(spec, 1024, 4);
        benchmark::DoNotOptimize(ks);
    }
}
BENCHMARK(BM_KernelEnumeration);

void
BM_DecodeStepLatency(benchmark::State &state)
{
    auto &eng = sharedEngine();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            eng.decodeStepLatency(static_cast<er::Tokens>(
                state.range(0))));
    }
}
BENCHMARK(BM_DecodeStepLatency)->Arg(512)->Arg(4096);

void
BM_FullRequest(benchmark::State &state)
{
    auto &eng = sharedEngine();
    for (auto _ : state) {
        auto r = eng.run(170, static_cast<er::Tokens>(state.range(0)));
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_FullRequest)->Arg(128)->Arg(1024);

void
BM_PrefillSweepPoint(benchmark::State &state)
{
    auto &eng = sharedEngine();
    for (auto _ : state) {
        auto m = eng.prefillOnly(2048);
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_PrefillSweepPoint);

void
BM_AccuracyEvaluation(benchmark::State &state)
{
    static er::acc::QuestionBank bank(er::acc::Dataset::MmluRedux, 99);
    static const er::acc::ResponseProfile prof(
        ModelId::Dsr1Llama8B, er::acc::Dataset::MmluRedux, false);
    er::acc::ResponseSimulator sim(prof, 1);
    const auto sub = bank.subset(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto ev = sim.evaluate(sub, er::strategy::TokenPolicy::base(),
                               static_cast<int>(state.range(1)));
        benchmark::DoNotOptimize(ev);
    }
    state.SetItemsProcessed(state.iterations() *
                            state.range(0) * state.range(1));
}
BENCHMARK(BM_AccuracyEvaluation)
    ->Args({1000, 1})
    ->Args({1000, 8})
    ->Args({3000, 1});

void
BM_KernelCacheHit(benchmark::State &state)
{
    // Steady-state decode-step cost with the (context, batch) memo
    // cache warm — this is the path the parallel sweeps hammer.
    auto &eng = sharedEngine();
    benchmark::DoNotOptimize(eng.decodeStepLatency(1024, 4));
    for (auto _ : state)
        benchmark::DoNotOptimize(eng.decodeStepLatency(1024, 4));
    const auto stats = eng.kernelCacheStats();
    state.counters["hit_rate"] =
        static_cast<double>(stats.hits) /
        static_cast<double>(stats.hits + stats.misses);
}
BENCHMARK(BM_KernelCacheHit);

void
BM_StepCostCold(benchmark::State &state)
{
    // The roofline kernel -> engine step rung: every lookup misses the
    // step-cost memo, so each one builds and prices a kernel program.
    // A fresh engine per iteration keeps the memo cold; building and
    // destroying it is not timed.
    const auto spec = er::model::spec(ModelId::Dsr1Llama8B);
    const auto calib = er::model::calibration(ModelId::Dsr1Llama8B);
    er::engine::EngineConfig cfg;
    cfg.measurementNoise = false;
    constexpr int kKeys = 32;
    std::optional<er::engine::InferenceEngine> eng;
    er::engine::KernelCacheStats stats;
    for (auto _ : state) {
        state.PauseTiming();
        eng.emplace(spec, calib, cfg);
        state.ResumeTiming();
        for (int i = 0; i < kKeys; ++i) {
            benchmark::DoNotOptimize(
                eng->prefillSuffixLatency(128 * i, 64 + 3 * i));
            benchmark::DoNotOptimize(
                eng->decodeStepLatency(512 + 16 * i, 1 + i % 8));
        }
        state.PauseTiming();
        const auto s = eng->kernelCacheStats();
        stats.hits += s.hits;
        stats.misses += s.misses;
        eng.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * 2 * kKeys);
    state.counters["miss_rate"] =
        static_cast<double>(stats.misses) /
        static_cast<double>(stats.hits + stats.misses);
}
BENCHMARK(BM_StepCostCold);

void
BM_ParallelSweep(benchmark::State &state)
{
    // Thread-scaling benchmark of one strategy evaluation's inner
    // question fan-out.  The earlier version timed sweepStrategies(),
    // which parallelizes over the six *strategies*: one 8B evaluation
    // dominates the grid, and the nested per-question parallelFor runs
    // serially from inside a pool task, so wall time was the slowest
    // single strategy at every thread count (~flat items/s at 1/2/4
    // threads — measuring nothing).  Iterating the grid serially here
    // puts the 500-question Monte-Carlo loop of each evaluate() on the
    // pool, which is the layer whose scaling this benchmark guards.
    static er::core::EdgeReasoning facade;
    std::vector<er::strategy::InferenceStrategy> grid;
    for (auto id : {ModelId::Dsr1Qwen1_5B, ModelId::Llama31_8BIt,
                    ModelId::Dsr1Llama8B}) {
        for (int par : {1, 4}) {
            er::strategy::InferenceStrategy s;
            s.model = id;
            s.policy = er::strategy::TokenPolicy::hard(256);
            s.parallel = par;
            grid.push_back(s);
        }
    }
    // Profile/bank construction warm-up outside the timed region; the
    // evaluations themselves are recomputed cold every iteration.
    for (const auto &s : grid) {
        auto warm = facade.evaluator().evaluate(
            s, er::acc::Dataset::MmluRedux, 10);
        benchmark::DoNotOptimize(warm);
    }
    er::ThreadPool::setGlobalThreads(
        static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        for (const auto &s : grid) {
            auto rep = facade.evaluator().evaluate(
                s, er::acc::Dataset::MmluRedux, 500);
            benchmark::DoNotOptimize(rep);
        }
    }
    er::ThreadPool::setGlobalThreads(0);
    // items/s = strategy evaluations per wall second (UseRealTime:
    // work runs on pool workers, so CPU time would overcount).
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// --- Serving executor: exact vs macro decode stepping ----------------

/** 64-request trace with ~2k-token outputs: long decode stretches
 *  between scheduler events, the case macro-stepping targets. */
const std::vector<er::engine::ServerRequest> &
servingTrace()
{
    static const auto trace = [] {
        er::Rng rng(21, "bench-serving");
        return er::engine::ServingSimulator::poissonTrace(
            rng, 64, 8.0, 120, 2000);
    }();
    return trace;
}

void
BM_ServingDecode(benchmark::State &state, bool exact_steps)
{
    auto &eng = sharedEngine();
    er::engine::ServerConfig cfg;
    cfg.maxBatch = 64;
    cfg.exactSteps = exact_steps;
    double generated = 0.0;
    for (auto _ : state) {
        er::engine::ServingSimulator srv(eng, cfg);
        auto rep = srv.run(servingTrace());
        generated = rep.generatedTokens;
        benchmark::DoNotOptimize(rep);
    }
    // items_per_second = simulated decode tokens per wall second; the
    // macro/exact ratio is the fast-forward speedup (DESIGN.md §10).
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(generated));
    state.counters["sim_tokens"] = generated;
}

void
BM_ServingDecodeExact(benchmark::State &state)
{
    BM_ServingDecode(state, true);
}
BENCHMARK(BM_ServingDecodeExact);

void
BM_ServingDecodeMacro(benchmark::State &state)
{
    BM_ServingDecode(state, false);
}
BENCHMARK(BM_ServingDecodeMacro);

// --- Columnar request state + time indexes (DESIGN.md §11) ----------

/** 16k requests at 50 qps against one device: the wait queue grows
 *  thousands of entries long. */
const std::vector<er::engine::ServerRequest> &
deepBacklogTrace()
{
    static const auto trace = [] {
        er::Rng rng(33, "bench-columnar");
        return er::engine::ServingSimulator::poissonTrace(
            rng, 16384, 50.0, 64, 256);
    }();
    return trace;
}

void
BM_ServingDecodeColumnar(benchmark::State &state)
{
    // Guards the columnar pool and the wait queue on a deep backlog.
    // The trace carries no deadlines and no faults, so the three time
    // indexes stay empty here; BM_ServingDeadlineBacklog covers them.
    auto &eng = sharedEngine();
    const auto &trace = deepBacklogTrace();
    er::engine::ServerConfig cfg;
    cfg.maxBatch = 256;
    double generated = 0.0;
    for (auto _ : state) {
        er::engine::ServingSimulator srv(eng, cfg);
        auto rep = srv.run(trace);
        generated = rep.generatedTokens;
        benchmark::DoNotOptimize(rep);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(generated));
    state.counters["sim_tokens"] = generated;
}
BENCHMARK(BM_ServingDecodeColumnar);

void
BM_ServingDeadlineBacklog(benchmark::State &state)
{
    // The same deep backlog with a 600 s deadline on every request
    // under EDF: every live request holds a key in the live-deadline
    // index and every queued one in the queued-deadline-gate index,
    // so the macro horizon, the shed/abort guards and the admission
    // scan read indexes thousands of keys deep.
    auto &eng = sharedEngine();
    static const auto trace = [] {
        auto t = deepBacklogTrace();
        for (auto &r : t)
            r.deadline = 600.0;
        return t;
    }();
    er::engine::ServerConfig cfg;
    cfg.maxBatch = 256;
    cfg.scheduler = er::engine::SchedulerPolicy::Edf;
    double generated = 0.0;
    double peak_queue = 0.0;
    for (auto _ : state) {
        er::engine::ServingSimulator srv(eng, cfg);
        auto rep = srv.run(trace);
        generated = rep.generatedTokens;
        peak_queue = static_cast<double>(rep.peakQueueDepth);
        benchmark::DoNotOptimize(rep);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(generated));
    state.counters["sim_tokens"] = generated;
    state.counters["peak_queue"] = peak_queue;
}
BENCHMARK(BM_ServingDeadlineBacklog)->Unit(benchmark::kMillisecond);

// --- Shared-prefix KV reuse (DESIGN.md §13) --------------------------

void
BM_PrefixHitServing(benchmark::State &state)
{
    // Session workload against the radix prefix index: 32 overlapping
    // chat sessions re-send their growing history each turn, so most
    // admissions walk the index, attach shared blocks, and publish
    // fresh ones at retire.  Guards the cost of the prefix-enabled
    // serving path (paged KV + chain-hash index + eviction) end to
    // end.
    auto &eng = sharedEngine();
    static const auto trace = [] {
        er::acc::SessionTraceConfig sc;
        sc.sessions = 32;
        sc.turnsPerSession = 4;
        sc.sessionQps = 1.0;
        sc.meanTurnGap = 15.0;
        sc.systemPromptTokens = 512;
        er::Rng rng(77, "bench-prefix-serving");
        return er::acc::generateSessionTrace(sc, rng);
    }();
    er::engine::ServerConfig cfg;
    cfg.maxBatch = 32;
    cfg.prefixCache.enabled = true;
    double generated = 0.0;
    double hit_rate = 0.0;
    for (auto _ : state) {
        er::engine::ServingSimulator srv(eng, cfg);
        auto rep = srv.run(trace);
        generated = rep.generatedTokens;
        hit_rate = rep.prefixHitRate;
        benchmark::DoNotOptimize(rep);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(generated));
    state.counters["sim_tokens"] = generated;
    state.counters["hit_rate"] = hit_rate;
}
BENCHMARK(BM_PrefixHitServing);

void
BM_SessionTraceGen(benchmark::State &state)
{
    // Session workload generator at perfbench serve_sessions' shape
    // (400 sessions x 6 turns, ~2.8M token symbols): symbol hashing and
    // the carried per-session block chains.  Ungated layer rung.
    er::acc::SessionTraceConfig sc;
    sc.sessions = 400;
    sc.turnsPerSession = 6;
    sc.sessionQps = 0.03;
    sc.meanTurnGap = 20.0;
    sc.systemPromptTokens = 512;
    sc.meanUserTokens = 120.0;
    sc.meanThinkTokens = 0.75 * 1024.0;
    sc.meanAnswerTokens = 0.25 * 1024.0;
    std::int64_t requests = 0;
    for (auto _ : state) {
        er::Rng rng(1, "perfbench/serve_sessions");
        auto trace = er::acc::generateSessionTrace(sc, rng);
        requests += static_cast<std::int64_t>(trace.size());
        benchmark::DoNotOptimize(trace);
    }
    state.SetItemsProcessed(requests);
}
BENCHMARK(BM_SessionTraceGen)->Unit(benchmark::kMillisecond);

void
BM_ShardedTraceScaling(benchmark::State &state)
{
    // serveReplications() thread scaling over 16 independent
    // replications.  Each trace comes from its own "shard/<i>" seed
    // stream, independent of execution order, so every thread count
    // simulates identical work and the reports are bit-identical —
    // only wall time moves.
    auto &eng = sharedEngine();
    er::cli::ServeOptions o;
    o.replications = 16;
    o.requests = 512;
    o.qps = 8.0;
    o.meanIn = 120;
    o.meanOut = 512;
    o.seed = 404;
    er::engine::ServerConfig cfg;
    cfg.maxBatch = 64;
    // Engine memo warm-up so thread 1 and thread 8 meet equally warm
    // caches.
    {
        auto warm = er::cli::serveReplications(o, eng, nullptr, cfg);
        benchmark::DoNotOptimize(warm);
    }
    er::ThreadPool::setGlobalThreads(
        static_cast<unsigned>(state.range(0)));
    double generated = 0.0;
    for (auto _ : state) {
        auto reports = er::cli::serveReplications(o, eng, nullptr, cfg);
        generated = 0.0;
        for (const auto &r : reports)
            generated += r.generatedTokens;
        benchmark::DoNotOptimize(reports);
    }
    er::ThreadPool::setGlobalThreads(0);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(generated));
    state.counters["sim_tokens"] = generated;
}
BENCHMARK(BM_ShardedTraceScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// --- Fleet serving (DESIGN.md §12) -----------------------------------

void
BM_FleetScaling(benchmark::State &state)
{
    // End-to-end fleet cost per simulated token: N fault-injected
    // nodes behind the least-loaded router with retry + failover.
    // The fleet adds a conservative sync loop and per-event routing
    // on top of per-node macro-stepping; this guards that overhead.
    const int n = static_cast<int>(state.range(0));
    er::fleet::FleetConfig fc;
    for (int i = 0; i < n; ++i) {
        er::fleet::NodeSpec s;
        s.model = ModelId::DeepScaleR1_5B;
        fc.nodes.push_back(s);
    }
    fc.server.maxBatch = 16;
    fc.router = er::fleet::RouterPolicy::LeastLoaded;
    fc.nodeFaults.seed = 0xF1EE7;
    fc.nodeFaults.horizon = 3600.0;
    fc.nodeFaults.crashesPerHour = 12.0;
    fc.nodeFaults.meanRebootSeconds = 15.0;
    static const auto trace = [] {
        er::Rng rng(55, "bench-fleet");
        return er::engine::ServingSimulator::poissonTrace(
            rng, 512, 4.0, 96, 256);
    }();
    double generated = 0.0;
    for (auto _ : state) {
        er::fleet::FleetSimulator sim(fc);
        auto rep = sim.run(trace);
        generated = rep.generatedTokens;
        benchmark::DoNotOptimize(rep);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(generated));
    state.counters["sim_tokens"] = generated;
}
BENCHMARK(BM_FleetScaling)->Arg(2)->Arg(4);

void
BM_FleetScaling100k(benchmark::State &state)
{
    // Fleet-scale event engine (DESIGN.md §15): a 10^5-request trace
    // of short requests over a large healthy round-robin fleet, the
    // regime where per-event fleet-layer cost — not per-node decode
    // work — decides throughput.  Arg = node count.  items/s = fleet
    // events per second (FleetReport::events).
    const int n = static_cast<int>(state.range(0));
    er::fleet::FleetConfig fc;
    for (int i = 0; i < n; ++i) {
        er::fleet::NodeSpec s;
        s.model = ModelId::DeepScaleR1_5B;
        fc.nodes.push_back(s);
    }
    fc.server.maxBatch = 16;
    fc.router = er::fleet::RouterPolicy::RoundRobin;
    static const auto trace = [] {
        er::Rng rng(55, "bench-fleet-scale");
        return er::engine::ServingSimulator::poissonTrace(
            rng, 100000, 800.0, 8, 8);
    }();
    std::uint64_t events = 0;
    for (auto _ : state) {
        er::fleet::FleetSimulator sim(fc);
        auto rep = sim.run(trace);
        events = rep.events;
        benchmark::DoNotOptimize(rep);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(events));
    state.counters["fleet_events"] = static_cast<double>(events);
}
BENCHMARK(BM_FleetScaling100k)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void
BM_RouterDecision(benchmark::State &state)
{
    // One routing decision (ROADMAP direction 6's router rung): the
    // deadline router over N identical boxes on one shared engine,
    // mid-run (backlogs of 1-8 legs, some admitted and decoding).
    // Each decision's leg is submitted to the picked node and reported
    // through Router::loadChanged, so the load classes are patched in
    // place between decisions as the fleet driver does.  Arg = node
    // count.  items/s = routing decisions per second.
    const auto n = static_cast<std::size_t>(state.range(0));
    const er::fleet::NodeSpec spec{ModelId::DeepScaleR1_5B};
    const auto engine = er::fleet::makeNodeEngine(spec);
    er::engine::ServerConfig server;
    server.maxBatch = 30;
    static const auto trace = [] {
        er::Rng rng(55, "bench-router");
        auto t = er::engine::ServingSimulator::poissonTrace(
            rng, 4096, 200.0, 64, 32);
        for (auto &r : t) {
            r.arrival = 0.0;
            r.deadline = 5.0;
        }
        return t;
    }();
    const std::size_t decisions = 2 * n;
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<std::unique_ptr<er::fleet::FleetNode>> nodes;
        std::vector<er::fleet::NodeView> views;
        for (std::size_t i = 0; i < n; ++i) {
            nodes.push_back(std::make_unique<er::fleet::FleetNode>(
                static_cast<int>(i), spec, *engine, server,
                er::engine::FaultPlan{}));
            for (std::size_t k = 0; k <= i % 8; ++k)
                nodes.back()->submit(trace[(i * 8 + k) % trace.size()],
                                     static_cast<std::int64_t>(k));
            nodes.back()->advanceUntil(0.05 * static_cast<double>(i % 3),
                                       false);
            views.push_back({nodes.back().get(), true, false});
        }
        auto router =
            er::fleet::makeRouter(er::fleet::RouterPolicy::DeadlineAware);
        er::fleet::CloudTier cloud;
        state.ResumeTiming();
        for (std::size_t d = 0; d < decisions; ++d) {
            const auto &r = trace[d % trace.size()];
            const auto pick =
                router->route(r, 0.0, r.deadline, views, 1, cloud, -1);
            benchmark::DoNotOptimize(pick);
            nodes[static_cast<std::size_t>(pick.node)]->submit(
                r, static_cast<std::int64_t>(8 + d));
            router->loadChanged(pick.node);
        }
        state.PauseTiming();
        nodes.clear();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(decisions));
}
BENCHMARK(BM_RouterDecision)->Arg(256)->Arg(1024);

void
BM_FleetCheckpointResume(benchmark::State &state)
{
    // The fleet durability tax end to end: a checkpointed run killed
    // mid-trace plus the resume that finishes it.  Covers checkpoint
    // serialization (every node's full stack + fleet-layer state),
    // the container fsync/rename discipline, and restore.  Compare
    // against BM_FleetScaling/4 for the plain-run baseline.
    er::fleet::FleetConfig fc;
    for (int i = 0; i < 4; ++i) {
        er::fleet::NodeSpec s;
        s.model = ModelId::DeepScaleR1_5B;
        fc.nodes.push_back(s);
    }
    fc.server.maxBatch = 16;
    fc.router = er::fleet::RouterPolicy::LeastLoaded;
    fc.nodeFaults.seed = 0xF1EE7;
    fc.nodeFaults.horizon = 3600.0;
    fc.nodeFaults.crashesPerHour = 12.0;
    fc.nodeFaults.meanRebootSeconds = 15.0;
    static const auto trace = [] {
        er::Rng rng(55, "bench-fleet");
        return er::engine::ServingSimulator::poissonTrace(
            rng, 512, 4.0, 96, 256);
    }();
    const auto dir = std::filesystem::temp_directory_path() /
        "edgereason-bench-fleet-ckpt";
    double generated = 0.0;
    for (auto _ : state) {
        std::filesystem::remove_all(dir);
        er::fleet::FleetDurabilityOptions dur;
        dur.checkpointDir = dir.string();
        dur.checkpointEvery = 200;
        dur.crashAtEvent = 700;
        try {
            er::fleet::FleetSimulator doomed(fc);
            doomed.run(trace, dur);
        } catch (const er::fleet::FleetSimulatedCrash &) {
        }
        dur.crashAtEvent = -1;
        dur.resume = true;
        er::fleet::FleetSimulator sim(fc);
        auto rep = sim.run(trace, dur);
        generated = rep.generatedTokens;
        benchmark::DoNotOptimize(rep);
    }
    std::filesystem::remove_all(dir);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(generated));
    state.counters["sim_tokens"] = generated;
}
BENCHMARK(BM_FleetCheckpointResume);

} // namespace

BENCHMARK_MAIN();
