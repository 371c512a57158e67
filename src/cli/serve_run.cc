#include "cli/serve_run.hh"

#include <string>

#include "accuracy/trace_gen.hh"
#include "common/thread_pool.hh"

namespace edgereason {
namespace cli {

std::vector<engine::ServerRequest>
serveTrace(const ServeOptions &o, Rng &rng)
{
    std::vector<engine::ServerRequest> trace;
    if (o.sessions > 0) {
        // Multi-turn session workload (DESIGN.md §13): shared system
        // prompt, each turn re-submits the full prior context.  The
        // mean output splits 3:1 between reasoning and answer tokens.
        trace = acc::generateSessionTrace(
            {.sessions = static_cast<std::size_t>(o.sessions),
             .turnsPerSession = static_cast<std::size_t>(o.turnsPerSession),
             .sessionQps = o.sessionQps,
             .meanTurnGap = o.turnGap,
             .systemPromptTokens = static_cast<Tokens>(o.systemPrompt),
             .meanUserTokens = o.meanIn,
             .meanAnswerTokens = 0.25 * o.meanOut,
             .meanThinkTokens = 0.75 * o.meanOut},
            rng);
    } else {
        trace = engine::ServingSimulator::poissonTrace(
            rng, static_cast<std::size_t>(o.requests), o.qps, o.meanIn,
            o.meanOut);
    }
    for (auto &r : trace)
        r.deadline = o.deadline;
    return trace;
}

engine::FaultConfig
behaviouralFaults(const ServeOptions &o)
{
    engine::FaultConfig fc;
    fc.thermal = true;
    // Passively cooled: with the default spec's desk fan, sustained
    // decode load never reaches the throttle point.
    fc.thermalSpec.rThermal = 2.5;
    fc.thermalSpec.cThermal = 50.0; // small passive sink
    fc.thermalSpec.ambientC = o.ambient;
    fc.thermalSpec.initialC = fc.thermalSpec.ambientC;
    fc.brownoutsPerHour = o.brownoutRate;
    fc.kvShrinksPerHour = o.kvShrinkRate;
    return fc;
}

engine::ServingReport
serveNode(const ServeOptions &o, engine::InferenceEngine &engine,
          engine::InferenceEngine *fallback,
          const engine::ServerConfig &config, std::string_view stream)
{
    Rng rng(static_cast<std::uint64_t>(o.seed), stream);
    const auto trace = serveTrace(o, rng);

    const engine::CrashSchedule crash{o.crashAtStep, o.crashAtTime,
                                      o.crashRate};
    engine::FaultPlan plan;
    if (o.faults || crash.enabled()) {
        engine::FaultConfig fc =
            o.faults ? behaviouralFaults(o) : engine::FaultConfig{};
        fc.seed = static_cast<std::uint64_t>(o.faultSeed);
        fc.horizon = trace.back().arrival + 600.0;
        fc.crash = crash;
        plan = engine::FaultPlan(fc);
    }

    engine::ServingSimulator srv(engine, config);
    if (fallback)
        srv.setFallbackEngine(*fallback);
    return srv.run(trace, plan,
                   {.checkpointDir = o.checkpointDir,
                    .checkpointEvery = o.checkpointEvery,
                    .resume = o.resume,
                    .paranoid = o.paranoid});
}

std::vector<engine::ServingReport>
serveReplications(const ServeOptions &o, engine::InferenceEngine &engine,
                  engine::InferenceEngine *fallback,
                  const engine::ServerConfig &config)
{
    std::vector<engine::ServingReport> reports(
        static_cast<std::size_t>(o.replications));
    ThreadPool::global().parallelFor(
        reports.size(),
        [&](std::size_t i) {
            reports[i] = serveNode(o, engine, fallback, config,
                                   "shard/" + std::to_string(i));
        },
        1);
    return reports;
}

} // namespace cli
} // namespace edgereason
