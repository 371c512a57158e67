/**
 * @file
 * Tests for the `serve` subcommand flag parser.  parseServeOptions()
 * is a pure function (no exits, no printing), so malformed input —
 * which previously died inside the CLI binary — is directly
 * unit-testable here.
 */

#include <gtest/gtest.h>

#include "cli/serve_options.hh"

namespace er = edgereason;
using er::cli::ServeOptions;
using er::cli::parseServeOptions;
using er::engine::DegradeMode;
using er::engine::SchedulerPolicy;

namespace {

std::optional<ServeOptions>
parse(std::initializer_list<const char *> toks, std::string *err)
{
    std::vector<std::string> args;
    for (const char *t : toks)
        args.emplace_back(t);
    return parseServeOptions(args, err);
}

TEST(ServeOptions, EmptyArgsYieldDefaults)
{
    std::string err;
    const auto o = parse({}, &err);
    ASSERT_TRUE(o.has_value()) << err;
    EXPECT_EQ(o->model, "DeepScaleR-1.5B");
    EXPECT_FALSE(o->quant);
    EXPECT_EQ(o->requests, 100);
    EXPECT_DOUBLE_EQ(o->qps, 0.1);
    EXPECT_EQ(o->maxBatch, 30);
    EXPECT_EQ(o->prefillChunk, 0);
    EXPECT_EQ(o->scheduler, SchedulerPolicy::Fcfs);
    EXPECT_EQ(o->degrade, DegradeMode::None);
    EXPECT_EQ(o->degradeBudget, 256);
    EXPECT_FALSE(o->faults);
    EXPECT_EQ(o->faultSeed, 0xFA17u);
    EXPECT_FALSE(o->exactSteps);
}

TEST(ServeOptions, ParsesFullFlagSet)
{
    std::string err;
    const auto o = parse(
        {"--model", "DSR1-Llama-8B", "--quant", "--requests", "250",
         "--qps", "1.5", "--mean-in", "200", "--mean-out", "768",
         "--seed", "9", "--deadline", "45", "--max-batch", "12",
         "--prefill-chunk", "256", "--scheduler", "edf", "--degrade",
         "budget", "--degrade-budget", "128", "--faults",
         "--fault-seed", "77", "--ambient", "40", "--brownout-rate",
         "6", "--kv-shrink-rate", "3", "--fallback-model",
         "DeepScaleR-1.5B", "--fallback-quant", "--threads", "4"},
        &err);
    ASSERT_TRUE(o.has_value()) << err;
    EXPECT_EQ(o->model, "DSR1-Llama-8B");
    EXPECT_TRUE(o->quant);
    EXPECT_EQ(o->requests, 250);
    EXPECT_DOUBLE_EQ(o->qps, 1.5);
    EXPECT_DOUBLE_EQ(o->meanIn, 200.0);
    EXPECT_DOUBLE_EQ(o->meanOut, 768.0);
    EXPECT_EQ(o->seed, 9);
    EXPECT_DOUBLE_EQ(o->deadline, 45.0);
    EXPECT_EQ(o->maxBatch, 12);
    EXPECT_EQ(o->prefillChunk, 256);
    EXPECT_EQ(o->scheduler, SchedulerPolicy::Edf);
    EXPECT_EQ(o->degrade, DegradeMode::Budget);
    EXPECT_EQ(o->degradeBudget, 128);
    EXPECT_TRUE(o->faults);
    EXPECT_EQ(o->faultSeed, 77u);
    EXPECT_DOUBLE_EQ(o->ambient, 40.0);
    EXPECT_DOUBLE_EQ(o->brownoutRate, 6.0);
    EXPECT_DOUBLE_EQ(o->kvShrinkRate, 3.0);
    EXPECT_EQ(o->fallbackModel, "DeepScaleR-1.5B");
    EXPECT_TRUE(o->fallbackQuant);
}

TEST(ServeOptions, ParsesEachSchedulerPolicy)
{
    std::string err;
    EXPECT_EQ(parse({"--scheduler", "fcfs"}, &err)->scheduler,
              SchedulerPolicy::Fcfs);
    EXPECT_EQ(parse({"--scheduler", "edf"}, &err)->scheduler,
              SchedulerPolicy::Edf);
    EXPECT_EQ(parse({"--scheduler", "spjf"}, &err)->scheduler,
              SchedulerPolicy::Spjf);
}

TEST(ServeOptions, RejectsMalformedScheduler)
{
    std::string err;
    EXPECT_FALSE(parse({"--scheduler", "sjf"}, &err).has_value());
    EXPECT_NE(err.find("--scheduler"), std::string::npos);
    EXPECT_NE(err.find("sjf"), std::string::npos);
    EXPECT_FALSE(parse({"--scheduler", "EDF"}, &err).has_value());
    EXPECT_FALSE(parse({"--scheduler"}, &err).has_value());
    EXPECT_NE(err.find("missing value"), std::string::npos);
}

TEST(ServeOptions, RejectsMalformedPrefillChunk)
{
    std::string err;
    EXPECT_FALSE(parse({"--prefill-chunk", "-5"}, &err).has_value());
    EXPECT_NE(err.find("--prefill-chunk"), std::string::npos);
    EXPECT_FALSE(parse({"--prefill-chunk", "abc"}, &err).has_value());
    EXPECT_NE(err.find("not an integer"), std::string::npos);
    EXPECT_FALSE(parse({"--prefill-chunk", "12x"}, &err).has_value());
    // 0 (chunking disabled) stays valid.
    EXPECT_EQ(parse({"--prefill-chunk", "0"}, &err)->prefillChunk, 0);
}

TEST(ServeOptions, RejectsOutOfRangeNumbers)
{
    std::string err;
    EXPECT_FALSE(parse({"--max-batch", "0"}, &err).has_value());
    EXPECT_FALSE(parse({"--requests", "0"}, &err).has_value());
    EXPECT_FALSE(parse({"--deadline", "-1"}, &err).has_value());
    EXPECT_FALSE(parse({"--qps", "0"}, &err).has_value());
    EXPECT_NE(err.find("--qps"), std::string::npos);
    EXPECT_FALSE(parse({"--qps", "nope"}, &err).has_value());
    EXPECT_FALSE(parse({"--degrade-budget", "0"}, &err).has_value());
    EXPECT_FALSE(parse({"--mean-out", "0.5"}, &err).has_value());
}

TEST(ServeOptions, RejectsIntegerFlagsPastIntRange)
{
    // --max-batch 4294967297 used to narrow to 1 and serve; 4294967296
    // narrowed to 0 and died inside the server.  Batch-valued and
    // retry counts are bounded by the engine's largest step batch.
    const std::string max =
        std::to_string(er::engine::InferenceEngine::kMaxStepRows);
    const std::string past =
        std::to_string(er::engine::InferenceEngine::kMaxStepRows + 1);
    std::string err;
    for (const char *v : {"4294967297", "4294967296", "2147483648",
                          past.c_str()}) {
        SCOPED_TRACE(v);
        EXPECT_FALSE(parse({"--max-batch", v}, &err).has_value());
        EXPECT_NE(err.find("--max-batch must be in [1, " + max + "]"),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find(v), std::string::npos) << err;
        EXPECT_FALSE(
            parse({"--fleet", "2", "--retry", v}, &err).has_value());
        EXPECT_NE(err.find("--retry must be in [0, " + max + "]"),
                  std::string::npos)
            << err;
    }
    EXPECT_EQ(parse({"--max-batch", max.c_str()}, &err)->maxBatch,
              er::engine::InferenceEngine::kMaxStepRows);
    EXPECT_EQ(parse({"--fleet", "2", "--retry", max.c_str()}, &err)->retry,
              er::engine::InferenceEngine::kMaxStepRows);
    // --threads sizes the pool: bounded by ThreadPool::kMaxThreads.
    for (const char *v : {"4294967297", "1025", "-1"}) {
        EXPECT_FALSE(parse({"--threads", v}, &err).has_value()) << v;
        EXPECT_NE(err.find("--threads must be in [0, 1024]"),
                  std::string::npos)
            << err;
    }
    EXPECT_TRUE(parse({"--threads", "4"}, &err).has_value()) << err;
    // The lower bounds keep their wording.
    EXPECT_FALSE(parse({"--max-batch", "0"}, &err).has_value());
    EXPECT_NE(err.find("--max-batch must be in [1, "), std::string::npos)
        << err;
}

TEST(ServeOptions, RejectsUnknownAndMalformedTokens)
{
    std::string err;
    EXPECT_FALSE(parse({"--warp-speed", "9"}, &err).has_value());
    EXPECT_NE(err.find("--warp-speed"), std::string::npos);
    EXPECT_FALSE(parse({"serve"}, &err).has_value());
    EXPECT_NE(err.find("unexpected argument"), std::string::npos);
    EXPECT_FALSE(parse({"--degrade", "sometimes"}, &err).has_value());
    EXPECT_NE(err.find("--degrade"), std::string::npos);
}

TEST(ServeOptions, BooleanFlagsDoNotConsumeValues)
{
    std::string err;
    const auto o =
        parse({"--faults", "--max-batch", "4", "--quant"}, &err);
    ASSERT_TRUE(o.has_value()) << err;
    EXPECT_TRUE(o->faults);
    EXPECT_TRUE(o->quant);
    EXPECT_EQ(o->maxBatch, 4);
}

TEST(ServeOptions, ParsesDurabilityFlags)
{
    std::string err;
    const auto o = parse({"--checkpoint-dir", "/tmp/ck",
                          "--checkpoint-every", "64", "--paranoid",
                          "--crash-at-step", "100"},
                         &err);
    ASSERT_TRUE(o.has_value()) << err;
    EXPECT_EQ(o->checkpointDir, "/tmp/ck");
    EXPECT_EQ(o->checkpointEvery, 64ull);
    EXPECT_TRUE(o->paranoid);
    EXPECT_FALSE(o->resume);
    EXPECT_EQ(o->crashAtStep, 100);
    EXPECT_EQ(o->crashAtTime, -1.0);
    EXPECT_EQ(o->crashRate, 0.0);
}

TEST(ServeOptions, ResumeImpliesCheckpointDir)
{
    std::string err;
    const auto o = parse({"--resume", "/tmp/ck"}, &err);
    ASSERT_TRUE(o.has_value()) << err;
    EXPECT_TRUE(o->resume);
    EXPECT_EQ(o->checkpointDir, "/tmp/ck");
}

TEST(ServeOptions, CrashInjectionNeedsACheckpointDir)
{
    // A crash without durability would lose the run: the parser
    // rejects each crash flag unless a checkpoint dir is given.
    std::string err;
    EXPECT_FALSE(parse({"--crash-at-step", "5"}, &err).has_value());
    EXPECT_NE(err.find("--checkpoint-dir"), std::string::npos);
    EXPECT_FALSE(parse({"--crash-at-time", "10"}, &err).has_value());
    EXPECT_FALSE(parse({"--crash-rate", "0.5"}, &err).has_value());
    EXPECT_TRUE(parse({"--crash-rate", "0.5", "--checkpoint-dir",
                       "/tmp/ck"},
                      &err)
                    .has_value());
}

TEST(ServeOptions, RejectsMalformedDurabilityValues)
{
    std::string err;
    EXPECT_FALSE(
        parse({"--checkpoint-every", "0"}, &err).has_value());
    EXPECT_FALSE(
        parse({"--crash-at-step", "-2"}, &err).has_value());
    EXPECT_FALSE(
        parse({"--crash-rate", "-1"}, &err).has_value());
    EXPECT_FALSE(parse({"--resume"}, &err).has_value());
    EXPECT_NE(err.find("--resume"), std::string::npos);
}

TEST(ServeOptions, ParsesReplications)
{
    std::string err;
    const auto o = parse({"--replications", "8"}, &err);
    ASSERT_TRUE(o.has_value()) << err;
    EXPECT_EQ(o->replications, 8);

    const auto d = parse({}, &err);
    ASSERT_TRUE(d.has_value()) << err;
    EXPECT_EQ(d->replications, 1);

    // The work partition is the pool's: there is no --shards flag.
    EXPECT_FALSE(parse({"--replications", "8", "--shards", "4"}, &err)
                     .has_value());
    EXPECT_NE(err.find("unknown serve flag: --shards"), std::string::npos)
        << err;
}

TEST(ServeOptions, ReplicationsRunThePlainSingleNodeBody)
{
    // Each replication is a plain single-node run, so everything that
    // run accepts composes with replications, except durability:
    // replications cannot share one checkpoint directory.
    std::string err;
    for (const auto &extra :
         std::vector<std::vector<const char *>>{
             {"--faults"},
             {"--degrade", "fallback"},
             {"--degrade", "budget"},
             {"--faults", "--degrade", "fallback", "--deadline", "60"},
             {"--sessions", "4"},
             {"--prefix-cache", "on"},
             {"--sessions", "4", "--prefix-cache", "on", "--paranoid"}}) {
        std::vector<std::string> args = {"--replications", "4"};
        args.insert(args.end(), extra.begin(), extra.end());
        EXPECT_TRUE(parseServeOptions(args, &err).has_value())
            << args[2] << ": " << err;
    }
    EXPECT_FALSE(parse({"--replications", "4", "--checkpoint-dir",
                        "/tmp/ck"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--replications"), std::string::npos) << err;
    EXPECT_FALSE(parse({"--replications", "4", "--resume", "/tmp/ck"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--replications"), std::string::npos) << err;
    // Crash injection needs a checkpoint directory, which replications
    // exclude.
    EXPECT_FALSE(parse({"--replications", "4", "--crash-at-step", "5",
                        "--checkpoint-dir", "/tmp/ck"},
                       &err)
                     .has_value());
    EXPECT_FALSE(parse({"--replications", "4", "--fleet", "2"}, &err)
                     .has_value());
    EXPECT_NE(err.find("--fleet"), std::string::npos) << err;
}

} // namespace

TEST(ServeOptions, ParsesExactStepsFlag)
{
    std::string err;
    const auto o = parse({"--exact-steps"}, &err);
    ASSERT_TRUE(o.has_value()) << err;
    EXPECT_TRUE(o->exactSteps);

    // A boolean flag must not consume a following token as its value.
    const auto o2 = parse({"--exact-steps", "--qps", "2.0"}, &err);
    ASSERT_TRUE(o2.has_value()) << err;
    EXPECT_TRUE(o2->exactSteps);
    EXPECT_DOUBLE_EQ(o2->qps, 2.0);
}

TEST(ServeOptions, RejectsZeroCountFlags)
{
    // Zero replications/fleet are nonsense; each must be a clear parse
    // error, not a silently-degenerate run.
    std::string err;
    EXPECT_FALSE(parse({"--replications", "0"}, &err).has_value());
    EXPECT_NE(err.find("--replications"), std::string::npos) << err;
    EXPECT_FALSE(parse({"--fleet", "0"}, &err).has_value());
    EXPECT_NE(err.find("--fleet"), std::string::npos) << err;
}

TEST(ServeOptions, ParsesFleetFlags)
{
    std::string err;
    const auto o = parse(
        {"--fleet", "4", "--router", "deadline", "--hetero",
         "--node-faults", "--node-crash-rate", "6", "--node-reboot",
         "12.5", "--node-degrade-rate", "3", "--node-degrade-mean",
         "45", "--retry", "5", "--retry-backoff", "0.5",
         "--request-timeout", "20", "--hedge", "0.25", "--cloud",
         "o4-mini", "--cloud-rtt", "0.2", "--fleet-journals", "/tmp/j"},
        &err);
    ASSERT_TRUE(o.has_value()) << err;
    EXPECT_EQ(o->fleet, 4);
    EXPECT_EQ(o->router, er::fleet::RouterPolicy::DeadlineAware);
    EXPECT_TRUE(o->hetero);
    EXPECT_TRUE(o->nodeFaults);
    EXPECT_DOUBLE_EQ(o->nodeCrashRate, 6.0);
    EXPECT_DOUBLE_EQ(o->nodeReboot, 12.5);
    EXPECT_DOUBLE_EQ(o->nodeDegradeRate, 3.0);
    EXPECT_DOUBLE_EQ(o->nodeDegradeMean, 45.0);
    EXPECT_EQ(o->retry, 5);
    EXPECT_DOUBLE_EQ(o->retryBackoff, 0.5);
    EXPECT_DOUBLE_EQ(o->requestTimeout, 20.0);
    EXPECT_DOUBLE_EQ(o->hedge, 0.25);
    EXPECT_EQ(o->cloud, "o4-mini");
    EXPECT_DOUBLE_EQ(o->cloudRtt, 0.2);
    EXPECT_EQ(o->fleetJournals, "/tmp/j");
}

TEST(ServeOptions, RejectsMalformedFleetValues)
{
    std::string err;
    EXPECT_FALSE(parse({"--fleet", "2", "--router", "zigzag"}, &err)
                     .has_value());
    EXPECT_NE(err.find("--router"), std::string::npos) << err;
    EXPECT_FALSE(parse({"--fleet", "2", "--cloud", "gpt-99"}, &err)
                     .has_value());
    EXPECT_NE(err.find("--cloud"), std::string::npos) << err;
    EXPECT_FALSE(parse({"--fleet", "2", "--hedge", "1.5"}, &err)
                     .has_value());
    EXPECT_NE(err.find("--hedge"), std::string::npos) << err;
}

TEST(ServeOptions, FleetExcludesSingleRunMachinery)
{
    // The fleet path owns faults and routing; the single-run flags
    // must not silently combine with it.  (Durability now composes:
    // see FleetComposesWithDurability.)
    std::string err;
    EXPECT_FALSE(
        parse({"--fleet", "2", "--replications", "4"}, &err)
            .has_value());
    EXPECT_FALSE(
        parse({"--fleet", "2", "--faults"}, &err).has_value());
    EXPECT_FALSE(
        parse({"--fleet", "2", "--crash-rate", "1",
               "--checkpoint-dir", "/tmp/x"}, &err)
            .has_value());
    EXPECT_NE(err.find("--crash-at-event"), std::string::npos) << err;
    EXPECT_FALSE(
        parse({"--fleet", "2", "--crash-at-step", "5",
               "--checkpoint-dir", "/tmp/x"}, &err)
            .has_value());
    EXPECT_FALSE(
        parse({"--fleet", "2", "--scheduler", "spjf"}, &err)
            .has_value());
    EXPECT_FALSE(
        parse({"--fleet", "2", "--degrade", "fallback"}, &err)
            .has_value());
}

TEST(ServeOptions, FleetComposesWithDurability)
{
    // DESIGN.md §14: fleet runs checkpoint, resume, and inject
    // fleet-event crashes with the same flags as single-node runs.
    std::string err;
    const auto o = parse({"--fleet", "3", "--checkpoint-dir",
                          "/tmp/fck", "--checkpoint-every", "32",
                          "--crash-at-event", "100", "--paranoid"},
                         &err);
    ASSERT_TRUE(o.has_value()) << err;
    EXPECT_EQ(o->checkpointDir, "/tmp/fck");
    EXPECT_EQ(o->checkpointEvery, 32ull);
    EXPECT_EQ(o->crashAtEvent, 100);
    EXPECT_TRUE(o->paranoid);

    const auto r = parse({"--fleet", "3", "--resume", "/tmp/fck"},
                         &err);
    ASSERT_TRUE(r.has_value()) << err;
    EXPECT_TRUE(r->resume);
    EXPECT_EQ(r->checkpointDir, "/tmp/fck");

    const auto t = parse({"--fleet", "3", "--crash-at-time", "250",
                          "--checkpoint-dir", "/tmp/fck"},
                         &err);
    ASSERT_TRUE(t.has_value()) << err;
    EXPECT_DOUBLE_EQ(t->crashAtTime, 250.0);

    // Fleet crash injection still needs somewhere to checkpoint...
    EXPECT_FALSE(parse({"--fleet", "3", "--crash-at-event", "100"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--checkpoint-dir"), std::string::npos) << err;
    // ...and the fleet-event coordinate means nothing single-node.
    EXPECT_FALSE(parse({"--crash-at-event", "100", "--checkpoint-dir",
                        "/tmp/ck"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--fleet"), std::string::npos) << err;
}

TEST(ServeOptions, ParsesGrayFailureAndAdaptiveHealthFlags)
{
    std::string err;
    const auto o = parse(
        {"--fleet", "4", "--node-slowdown-rate", "2",
         "--node-slowdown-mean", "120", "--node-slowdown-mult", "10",
         "--node-flap-rate", "6", "--node-flap-mean", "4",
         "--adaptive-health", "--health-quantile", "0.9",
         "--health-multiple", "2.5", "--adaptive-timeout", "4"},
        &err);
    ASSERT_TRUE(o.has_value()) << err;
    EXPECT_DOUBLE_EQ(o->nodeSlowdownRate, 2.0);
    EXPECT_DOUBLE_EQ(o->nodeSlowdownMean, 120.0);
    EXPECT_DOUBLE_EQ(o->nodeSlowdownMult, 10.0);
    EXPECT_DOUBLE_EQ(o->nodeFlapRate, 6.0);
    EXPECT_DOUBLE_EQ(o->nodeFlapMean, 4.0);
    EXPECT_TRUE(o->adaptiveHealth);
    EXPECT_DOUBLE_EQ(o->healthQuantile, 0.9);
    EXPECT_DOUBLE_EQ(o->healthMultiple, 2.5);
    EXPECT_DOUBLE_EQ(o->adaptiveTimeout, 4.0);
}

TEST(ServeOptions, RejectsMalformedGrayFailureValues)
{
    std::string err;
    // A multiplier of 1 is "no slowdown"; <= 1 is a config mistake.
    EXPECT_FALSE(parse({"--fleet", "2", "--node-slowdown-rate", "2",
                        "--node-slowdown-mult", "1"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--node-slowdown-mult"), std::string::npos)
        << err;
    EXPECT_FALSE(parse({"--fleet", "2", "--node-slowdown-rate", "2",
                        "--node-slowdown-mean", "0"},
                       &err)
                     .has_value());
    EXPECT_FALSE(parse({"--fleet", "2", "--node-flap-rate", "2",
                        "--node-flap-mean", "0"},
                       &err)
                     .has_value());
    EXPECT_FALSE(parse({"--fleet", "2", "--adaptive-health",
                        "--health-quantile", "0"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--health-quantile"), std::string::npos) << err;
    EXPECT_FALSE(parse({"--fleet", "2", "--adaptive-health",
                        "--health-multiple", "1"},
                       &err)
                     .has_value());
    // --adaptive-timeout derives its cap from the streamed quantiles.
    EXPECT_FALSE(parse({"--fleet", "2", "--adaptive-timeout", "4"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--adaptive-health"), std::string::npos) << err;
    // Gray-failure and adaptive flags are fleet-scoped.
    EXPECT_FALSE(parse({"--node-slowdown-rate", "2"}, &err)
                     .has_value());
    EXPECT_NE(err.find("--fleet"), std::string::npos) << err;
    EXPECT_FALSE(parse({"--adaptive-health"}, &err).has_value());
    EXPECT_NE(err.find("--fleet"), std::string::npos) << err;
}

TEST(ServeOptions, RejectsHedgeOutsideUnitInterval)
{
    // A hedge fraction of 1 waits the whole deadline budget: the
    // hedge can never fire, so [0, 1) is enforced with both ends
    // named in the message.
    std::string err;
    EXPECT_FALSE(parse({"--fleet", "2", "--hedge", "1.0"}, &err)
                     .has_value());
    EXPECT_NE(err.find("--hedge"), std::string::npos) << err;
    EXPECT_NE(err.find("[0, 1)"), std::string::npos) << err;
    EXPECT_FALSE(parse({"--fleet", "2", "--hedge", "-0.1"}, &err)
                     .has_value());
    EXPECT_FALSE(parse({"--fleet", "2", "--hedge", "nan"}, &err)
                     .has_value());
    EXPECT_TRUE(parse({"--fleet", "2", "--hedge", "0.99"}, &err)
                    .has_value())
        << err;
    EXPECT_TRUE(parse({"--fleet", "2", "--hedge", "0"}, &err)
                    .has_value())
        << err;
}

TEST(ServeOptions, RejectsNegativeCloudRttAndRetryBackoff)
{
    std::string err;
    EXPECT_FALSE(parse({"--fleet", "2", "--cloud", "o4-mini",
                        "--cloud-rtt", "-0.5"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--cloud-rtt"), std::string::npos) << err;
    EXPECT_NE(err.find("non-negative"), std::string::npos) << err;
    EXPECT_FALSE(parse({"--fleet", "2", "--retry-backoff", "-1"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--retry-backoff"), std::string::npos) << err;
    EXPECT_NE(err.find("non-negative"), std::string::npos) << err;
    EXPECT_FALSE(parse({"--fleet", "2", "--retry-backoff", "junk"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("not a number"), std::string::npos) << err;
}

TEST(ServeOptions, RejectsNonFiniteNumbers)
{
    // std::stod accepts "nan" and "inf", and NaN passes every
    // `x < min` bound: `--qps nan` and `--turn-gap nan` ran forever,
    // `--mean-out inf` reported sub-second latencies, and the rest
    // were accepted silently.
    const std::vector<std::vector<std::string>> cases = {
        {"--qps", "nan"},
        {"--sessions", "2", "--turn-gap", "nan"},
        {"--deadline", "nan"},
        {"--mean-in", "nan"},
        {"--fleet", "2", "--health-quantile", "nan"},
        {"--mean-out", "inf"},
        {"--qps", "inf"},
        {"--deadline", "-inf"},
        {"--fleet", "2", "--node-reboot", "infinity"},
        // The fleet handlers with worded bounds: an infinite backoff
        // or round trip used to pass their `x >= 0` test.
        {"--fleet", "2", "--retry-backoff", "inf"},
        {"--fleet", "2", "--hedge", "inf"},
        {"--fleet", "2", "--cloud", "o4-mini", "--cloud-rtt", "inf"},
        {"--fleet", "2", "--cloud", "o4-mini", "--cloud-rtt", "nan"},
    };
    for (const auto &args : cases) {
        const std::string &flag = args[args.size() - 2];
        SCOPED_TRACE(flag + " " + args.back());
        std::string err;
        EXPECT_FALSE(parseServeOptions(args, &err).has_value());
        EXPECT_NE(err.find(flag + " must be finite"), std::string::npos)
            << err;
    }
}

TEST(ServeOptions, RejectsMeanLengthsPastTheTokenRange)
{
    // `serve --requests 3 --mean-out 1e30` used to serve 8-token
    // requests: the sampled length overflowed llround and the result
    // was clamped to the minimum.  The means are now capped.
    for (const char *flag : {"--mean-in", "--mean-out"}) {
        SCOPED_TRACE(flag);
        std::string err;
        EXPECT_FALSE(
            parse({"--requests", "3", flag, "1e30"}, &err).has_value());
        EXPECT_NE(err.find(std::string(flag) + " must be in [1, 1e9]"),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("1e30"), std::string::npos) << err;
        EXPECT_TRUE(parse({"--requests", "3", flag, "1e9"}, &err)
                        .has_value())
            << err;
    }
}

TEST(ServeOptions, FleetFlagsNeedFleet)
{
    // Fleet-scoped flags are rejected outside a fleet run by name,
    // whatever their value: defaults and zeros included, which a
    // value test cannot tell apart from "not given".
    const std::pair<const char *, const char *> flags[] = {
        {"--router", "least"},      {"--hedge", "0.5"},
        {"--cloud", "o4-mini"},     {"--node-crash-rate", "3"},
        {"--retry", "5"},           {"--retry-backoff", "2"},
        {"--request-timeout", "3"}, {"--cloud-rtt", "0.3"},
        {"--node-reboot", "10"},    {"--node-degrade-mean", "5"},
        {"--hedge", "0"},           {"--node-crash-rate", "0"},
    };
    for (const auto &[flag, value] : flags) {
        SCOPED_TRACE(std::string(flag) + " " + value);
        std::string err;
        EXPECT_FALSE(parse({"--requests", "20", flag, value}, &err)
                         .has_value());
        EXPECT_NE(err.find("--fleet"), std::string::npos) << err;
        EXPECT_TRUE(parse({"--fleet", "2", flag, value}, &err)
                        .has_value())
            << err;
    }
}

TEST(ServeOptions, SessionScopedFlagsNeedSessions)
{
    std::string err;
    for (const char *flag : {"--turns-per-session", "--session-qps",
                             "--turn-gap", "--system-prompt"}) {
        SCOPED_TRACE(flag);
        EXPECT_FALSE(parse({flag, "4"}, &err).has_value());
        EXPECT_NE(err.find("--sessions"), std::string::npos) << err;
        EXPECT_TRUE(parse({"--sessions", "2", flag, "4"}, &err)
                        .has_value())
            << err;
    }
}

TEST(ServeOptions, FleetIndexFlagIsGone)
{
    // The next-stop index is the only fleet driver: nothing to switch.
    std::string err;
    EXPECT_FALSE(parse({"--fleet", "2", "--fleet-index", "off"}, &err)
                     .has_value());
    EXPECT_NE(err.find("unknown serve flag: --fleet-index"),
              std::string::npos)
        << err;
}

TEST(ServeOptions, StreamExcludesDurabilityAndJournals)
{
    // A streamed run holds only the next request, so it cannot write
    // a checkpoint (the fingerprint hashes the whole trace), resume,
    // crash-inject or keep recovery journals.
    std::string err;
    ASSERT_TRUE(parse({"--fleet", "2", "--stream"}, &err).has_value())
        << err;
    EXPECT_FALSE(parse({"--fleet", "2", "--stream", "--checkpoint-dir",
                        "/tmp/ck"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--stream excludes --checkpoint-dir"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("fingerprint needs the whole trace"),
              std::string::npos)
        << err;
    EXPECT_FALSE(parse({"--fleet", "2", "--stream", "--resume",
                        "/tmp/ck"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--stream excludes --checkpoint-dir/--resume"),
              std::string::npos)
        << err;

    // Crash injection: refused for want of a checkpoint directory,
    // and refused with one because --stream excludes it.
    EXPECT_FALSE(parse({"--fleet", "2", "--stream", "--crash-at-event",
                        "5"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("crash injection needs --checkpoint-dir"),
              std::string::npos)
        << err;
    EXPECT_FALSE(parse({"--fleet", "2", "--stream", "--crash-at-event",
                        "5", "--checkpoint-dir", "/tmp/ck"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--stream excludes"), std::string::npos) << err;
    EXPECT_FALSE(parse({"--fleet", "2", "--stream", "--crash-at-time",
                        "5"},
                       &err)
                     .has_value());

    EXPECT_FALSE(parse({"--fleet", "2", "--stream", "--fleet-journals",
                        "/tmp/j"},
                       &err)
                     .has_value());
    EXPECT_NE(err.find("--stream excludes --fleet-journals"),
              std::string::npos)
        << err;
}

TEST(ServeOptions, ApproxStatsIsAnUnknownFlag)
{
    // A streamed fleet reports exact percentiles: there is no P²
    // report mode to ask for.
    std::string err;
    EXPECT_FALSE(
        parse({"--fleet", "2", "--stream", "--approx-stats"}, &err)
            .has_value());
    EXPECT_NE(err.find("unknown serve flag: --approx-stats"),
              std::string::npos)
        << err;
}
