/**
 * @file
 * Tests for the continuous-batching serving simulator: conservation,
 * batching economics (Section III-B), queueing behaviour under load,
 * and KV-memory admission control.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "engine/server.hh"
#include "model/calibration.hh"
#include "model/zoo.hh"

namespace er = edgereason;
using namespace er::engine;
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

std::vector<ServerRequest>
uniformTrace(std::size_t n, double interval, er::Tokens in,
             er::Tokens out)
{
    std::vector<ServerRequest> t;
    for (std::size_t i = 0; i < n; ++i)
        t.push_back({interval * static_cast<double>(i), in, out});
    return t;
}

} // namespace

TEST(Server, CompletesEveryRequest)
{
    auto eng = makeEngine();
    ServingSimulator srv(eng);
    const auto rep = srv.run(uniformTrace(20, 1.0, 128, 64));
    EXPECT_EQ(rep.completed, 20u);
    EXPECT_EQ(srv.served().size(), 20u);
    EXPECT_GT(rep.makespan, 0.0);
    EXPECT_GT(rep.totalEnergy, 0.0);
    // Every request's latency covers at least its own service time.
    for (const auto &s : srv.served()) {
        EXPECT_GE(s.queueDelay, -1e-9);
        EXPECT_GT(s.serviceTime, 0.0);
    }
}

TEST(Server, SingleRequestMatchesEngineRun)
{
    auto eng = makeEngine();
    ServingSimulator srv(eng);
    const auto rep = srv.run({{0.0, 512, 128}});
    const auto direct = eng.run(512, 128);
    // Serving adds no queueing for a lone request; latency matches the
    // engine within checkpoint-vs-step integration error.
    EXPECT_NEAR(rep.meanLatency, direct.totalSeconds(),
                0.05 * direct.totalSeconds());
}

TEST(Server, BatchingAmortizesEnergyPerQuery)
{
    // Section III-B: batching cuts cost per query dramatically.
    auto eng = makeEngine();
    ServingSimulator srv(eng);
    // Sequential load: requests spaced far apart (no batching).
    const auto seq = srv.run(uniformTrace(16, 100.0, 120, 512));
    // Burst load: all at once (full batching).
    const auto burst = srv.run(uniformTrace(16, 0.0, 120, 512));
    EXPECT_GT(seq.energyPerQuery / burst.energyPerQuery, 2.0);
    EXPECT_GT(burst.avgBatch, 8.0);
    EXPECT_LT(seq.avgBatch, 1.2);
}

TEST(Server, ThroughputSaturatesWithLoad)
{
    auto eng = makeEngine();
    ServingSimulator srv(eng);
    er::Rng rng(5);
    const auto low = srv.run(ServingSimulator::poissonTrace(
        rng, 40, 0.02, 128, 256));
    er::Rng rng2(5);
    const auto high = srv.run(ServingSimulator::poissonTrace(
        rng2, 40, 5.0, 128, 256));
    // At low load, throughput ~ offered load; at high load it
    // saturates below the offered 5 QPS and queueing appears.
    EXPECT_NEAR(low.throughputQps, 0.02, 0.005);
    EXPECT_LT(high.throughputQps, 5.0);
    EXPECT_GT(high.p95Latency, low.p95Latency);
    EXPECT_GT(high.avgBatch, low.avgBatch);
}

TEST(Server, RespectsMaxBatch)
{
    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.maxBatch = 2;
    ServingSimulator srv(eng, cfg);
    const auto rep = srv.run(uniformTrace(12, 0.0, 64, 256));
    EXPECT_LE(rep.avgBatch, 2.0 + 1e-9);
    EXPECT_EQ(rep.completed, 12u);
}

TEST(Server, KvMemoryLimitsAdmission)
{
    // The 14B leaves ~26 GB of KV: ~138k tokens.  32k-token requests
    // can only run a few at a time.
    EngineConfig ecfg;
    ecfg.measurementNoise = false;
    InferenceEngine eng(er::model::spec(ModelId::Dsr1Qwen14B),
                        er::model::calibration(ModelId::Dsr1Qwen14B),
                        ecfg);
    EXPECT_LE(ServingSimulator::maxBatchForMemory(eng, 512, 31000), 5);
    ServingSimulator srv(eng);
    const auto rep = srv.run(uniformTrace(6, 0.0, 512, 31000));
    EXPECT_EQ(rep.completed, 6u);
    EXPECT_LT(rep.avgBatch, 4.5);
}

TEST(Server, MaxBatchForMemoryExtremes)
{
    auto eng = makeEngine();
    // Zero-length sequences hold no KV: they fit trivially (1), and
    // must not divide by zero.
    EXPECT_EQ(ServingSimulator::maxBatchForMemory(eng, 0, 0), 1);
    // A sequence beyond the whole budget fits zero times -- the old
    // "round up to 1" answer hid an impossible configuration.
    const er::Tokens over =
        static_cast<er::Tokens>(eng.kvBudget() /
                                eng.spec().kvBytesPerToken()) + 1000;
    EXPECT_EQ(ServingSimulator::maxBatchForMemory(eng, over, 0), 0);
    EXPECT_EQ(ServingSimulator::maxBatchForMemory(eng, 0, over), 0);
    // Just inside the budget still fits exactly once.
    const er::Tokens under =
        static_cast<er::Tokens>(eng.kvBudget() /
                                eng.spec().kvBytesPerToken()) - 1000;
    EXPECT_EQ(ServingSimulator::maxBatchForMemory(eng, under, 0), 1);
}

TEST(Server, OversizedRequestFails)
{
    auto eng = makeEngine();
    ServingSimulator srv(eng);
    // A single request beyond the whole KV budget must be rejected
    // loudly rather than looping forever.
    const er::Tokens impossible =
        static_cast<er::Tokens>(eng.kvBudget() /
                                eng.spec().kvBytesPerToken()) + 1000;
    EXPECT_THROW(srv.run({{0.0, 128, impossible}}),
                 std::runtime_error);
}

TEST(Server, ChunkedPrefillPreservesWorkAndHelpsTails)
{
    // A stream of short requests with occasional very long prompts:
    // without chunking, every long prefill stalls the whole decode
    // batch; with chunking the stall is bounded per step.
    std::vector<ServerRequest> trace;
    for (int i = 0; i < 30; ++i) {
        trace.push_back({0.2 * i, 128, 128});
        if (i % 10 == 5)
            trace.push_back({0.2 * i + 0.01, 8000, 32});
    }

    auto eng = makeEngine(ModelId::Dsr1Llama8B);
    ServingSimulator plain(eng);
    const auto rep_plain = plain.run(trace);

    ServerConfig cfg;
    cfg.prefillChunk = 512;
    ServingSimulator chunked(eng, cfg);
    const auto rep_chunked = chunked.run(trace);

    EXPECT_EQ(rep_plain.completed, trace.size());
    EXPECT_EQ(rep_chunked.completed, trace.size());
    // Short requests' p95 must not regress materially when long
    // prefills are chunked.  Chunk costs are priced with
    // prefillSuffixLatency (attention over the cached prefix plus a
    // per-chunk overhead), so on a trace this saturated chunking adds
    // a few percent of total prefill work; the tail *win* shows on
    // traces with decode cohorts in flight and idle slack
    // (test_scheduler.cc's ChunkedPrefill cases).
    std::vector<double> short_plain, short_chunked;
    for (const auto &s : plain.served()) {
        if (s.request.inputTokens <= 128)
            short_plain.push_back(s.latency());
    }
    for (const auto &s : chunked.served()) {
        if (s.request.inputTokens <= 128)
            short_chunked.push_back(s.latency());
    }
    EXPECT_LT(er::percentile(short_chunked, 95.0),
              er::percentile(short_plain, 95.0) * 1.05);
}

TEST(Server, PriorityClassesJumpTheQueue)
{
    // Saturate the server with background work, then inject one
    // urgent request: it must be served far sooner than same-arrival
    // background requests.
    auto eng = makeEngine(ModelId::Dsr1Llama8B);
    ServerConfig cfg;
    cfg.maxBatch = 2; // keep the queue long
    ServingSimulator srv(eng, cfg);

    std::vector<ServerRequest> trace;
    for (int i = 0; i < 20; ++i)
        trace.push_back({0.0, 128, 512, 0}); // background backlog
    trace.push_back({5.0, 64, 64, /*priority=*/5}); // urgent

    const auto rep = srv.run(trace);
    EXPECT_EQ(rep.completed, trace.size());
    double urgent_latency = -1.0;
    std::vector<double> background;
    for (const auto &s : srv.served()) {
        if (s.request.priority > 0)
            urgent_latency = s.latency();
        else
            background.push_back(s.latency());
    }
    ASSERT_GT(urgent_latency, 0.0);
    // The urgent request beats the median background request.
    EXPECT_LT(urgent_latency, er::percentile(background, 50.0) * 0.5);
}

TEST(Server, FifoWithinPriorityClass)
{
    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.maxBatch = 1;
    ServingSimulator srv(eng, cfg);
    std::vector<ServerRequest> trace;
    for (int i = 0; i < 6; ++i)
        trace.push_back({0.01 * i, 64, 64, 0});
    srv.run(trace);
    // Completion order respects arrival order within one class.
    for (std::size_t i = 1; i < srv.served().size(); ++i) {
        EXPECT_LE(srv.served()[i - 1].request.arrival,
                  srv.served()[i].request.arrival);
    }
}

TEST(Server, PoissonTraceIsDeterministicAndSorted)
{
    er::Rng a(9), b(9);
    const auto ta = ServingSimulator::poissonTrace(a, 50, 1.0, 100,
                                                   200);
    const auto tb = ServingSimulator::poissonTrace(b, 50, 1.0, 100,
                                                   200);
    ASSERT_EQ(ta.size(), 50u);
    for (std::size_t i = 0; i < ta.size(); ++i) {
        EXPECT_DOUBLE_EQ(ta[i].arrival, tb[i].arrival);
        if (i) {
            EXPECT_GE(ta[i].arrival, ta[i - 1].arrival);
        }
    }
}
