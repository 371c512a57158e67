/**
 * @file
 * Integration tests for the inference-engine simulator: calibrated TBT
 * and prefill latencies against the paper's measurements, batch
 * scaling, framework overheads, noise determinism, power modes and KV
 * exhaustion.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "engine/engine.hh"
#include "model/calibration.hh"
#include "model/zoo.hh"

namespace er = edgereason;
using namespace er::engine;
using er::model::ModelId;

namespace {

InferenceEngine
makeEngine(ModelId id, bool quant = false, EngineConfig cfg = {})
{
    cfg.measurementNoise = false;
    auto spec = quant ? er::model::quantizedSpec(id)
                      : er::model::spec(id);
    auto calib = er::model::calibration(
        id, quant ? er::DType::W4A16 : er::DType::FP16);
    return InferenceEngine(std::move(spec), calib, cfg);
}

/** One engine per cost-path variant: GPU, CPU, unpadded, DLA offload. */
std::vector<std::pair<std::string, InferenceEngine>>
engineVariants(ModelId id)
{
    std::vector<std::pair<std::string, InferenceEngine>> out;
    out.emplace_back("gpu", makeEngine(id));
    EngineConfig cpu;
    cpu.backend = er::hw::Backend::Cpu;
    out.emplace_back("cpu", makeEngine(id, false, cpu));
    EngineConfig unpadded;
    unpadded.kernelOpts.disablePadding = true;
    out.emplace_back("unpadded", makeEngine(id, false, unpadded));
    EngineConfig dla;
    dla.offloadFfnToDla = true;
    out.emplace_back("dla", makeEngine(id, true, dla));
    return out;
}

} // namespace

TEST(Engine, DecodeTbtMatchesPaper)
{
    // Text of Section IV-A + Tables X/XIX: TBT ~25 / ~105 / ~195 ms.
    EXPECT_NEAR(makeEngine(ModelId::Dsr1Qwen1_5B)
                    .decodeStepLatency(512), 0.025, 0.004);
    EXPECT_NEAR(makeEngine(ModelId::Dsr1Llama8B)
                    .decodeStepLatency(512), 0.102, 0.010);
    EXPECT_NEAR(makeEngine(ModelId::Dsr1Qwen14B)
                    .decodeStepLatency(512), 0.190, 0.015);
}

TEST(Engine, QuantizedDecodeSpeedup)
{
    // Table XIX: 73.6 / 25.9 / 15.1 tok/s for the W4 variants.
    EXPECT_NEAR(1.0 / makeEngine(ModelId::Dsr1Qwen1_5B, true)
                          .decodeStepLatency(512), 73.6, 12.0);
    EXPECT_NEAR(1.0 / makeEngine(ModelId::Dsr1Llama8B, true)
                          .decodeStepLatency(512), 25.9, 3.0);
    EXPECT_NEAR(1.0 / makeEngine(ModelId::Dsr1Qwen14B, true)
                          .decodeStepLatency(512), 15.1, 1.5);
}

TEST(Engine, PrefillLatencyMatchesTableXVI)
{
    // Table XVI GPU column at 128 tokens: 0.051 / 0.148 / 0.270 s.
    EXPECT_NEAR(makeEngine(ModelId::Dsr1Qwen1_5B).prefillLatency(128),
                0.051, 0.012);
    EXPECT_NEAR(makeEngine(ModelId::Dsr1Llama8B).prefillLatency(128),
                0.148, 0.035);
    EXPECT_NEAR(makeEngine(ModelId::Dsr1Qwen14B).prefillLatency(128),
                0.270, 0.060);
}

TEST(Engine, PrefillSteppedPattern)
{
    // Within a 128-token segment in the compute-bound regime, latency
    // plateaus; crossing the boundary jumps (Fig. 2).
    auto eng = makeEngine(ModelId::Dsr1Qwen14B);
    const double at_2049 = eng.prefillLatency(2049);
    const double at_2176 = eng.prefillLatency(2176);
    const double at_2177 = eng.prefillLatency(2177);
    EXPECT_NEAR(at_2049, at_2176, 0.02 * at_2176); // same segment
    EXPECT_GT(at_2177, at_2176 * 1.02);            // next segment
}

TEST(Engine, DecodeLatencyNearLinearInOutput)
{
    auto eng = makeEngine(ModelId::Dsr1Llama8B);
    const auto r256 = eng.run(512, 256);
    const auto r512 = eng.run(512, 512);
    EXPECT_NEAR(r512.decode.seconds / r256.decode.seconds, 2.0, 0.06);
}

TEST(Engine, TbtGrowsSlightlyWithContext)
{
    // Fig. 3b: ~3.1% TBT increase from I=1 to I=4k on the 8B.
    auto eng = makeEngine(ModelId::Dsr1Llama8B);
    const double t1 = eng.decodeStepLatency(1);
    const double t4k = eng.decodeStepLatency(4096);
    EXPECT_GT(t4k, t1);
    EXPECT_NEAR(t4k / t1, 1.031, 0.025);
}

TEST(Engine, BatchScalingRoughlyDoublesBySixtyFour)
{
    // Fig. 10a: about 2x decode latency from SF=1 to SF=64.
    auto eng = makeEngine(ModelId::Dsr1Qwen14B);
    const double t1 = eng.decodeStepLatency(640, 1);
    const double t64 = eng.decodeStepLatency(640, 64);
    EXPECT_NEAR(t64 / t1, 2.0, 0.35);
    // And the early steps are cheap (batch padding).
    const double t4 = eng.decodeStepLatency(640, 4);
    EXPECT_LT(t4 / t1, 1.25);
}

TEST(Engine, FrameworkOverheads)
{
    // Table IX: HF ~1.12x slower than vLLM; TRT-LLM within a few
    // percent, at I=64, O=128 on DSR1-Llama-8B.
    EngineConfig hf;
    hf.kind = EngineKind::HfTransformers;
    EngineConfig trt;
    trt.kind = EngineKind::TrtLlm;
    auto v = makeEngine(ModelId::Dsr1Llama8B);
    auto h = makeEngine(ModelId::Dsr1Llama8B, false, hf);
    auto t = makeEngine(ModelId::Dsr1Llama8B, false, trt);
    const double lv = v.run(64, 128).totalSeconds();
    const double lh = h.run(64, 128).totalSeconds();
    const double lt = t.run(64, 128).totalSeconds();
    EXPECT_NEAR(lh / lv, 1.12, 0.04);
    EXPECT_NEAR(lt / lv, 1.0, 0.05);
}

TEST(Engine, NoiseIsDeterministicPerSeed)
{
    EngineConfig cfg;
    cfg.measurementNoise = true;
    cfg.seed = 77;
    auto spec = er::model::spec(ModelId::Dsr1Qwen1_5B);
    auto calib = er::model::calibration(ModelId::Dsr1Qwen1_5B);
    InferenceEngine a(spec, calib, cfg);
    InferenceEngine b(spec, calib, cfg);
    const auto ra = a.run(256, 128);
    const auto rb = b.run(256, 128);
    EXPECT_DOUBLE_EQ(ra.totalSeconds(), rb.totalSeconds());
    EXPECT_DOUBLE_EQ(ra.totalEnergy(), rb.totalEnergy());
}

TEST(Engine, NoiseMagnitudeMatchesCalibration)
{
    EngineConfig cfg;
    cfg.measurementNoise = true;
    auto spec = er::model::spec(ModelId::Dsr1Llama8B);
    auto calib = er::model::calibration(ModelId::Dsr1Llama8B);
    InferenceEngine eng(spec, calib, cfg);
    er::RunningStats pf;
    for (int i = 0; i < 300; ++i)
        pf.add(eng.prefillOnly(512).seconds);
    // cv should approximate the calibrated prefill noise.
    EXPECT_NEAR(pf.stddev() / pf.mean(), calib.prefillNoiseCv, 0.04);
}

TEST(Engine, PowerDrawsWithinEnvelope)
{
    auto eng = makeEngine(ModelId::Dsr1Qwen14B);
    const auto r = eng.run(512, 512, 16);
    EXPECT_GT(r.decode.avgPower, 10.0);
    EXPECT_LE(r.decode.avgPower, 60.0);
    EXPECT_GT(r.prefill.avgPower, 5.0);
    EXPECT_NEAR(r.decode.energy,
                r.decode.avgPower * r.decode.seconds, 1e-6);
}

TEST(Engine, TbtTraceRecordsEveryStep)
{
    EngineConfig cfg;
    cfg.recordTbt = true;
    auto eng = makeEngine(ModelId::Dsr1Qwen1_5B, false, cfg);
    const auto r = eng.run(512, 200);
    ASSERT_EQ(r.tbtTrace.size(), 200u);
    // TBT is non-decreasing along the run (context grows).
    EXPECT_GE(r.tbtTrace.back(), r.tbtTrace.front());
}

TEST(Engine, WeightsMustFitInDram)
{
    // A hypothetical 40B model at FP16 exceeds the Orin's DRAM.
    auto spec = er::model::spec(ModelId::Dsr1Qwen14B);
    spec.layers *= 3;
    auto calib = er::model::calibration(ModelId::Dsr1Qwen14B);
    EXPECT_THROW(InferenceEngine(spec, calib, EngineConfig{}),
                 std::runtime_error);
}

TEST(Engine, KvExhaustionIsReported)
{
    // 14B FP16 leaves ~26 GB for KV; a batch-64 32k-context request
    // needs ~400 GB and must be rejected.
    auto eng = makeEngine(ModelId::Dsr1Qwen14B);
    EXPECT_THROW(eng.run(512, 32000, 64), std::runtime_error);
}

TEST(Engine, DecodePhaseDominates)
{
    // Takeaway #2: decode dominates >99% of latency for reasoning-scale
    // outputs.
    auto eng = makeEngine(ModelId::Dsr1Qwen14B);
    const auto r = eng.run(170, 1300);
    EXPECT_GT(r.decode.seconds / r.totalSeconds(), 0.99);
}

TEST(Engine, PrefixCachingCutsPrefillTime)
{
    for (ModelId id : er::model::allModels()) {
        for (auto &[name, eng] : engineVariants(id)) {
            SCOPED_TRACE(std::string(er::model::modelName(id)) + " " +
                         name);
            const double full = eng.prefillLatency(3000);
            const double cached = eng.prefillSuffixLatency(2800, 200);
            EXPECT_LT(cached, 0.3 * full);
            // A zero prefix is the plain prefill, bit for bit.
            EXPECT_EQ(eng.prefillSuffixLatency(0, 3000), full);
        }
    }
}

TEST(Engine, PrefillMemoWarmEqualsCold)
{
    // A memo hit (this thread's L1, after the first call filled it)
    // must return exactly what a fresh engine computes on its miss.
    auto warm = makeEngine(ModelId::Dsr1Llama8B);
    for (er::Tokens prefix : {0, 1, 127, 128, 2048}) {
        for (er::Tokens suffix : {1, 64, 129, 512, 3000}) {
            SCOPED_TRACE(std::to_string(prefix) + "+" +
                         std::to_string(suffix));
            const double cold = makeEngine(ModelId::Dsr1Llama8B)
                                    .prefillSuffixLatency(prefix, suffix);
            EXPECT_EQ(warm.prefillSuffixLatency(prefix, suffix), cold);
            EXPECT_EQ(warm.prefillSuffixLatency(prefix, suffix), cold);
        }
    }
}

TEST(Engine, EnginesNeverShareStepCostEntries)
{
    // Two live engines of different specs price the same keys on one
    // thread, interleaved; each must keep its own values.
    auto small = makeEngine(ModelId::Dsr1Qwen1_5B);
    auto large = makeEngine(ModelId::Dsr1Qwen14B);
    const double small_pf = makeEngine(ModelId::Dsr1Qwen1_5B)
                                .prefillSuffixLatency(256, 128);
    const double large_pf = makeEngine(ModelId::Dsr1Qwen14B)
                                .prefillSuffixLatency(256, 128);
    const double small_dc = makeEngine(ModelId::Dsr1Qwen1_5B)
                                .decodeStepLatency(512, 4);
    const double large_dc = makeEngine(ModelId::Dsr1Qwen14B)
                                .decodeStepLatency(512, 4);
    ASSERT_NE(small_pf, large_pf);
    ASSERT_NE(small_dc, large_dc);
    for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(small.prefillSuffixLatency(256, 128), small_pf);
        EXPECT_EQ(large.prefillSuffixLatency(256, 128), large_pf);
        EXPECT_EQ(small.decodeStepLatency(512, 4), small_dc);
        EXPECT_EQ(large.decodeStepLatency(512, 4), large_dc);
    }
}

TEST(Engine, DecodeMemoKeyKeepsLargeBatchesApart)
{
    // The decode key once packed only the low 16 bits of the batch, so
    // batch 65537 hit batch 1's entry on an engine that had priced it.
    const double cold =
        makeEngine(ModelId::Dsr1Qwen1_5B).decodeStepLatency(256, 65537);
    auto eng = makeEngine(ModelId::Dsr1Qwen1_5B);
    const double one = eng.decodeStepLatency(256, 1);
    EXPECT_EQ(eng.decodeStepLatency(256, 65537), cold);
    EXPECT_GT(cold, eng.decodeStepLatency(256, 65536));
    EXPECT_GT(cold, 100.0 * one);
}

TEST(Engine, StepCostMemoRejectsKeysOutsideItsRange)
{
    // Out-of-range inputs fail loudly instead of aliasing an entry.
    auto eng = makeEngine(ModelId::Dsr1Qwen1_5B);
    const er::Tokens rows = InferenceEngine::kMaxStepRows;
    EXPECT_GT(eng.decodeStepLatency(256, static_cast<int>(rows)), 0.0);
    EXPECT_THROW(eng.decodeStepLatency(256, static_cast<int>(rows) + 1),
                 std::runtime_error);
    EXPECT_THROW(eng.decodeStepLatency(256, -1), std::runtime_error);
    EXPECT_THROW(eng.prefillSuffixLatency(-1, 64), std::runtime_error);
    EXPECT_THROW(eng.prefillSuffixLatency(0, rows + 1),
                 std::runtime_error);
}

TEST(Engine, StepCostMemoIsBitIdenticalAcrossPoolThreads)
{
    // Sharded serving runs price one engine from several pool threads:
    // every thread's answer (L1 miss, shared hit or L1 hit) must equal
    // a single-thread fresh engine's bit for bit.
    struct Point
    {
        bool decode;
        er::Tokens a, b;
    };
    std::vector<Point> grid;
    for (er::Tokens ctx : {64, 512, 4096})
        for (er::Tokens batch : {1, 7, 128, 129})
            grid.push_back({true, ctx, batch});
    for (er::Tokens prefix : {0, 512, 1536})
        for (er::Tokens suffix : {1, 200, 512, 2000})
            grid.push_back({false, prefix, suffix});
    const auto price = [](const InferenceEngine &e, const Point &p) {
        return p.decode
            ? e.decodeStepLatency(p.a, static_cast<int>(p.b))
            : e.prefillSuffixLatency(p.a, p.b);
    };
    const auto fresh = makeEngine(ModelId::Dsr1Llama8B);
    std::vector<double> want;
    for (const Point &p : grid)
        want.push_back(price(fresh, p));

    const auto shared = makeEngine(ModelId::Dsr1Llama8B);
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPasses = 3;
    std::vector<std::vector<double>> got(
        kThreads * kPasses, std::vector<double>(grid.size()));
    er::ThreadPool pool(kThreads);
    pool.parallelFor(
        kThreads * kPasses,
        [&](std::size_t job) {
            // Each job walks the grid from its own offset so threads
            // race on different keys first.
            for (std::size_t k = 0; k < grid.size(); ++k) {
                const std::size_t i = (k + job * 5) % grid.size();
                got[job][i] = price(shared, grid[i]);
            }
        },
        1);
    for (std::size_t job = 0; job < got.size(); ++job)
        for (std::size_t i = 0; i < grid.size(); ++i)
            EXPECT_EQ(got[job][i], want[i]) << "job " << job << " point "
                                            << i;
}

TEST(Engine, W8A8SitsBetweenFp16AndW4OnLatency)
{
    EngineConfig cfg;
    cfg.measurementNoise = false;
    auto fp16 = makeEngine(ModelId::Dsr1Qwen14B);
    InferenceEngine w8(er::model::quantizedSpec8(ModelId::Dsr1Qwen14B),
                       er::model::calibration(ModelId::Dsr1Qwen14B,
                                              er::DType::INT8),
                       cfg);
    auto w4 = makeEngine(ModelId::Dsr1Qwen14B, true);
    const double t16 = fp16.decodeStepLatency(512);
    const double t8 = w8.decodeStepLatency(512);
    const double t4 = w4.decodeStepLatency(512);
    EXPECT_LT(t4, t8);
    EXPECT_LT(t8, t16);
    // Roughly the 2x weight shrink, derated by dequantization.
    EXPECT_NEAR(t16 / t8, 1.8, 0.3);
}

TEST(Engine, CheckpointIntegrationMatchesExactStepSum)
{
    // The engine integrates decode over ~17 context checkpoints; the
    // error versus summing every step's kernel-level cost must stay
    // well under the 0.5% measurement noise it coexists with.
    auto eng = makeEngine(ModelId::Dsr1Llama8B);
    const er::Tokens I = 512;
    const er::Tokens O = 700;
    const double integrated = eng.run(I, O).decode.seconds;
    double exact = 0.0;
    for (er::Tokens o = 0; o < O; ++o)
        exact += eng.decodeStepLatency(I + o);
    EXPECT_NEAR(integrated, exact, 0.002 * exact);
}

TEST(Engine, CpuBackendMatchesTableXvii)
{
    EngineConfig cfg;
    cfg.backend = er::hw::Backend::Cpu;
    auto eng = makeEngine(ModelId::Dsr1Llama8B, false, cfg);
    // Table XVII: 8B decode of 128 tokens takes 63.8 s on the CPU.
    const auto r = eng.run(512, 128);
    EXPECT_NEAR(r.decode.seconds, 63.8, 8.0);
}

TEST(Engine, StepCostL1DropsDestroyedEnginesEntries)
{
    // Each engine fills this thread's step-cost L1 with kLookups decode,
    // kLookups full-prefill and kLookups suffix-prefill entries.  After
    // it is destroyed, the next lookup by any engine must start from an
    // empty L1 instead of keeping the dead engine's entries until a map
    // reaches its bound.
    constexpr int kLookups = 50;
    for (int round = 0; round < 4; ++round) {
        const auto e = makeEngine(ModelId::Dsr1Qwen1_5B);
        for (int i = 0; i < kLookups; ++i) {
            e.decodeStepLatency(256 + i);
            e.prefillLatency(64 + i);
            e.prefillSuffixLatency(128 + i, 64);
        }
        EXPECT_EQ(InferenceEngine::threadStepCostL1Entries(),
                  3u * kLookups)
            << "round " << round;
    }
}

TEST(Engine, StepCostGoldens)
{
    // %.17g values recorded from the flat kernel-list pricing, before
    // the builders emitted layered programs.  They pin the paths no
    // other golden pins exactly: CPU-elementwise offload, DLA FFN
    // offload (W4A16), the CPU backend, unpadded kernels and every
    // power mode.  Columns: prefillLatency(2048),
    // prefillSuffixLatency(2048, 256), decodeStepLatency(512, b) for
    // b = 1, 4, 130 (below and above the 128-row batch tile).
    struct Variant
    {
        const char *name;
        bool quantized;
        EngineConfig cfg;
    };
    std::vector<Variant> variants;
    EngineConfig cfg;
    cfg.offloadElementwiseToCpu = true;
    variants.push_back({"cpu_offload", false, cfg});
    cfg = {};
    cfg.offloadFfnToDla = true;
    variants.push_back({"dla_offload", true, cfg});
    cfg = {};
    cfg.backend = er::hw::Backend::Cpu;
    variants.push_back({"cpu", false, cfg});
    cfg = {};
    cfg.kernelOpts.disablePadding = true;
    variants.push_back({"unpadded", false, cfg});
    for (const auto mode : {er::hw::PowerMode::W15, er::hw::PowerMode::W30,
                            er::hw::PowerMode::W50,
                            er::hw::PowerMode::MaxN}) {
        cfg = {};
        cfg.powerMode = mode;
        variants.push_back({er::hw::powerModeName(mode), false, cfg});
    }

    // One row per (variant, dsr1Family() model), in that order.
    const double want[][5] = {
        // cpu_offload
        {0.77593332071245857, 0.22346351519775062, 0.023930823275862066,
         0.027946331610851909, 0.060007432224246614},
        {3.3370116672525096, 0.89295652592564312, 0.097267386421319615,
         0.1143766120759495, 0.24313896472948565},
        {6.176942194479814, 1.6353771904338268, 0.1849934646596858,
         0.21728701178032769, 0.43168396889100197},
        // dla_offload
        {0.34404905815451742, 0.10515092547984563, 0.013087677222222215,
         0.015301173595442658, 0.058373783811654457},
        {0.82340482020072536, 0.21640218342955964, 0.036814995344827552,
         0.044333397088043486, 0.18180853498174485},
        {3.4181621628721768, 0.90691714550314839, 0.064475358333333052,
         0.077256823050627435, 0.28336124212853986},
        // cpu
        {137.05779185454517, 19.594602909090884, 0.10660158254545446,
         0.31161425454545522, 9.7847432727272601},
        {706.10369149090877, 94.734135709090864, 0.47323219878787898,
         1.4587704484848489, 47.036449575757608},
        {1334.8737069090894, 177.88068290909141, 0.87762398448484613,
         2.7151672727272662, 87.692316363636351},
        // unpadded
        {0.78375636071245758, 0.22505039519775077, 0.024630303275862072,
         0.02865876024912779, 0.061442101660346762},
        {3.3594305472525128, 0.89645188592564262, 0.098069946421319498,
         0.1152178789248073, 0.24610562288471602},
        {6.2182589944798217, 1.6415707904338295, 0.18618906465968563,
         0.21855445403767731, 0.43689626622457395},
        // 15W
        {2.4052001272264327, 0.65924398499297043, 0.067356197737068912,
         0.079945125778524403, 0.18239306768858382},
        {10.45336596016408, 2.7565576435176378, 0.29667658256662516,
         0.35026387164002099, 0.75928807151473965},
        {19.383940857749323, 5.0817902201057104, 0.56772232706151859,
         0.66886416886774147, 1.3511823319517884},
        // 30W
        {1.6441971078988473, 0.4554610110590443, 0.047303368672046965,
         0.055874553721548592, 0.12562634395818462},
        {7.1239219303245056, 1.883541799841794, 0.20346320515174399,
         0.23994816792512191, 0.51843272954195019},
        {13.204803562722994, 3.4671690860294206, 0.38865477587167108,
         0.45751730646314182, 0.9220743536693039},
        // 50W
        {1.024713948305868, 0.2895745199970407, 0.030979662205081662,
         0.036280263485694526, 0.07941623902677207},
        {4.4136376674375191, 1.1728762709547962, 0.12758424529121057,
         0.15014731437474596, 0.32236803011146997},
        {8.1747689927365155, 2.1528108295181974, 0.24288750613116569,
         0.28547354478641696, 0.57276540292706768},
        // MAXN
        {0.78375636071245758, 0.22505039519775077, 0.024630303275862072,
         0.02865876024912779, 0.061442101660346762},
        {3.3594305472525128, 0.89645188592564262, 0.098069946421319498,
         0.1152178789248073, 0.24610562288471602},
        {6.2182589944798217, 1.6415707904338295, 0.18618906465968563,
         0.21855445403767731, 0.43689626622457395},
    };
    const auto &family = er::model::dsr1Family();
    ASSERT_EQ(std::size(want), variants.size() * family.size());

    std::size_t row = 0;
    for (const auto &v : variants) {
        for (const ModelId id : family) {
            const auto eng = makeEngine(id, v.quantized, v.cfg);
            const double *w = want[row++];
            SCOPED_TRACE(std::string(v.name) + " " +
                         er::model::modelName(id));
            EXPECT_EQ(eng.prefillLatency(2048), w[0]);
            EXPECT_EQ(eng.prefillSuffixLatency(2048, 256), w[1]);
            EXPECT_EQ(eng.decodeStepLatency(512, 1), w[2]);
            EXPECT_EQ(eng.decodeStepLatency(512, 4), w[3]);
            EXPECT_EQ(eng.decodeStepLatency(512, 130), w[4]);
        }
    }
}

TEST(Engine, UnpaddedPrefillGoldens)
{
    // StepCostGoldens' shapes are tile multiples or bandwidth bound, so
    // padded and unpadded kernels price them alike.  A 2000-token
    // prefill is compute bound and pads to 2048: pin both sides
    // (%.17g, recorded from the flat kernel-list pricing), in
    // dsr1Family() order.
    const double padded[] = {0.78358932071245924, 3.3589236672525153,
                             6.2173181944798062};
    const double unpadded[] = {0.75098085733801645, 3.2175682474583067,
                               5.9552693548831552};
    const auto &family = er::model::dsr1Family();
    ASSERT_EQ(std::size(padded), family.size());
    for (std::size_t i = 0; i < family.size(); ++i) {
        SCOPED_TRACE(er::model::modelName(family[i]));
        EngineConfig cfg;
        EXPECT_EQ(makeEngine(family[i], false, cfg).prefillLatency(2000),
                  padded[i]);
        cfg.kernelOpts.disablePadding = true;
        EXPECT_EQ(makeEngine(family[i], false, cfg).prefillLatency(2000),
                  unpadded[i]);
    }
}
