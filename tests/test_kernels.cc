/**
 * @file
 * Unit tests for kernel enumeration: tile padding (the Fig. 2 stepped
 * pattern), FLOP/byte bookkeeping, batch padding (Section V-E), and
 * layered-program replay against flat per-kernel pricing.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/kernels.hh"
#include "hw/soc.hh"
#include "model/model_id.hh"
#include "model/zoo.hh"

namespace er = edgereason;
using namespace er::engine;
using er::model::ModelId;

TEST(PadToTile, RoundsUp)
{
    EXPECT_EQ(padToTile(1, 128), 128);
    EXPECT_EQ(padToTile(128, 128), 128);
    EXPECT_EQ(padToTile(129, 128), 256);
    EXPECT_EQ(padToTile(0, 128), 0);
}

TEST(PrefillKernels, FlopsMatchArchitecture)
{
    const auto s = er::model::spec(ModelId::Dsr1Llama8B);
    const auto ks = prefillKernels(s, 1024);
    // Linear FLOPs ~ 2 * non-embedding params * padded tokens, plus
    // attention and one LM-head position.
    double linear = 0.0;
    double attn = 0.0;
    for (const auto &k : ks) {
        if (k.cls == er::hw::KernelClass::GemmTensorCore)
            linear += k.flops;
        if (k.cls == er::hw::KernelClass::AttentionPrefill)
            attn += k.flops;
    }
    EXPECT_NEAR(attn, s.attentionPrefillFlops(1024), 1.0);
    EXPECT_GT(linear, 2.0 * 6.9e9 * 1024);
    EXPECT_LT(linear, 2.0 * 8.1e9 * 1024);
}

TEST(PrefillKernels, PaddingCreatesPlateaus)
{
    const auto s = er::model::spec(ModelId::Dsr1Qwen14B);
    // Within one 128-token segment the tensor-core compute FLOPs are
    // identical (elementwise kernels track the true row count).
    const auto padded_flops = [](const std::vector<er::hw::KernelDesc>
                                     &ks) {
        double f = 0.0;
        for (const auto &k : ks) {
            if (k.cls == er::hw::KernelClass::GemmTensorCore ||
                k.cls == er::hw::KernelClass::AttentionPrefill)
                f += k.flops;
        }
        return f;
    };
    const auto a = prefillKernels(s, 129);
    const auto b = prefillKernels(s, 256);
    EXPECT_DOUBLE_EQ(padded_flops(a), padded_flops(b));
    // Crossing the boundary jumps.
    const auto c = prefillKernels(s, 257);
    EXPECT_GT(padded_flops(c), padded_flops(b));
    // Activations still track the true token count.
    EXPECT_LT(totalBytes(a), totalBytes(b));
}

TEST(PrefillKernels, DisablePaddingRemovesPlateaus)
{
    const auto s = er::model::spec(ModelId::Dsr1Qwen14B);
    KernelBuildOptions opts;
    opts.disablePadding = true;
    const auto a = prefillKernels(s, 129, opts);
    const auto b = prefillKernels(s, 256, opts);
    EXPECT_LT(totalFlops(a), totalFlops(b));
}

TEST(PrefillKernels, RejectsOversizedContext)
{
    const auto s = er::model::spec(ModelId::Gemma7BIt); // 8k context
    EXPECT_THROW(prefillKernels(s, 100000), std::runtime_error);
    EXPECT_THROW(prefillKernels(s, 0), std::runtime_error);
}

TEST(DecodeKernels, WeightBytesStreamWholeModelOncePerStep)
{
    const auto s = er::model::spec(ModelId::Dsr1Llama8B);
    const auto ks = decodeKernels(s, 512);
    double weights = 0.0;
    for (const auto &k : ks)
        weights += k.weightBytes;
    // Layer weights + LM head (embedding lookup excluded): ~15 GB.
    EXPECT_NEAR(weights / 1e9, 15.0, 0.3);
}

TEST(DecodeKernels, KvTrafficScalesWithContextAndBatch)
{
    const auto s = er::model::spec(ModelId::Dsr1Qwen14B);
    const auto bytes_at = [&](er::Tokens ctx, int batch) {
        double kv = 0.0;
        for (const auto &k : decodeKernels(s, ctx, batch)) {
            if (k.cls == er::hw::KernelClass::AttentionDecode)
                kv += k.actBytes;
        }
        return kv;
    };
    EXPECT_NEAR(bytes_at(1024, 1) / bytes_at(512, 1), 2.0, 1e-6);
    EXPECT_NEAR(bytes_at(512, 8) / bytes_at(512, 1), 8.0, 1e-6);
    // Absolute value: context x kvBytesPerToken.
    EXPECT_NEAR(bytes_at(512, 1), 512.0 * s.kvBytesPerToken(), 1.0);
}

TEST(DecodeKernels, BatchPaddingMakesComputeFlatBelowTile)
{
    const auto s = er::model::spec(ModelId::Dsr1Llama8B);
    // GEMV compute FLOPs are padded to the 128-wide batch tile, so
    // they are identical for batch 1 and batch 64 (Section V-E).
    const auto flops_of = [&](int batch) {
        double f = 0.0;
        for (const auto &k : decodeKernels(s, 512, batch)) {
            if (k.cls == er::hw::KernelClass::GemvBandwidth)
                f += k.flops;
        }
        return f;
    };
    EXPECT_DOUBLE_EQ(flops_of(1), flops_of(64));
    EXPECT_DOUBLE_EQ(flops_of(1), flops_of(128));
    EXPECT_GT(flops_of(129), flops_of(128));
}

TEST(PrefillSuffixKernels, ZeroPrefixEqualsFullPrefill)
{
    const auto s = er::model::spec(ModelId::Dsr1Llama8B);
    const auto full = prefillKernels(s, 512);
    const auto suffix = prefillSuffixKernels(s, 0, 512);
    ASSERT_EQ(full.size(), suffix.size());
    EXPECT_DOUBLE_EQ(totalFlops(full), totalFlops(suffix));
}

TEST(PrefillSuffixKernels, AttentionCoversFullContext)
{
    const auto s = er::model::spec(ModelId::Dsr1Llama8B);
    const auto ks = prefillSuffixKernels(s, 2048, 256);
    double attn_flops = 0.0;
    double linear_flops = 0.0;
    for (const auto &k : ks) {
        if (k.cls == er::hw::KernelClass::AttentionPrefill)
            attn_flops += k.flops;
        if (k.cls == er::hw::KernelClass::GemmTensorCore)
            linear_flops += k.flops;
    }
    // Attention work = causal(2304) - causal(2048).
    EXPECT_NEAR(attn_flops,
                s.attentionPrefillFlops(2304) -
                    s.attentionPrefillFlops(2048),
                1.0);
    // Linear work covers only the (padded) suffix rows.
    double suffix_linear = 0.0;
    for (const auto &k : prefillKernels(s, 256)) {
        if (k.cls == er::hw::KernelClass::GemmTensorCore)
            suffix_linear += k.flops;
    }
    EXPECT_DOUBLE_EQ(linear_flops, suffix_linear);
}

TEST(PrefillSuffixKernels, RespectsContextLimit)
{
    const auto s = er::model::spec(ModelId::Gemma7BIt); // 8k max
    EXPECT_THROW(prefillSuffixKernels(s, 8000, 300),
                 std::runtime_error);
}

TEST(DecodeKernels, RejectsBadArguments)
{
    const auto s = er::model::spec(ModelId::Dsr1Qwen1_5B);
    EXPECT_THROW(decodeKernels(s, 0), std::runtime_error);
    EXPECT_THROW(decodeKernels(s, 512, 0), std::runtime_error);
    EXPECT_THROW(decodeKernels(s, 1 << 20), std::runtime_error);
}

namespace {

/** The flat reference: price every launched kernel, in launch order. */
template <typename Device>
er::hw::StepCost
executeAll(const Device &device,
           const std::vector<er::hw::KernelDesc> &kernels)
{
    er::hw::StepCost total;
    for (const auto &k : kernels)
        total.add(k, device.execute(k));
    total.finalize();
    return total;
}

void
expectSameCost(const er::hw::StepCost &got, const er::hw::StepCost &want)
{
    EXPECT_EQ(got.seconds, want.seconds);
    EXPECT_EQ(got.avgBwUtil, want.avgBwUtil);
    EXPECT_EQ(got.avgComputeUtil, want.avgComputeUtil);
    EXPECT_EQ(got.weightBytes, want.weightBytes);
    EXPECT_EQ(got.actBytes, want.actBytes);
    EXPECT_EQ(got.flops, want.flops);
}

} // namespace

TEST(KernelProgram, ReplayEqualsFlatPricing)
{
    // Pricing one layer and replaying it must be bit-identical to
    // pricing the expanded kernel list kernel by kernel, on every
    // device and power mode; decode runs below and above the batch
    // tile.
    using er::hw::Backend;
    using er::hw::PowerMode;
    const int tile = KernelBuildOptions{}.batchTile;
    for (const ModelId id : er::model::allModels()) {
        const auto spec = er::model::spec(id);
        const std::pair<std::string, er::hw::KernelProgram> programs[] = {
            {"prefill", prefillProgram(spec, 1000)},
            {"suffix prefill", prefillSuffixProgram(spec, 1024, 300)},
            {"decode", decodeProgram(spec, 512, tile - 1)},
            {"decode above tile", decodeProgram(spec, 512, tile + 2)},
        };
        for (const auto mode : {PowerMode::W15, PowerMode::W30,
                                PowerMode::W50, PowerMode::MaxN}) {
            const er::hw::JetsonOrin soc(mode);
            for (const auto &[what, program] : programs) {
                SCOPED_TRACE(std::string(er::model::modelName(id)) +
                             " " + what + " " +
                             er::hw::powerModeName(mode));
                const auto flat = program.expand();
                ASSERT_EQ(flat.size(),
                          8 * static_cast<std::size_t>(spec.layers) + 3);
                ASSERT_EQ(program.size(), flat.size());
                expectSameCost(er::hw::replay(soc.gpu(), program),
                               executeAll(soc.gpu(), flat));
                expectSameCost(er::hw::replay(soc.cpu(), program),
                               executeAll(soc.cpu(), flat));
                expectSameCost(er::hw::replay(soc.dla(), program),
                               executeAll(soc.dla(), flat));
                for (const auto backend : {Backend::Gpu, Backend::Cpu}) {
                    expectSameCost(soc.execute(backend, program),
                                   soc.execute(backend, flat));
                }
            }
        }
    }
}

TEST(KernelProgram, ExpandLaysOutHeadLayersTail)
{
    const auto spec = er::model::spec(ModelId::Dsr1Qwen1_5B);
    const auto program = decodeProgram(spec, 512, 4);
    const auto flat = program.expand();
    ASSERT_EQ(program.head.size(), 1u);
    ASSERT_EQ(program.body.size(), 8u);
    ASSERT_EQ(program.tail.size(), 2u);
    EXPECT_EQ(program.layers, spec.layers);
    EXPECT_EQ(flat.front().name, "embed");
    for (int l = 0; l < spec.layers; ++l) {
        for (std::size_t i = 0; i < program.body.size(); ++i)
            EXPECT_EQ(flat[1 + 8 * l + i].name, program.body[i].name);
    }
    EXPECT_EQ(flat[flat.size() - 2].name, "final_norm");
    EXPECT_EQ(flat.back().name, "lm_head");
    EXPECT_EQ(decodeKernels(spec, 512, 4).size(), flat.size());
}
