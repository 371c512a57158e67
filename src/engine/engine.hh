/**
 * @file
 * The inference engine simulator.  Plays the role of vLLM on the Orin:
 * it owns the model weights and the paged KV cache, enumerates kernels
 * per phase, executes them on the SoC device model, integrates power
 * over time into energy, and returns per-request measurements that the
 * characterization and model-fitting pipelines consume exactly as the
 * paper's profiler consumes hardware counters.
 *
 * Decode latency is affine in the context length (KV term), so the
 * engine evaluates full kernel-level step costs at a bounded number of
 * context checkpoints and integrates trapezoidally between them instead
 * of enumerating kernels for every one of possibly thousands of steps.
 */

#ifndef EDGEREASON_ENGINE_ENGINE_HH
#define EDGEREASON_ENGINE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "engine/engine_kind.hh"
#include "engine/kernels.hh"
#include "engine/kv_cache.hh"
#include "hw/soc.hh"
#include "model/calibration.hh"
#include "model/transformer_spec.hh"

namespace edgereason {
namespace engine {

/** Aggregate measurements of one phase of one request. */
struct PhaseMetrics
{
    Seconds seconds = 0.0;
    Joules energy = 0.0;
    Watts avgPower = 0.0;
    Tokens tokens = 0;      //!< tokens processed (prefill) / generated
    double bwUtil = 0.0;    //!< time-weighted DRAM utilization
    double computeUtil = 0.0;
};

/** Full measurements of one inference request. */
struct RequestResult
{
    PhaseMetrics prefill;
    PhaseMetrics decode;
    Tokens inputTokens = 0;
    Tokens outputTokens = 0; //!< per sample
    int batch = 1;           //!< parallel scaling factor

    /** @return end-to-end latency. */
    Seconds totalSeconds() const { return prefill.seconds + decode.seconds; }
    /** @return total energy. */
    Joules totalEnergy() const { return prefill.energy + decode.energy; }
    /** Optional per-step time-between-tokens trace (Fig. 3b). */
    std::vector<Seconds> tbtTrace;
};

/** Engine construction options. */
struct EngineConfig
{
    EngineKind kind = EngineKind::Vllm;
    hw::Backend backend = hw::Backend::Gpu;
    hw::PowerMode powerMode = hw::PowerMode::MaxN;
    KernelBuildOptions kernelOpts;
    /** Inject calibrated run-to-run measurement noise. */
    bool measurementNoise = true;
    /** Root seed for the noise streams. */
    std::uint64_t seed = 0xEDDE;
    /** Record a per-step TBT trace in RequestResult. */
    bool recordTbt = false;
    /** Decode checkpoints for trapezoidal integration. */
    int decodeCheckpoints = 17;
    /**
     * Section-VI heterogeneous mode: run elementwise kernels (norms,
     * activations, embedding/sampling glue) on the idle Cortex-A78AE
     * cluster, overlapped with the GPU matmuls.  Step time becomes
     * max(GPU matmul time, CPU elementwise time).
     */
    bool offloadElementwiseToCpu = false;
    /**
     * Section-VI what-if: run the FFN matmuls on the idle NVDLA
     * complex, overlapped with the GPU's attention/projection work.
     * Requires INT8 weights (quantized models); the engine rejects
     * the flag on FP16 models.  The shared LPDDR5 bus is modelled as
     * a hard floor: overlap can never beat total-bytes / peak-BW.
     */
    bool offloadFfnToDla = false;
};

/** Hit/miss counters of the engine's step-cost memo cache. */
struct KernelCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/**
 * vLLM-like single-model inference engine over the SoC simulator.
 *
 * Kernel-level step costs are pure functions of the step for a fixed
 * spec and config — (context, batch) for decode, (cached prefix,
 * suffix) for prefill — and the sweep and serving layers price the
 * same steps over and over (the two-point batch TBT solve, the
 * trapezoidal decode checkpoints of repeated request shapes, every
 * chunk of every chunked or prefix-cached prefill), so the engine
 * memoizes both phases exactly in one step-cost memo.  It is the only
 * step-cost cache in the stack: it changes no numerical result, only
 * skips re-pricing identical kernel programs.  A miss prices one
 * transformer layer's kernels once and replays them (hw::replay()).
 *
 * Thread-safety: the const query surface (decodeStepLatency,
 * prefillLatency, prefillSuffixLatency, spec/calib accessors) is safe
 * to call from concurrent sweep workers; run() and prefillOnly()
 * mutate the RNG noise streams and the KV cache and must stay
 * single-threaded per engine.
 */
class InferenceEngine
{
  public:
    /**
     * Largest row count one step may process: a decode batch or a
     * prefill suffix.  The step-cost memo packs it into 24 bits of its
     * key and rejects larger values; option parsers bound batch-valued
     * flags by it.
     */
    static constexpr Tokens kMaxStepRows = (Tokens{1} << 24) - 1;

    /**
     * Load a model onto the SoC.
     *
     * @param spec  architecture (dtype selects FP16 vs W4A16 kernels)
     * @param calib  matching calibration (see model::calibration())
     * @param config  engine options
     * @throws std::runtime_error if the weights do not fit in DRAM
     */
    InferenceEngine(model::TransformerSpec spec,
                    model::ModelCalibration calib,
                    EngineConfig config = {});
    ~InferenceEngine();
    InferenceEngine(InferenceEngine &&) noexcept;
    InferenceEngine &operator=(InferenceEngine &&) noexcept;

    /**
     * Run one request: prefill @p input_tokens at batch 1, then decode
     * @p output_tokens steps at batch @p batch (the paper's parallel
     * scaling scheme, Section V-E).
     *
     * @throws std::runtime_error if the KV cache cannot hold the request
     */
    RequestResult run(Tokens input_tokens, Tokens output_tokens,
                      int batch = 1);

    /** Measure prefill alone. */
    PhaseMetrics prefillOnly(Tokens input_tokens);

    /**
     * Noiseless kernel-level TBT at a context length (used by trace
     * checkpoints, tests, and the performance-model ground truth).
     */
    Seconds decodeStepLatency(Tokens context, int batch = 1) const;

    /** Noiseless kernel-level prefill latency: the zero-prefix
     *  prefillSuffixLatency(). */
    Seconds prefillLatency(Tokens input_tokens) const;

    /**
     * Noiseless prefill latency when the first @p cached_prefix
     * tokens are already in the KV cache (prefix caching, chunked
     * prefill): only the @p suffix_tokens suffix is processed.
     */
    Seconds prefillSuffixLatency(Tokens cached_prefix,
                                 Tokens suffix_tokens) const;

    /** @return bytes of DRAM occupied by weights. */
    Bytes weightFootprint() const;
    /** @return DRAM budget left for the KV cache. */
    Bytes kvBudget() const;

    /** @return the architecture. */
    const model::TransformerSpec &spec() const { return spec_; }
    /** @return the calibration in use. */
    const model::ModelCalibration &calib() const { return calib_; }
    /** @return the engine configuration. */
    const EngineConfig &config() const { return config_; }
    /** @return the SoC model. */
    const hw::JetsonOrin &soc() const { return soc_; }
    /** @return the KV cache (for inspection in tests). */
    const KvCache &kvCache() const { return kv_; }

    /** @return step-cost memo cache counters (bench/test support). */
    KernelCacheStats kernelCacheStats() const;

    /**
     * @return entries in the calling thread's step-cost L1 across all
     *   engines (test support: a destroyed engine's entries must not
     *   outlive the thread's next lookup).
     */
    static std::size_t threadStepCostL1Entries();

  private:
    struct StepCostCache; //!< defined in engine.cc

    /** The part of a step's hw::StepCost the engine reads, and all
     *  that its step-cost memo stores. */
    struct StepTime
    {
        Seconds seconds;
        double avgBwUtil;
        double avgComputeUtil;
    };

    StepTime decodeStepCost(Tokens context, int batch) const;
    StepTime prefillCost(Tokens cached_prefix,
                         Tokens suffix_tokens) const;
    hw::StepCost executeKernels(const hw::KernelProgram &program) const;
    double noiseFactor(double cv, Rng &rng) const;

    model::TransformerSpec spec_;
    model::ModelCalibration calib_;
    EngineConfig config_;
    hw::JetsonOrin soc_;
    KvCache kv_;
    EngineOverhead overhead_;
    Rng rng_;
    std::unique_ptr<StepCostCache> costCache_;
};

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_ENGINE_HH
