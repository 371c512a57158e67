/**
 * @file
 * Roofline execution model for the edge GPU.  Kernel time is the maximum
 * of its compute time and its memory-streaming time, each derated by a
 * per-kernel-class efficiency factor, plus a fixed launch overhead.  The
 * efficiency factors are the only calibrated quantities; all FLOP and byte
 * counts come from the transformer architecture itself (see
 * engine/kernels.hh), so scaling behaviour with model size, sequence
 * length and batch is structural.
 */

#ifndef EDGEREASON_HW_ROOFLINE_HH
#define EDGEREASON_HW_ROOFLINE_HH


#include "hw/gpu_spec.hh"
#include "hw/kernel.hh"

namespace edgereason {
namespace hw {

/**
 * Derating factors for the roofline model.  Values are calibrated once so
 * the simulator's ground truth matches the latency coefficients the paper
 * fitted on real Orin hardware (Tables IV and V); see
 * model/calibration.cc for the per-model values and their provenance.
 */
struct GpuEfficiency
{
    /** Tensor-core GEMM efficiency (fraction of peak FLOPs). */
    double tensorCore = 0.80;
    /**
     * Prefill attention efficiency on the FP32 CUDA-core path.  The
     * paper's quadratic coefficients imply roughly 7-10% of peak FP32,
     * consistent with non-fused attention on a 16-SM part.
     */
    double attentionPrefill = 0.085;
    /** Achieved fraction of DRAM bandwidth for weight streaming. */
    double bandwidthDecode = 0.80;
    /** Achieved fraction of DRAM bandwidth for prefill activations. */
    double bandwidthPrefill = 0.60;
    /** Elementwise kernels' achieved bandwidth fraction. */
    double bandwidthElementwise = 0.50;
    /** Per-kernel launch overhead. */
    Seconds launchOverhead = 12e-6;
    /**
     * Batch-occupancy degradation: effective bandwidth/compute shrink by
     * 1 / (1 + kappa ln B) as decode batch grows, capturing the scheduler
     * and cache pressure that keep parallel scaling from being free
     * (Fig. 10a shows roughly 2x latency from SF=1 to SF=64).
     */
    double batchKappa = 0.12;
};

/**
 * The GPU device model.  Stateless with respect to kernels: given a
 * kernel descriptor it returns the execution cost under the configured
 * power mode.
 */
class RooflineGpu
{
  public:
    /** Construct from a hardware spec, efficiencies and a power mode. */
    RooflineGpu(GpuSpec spec, GpuEfficiency eff,
                PowerMode mode = PowerMode::MaxN);

    /** Execute one kernel; @return its cost. */
    KernelCost execute(const KernelDesc &k) const;

    /** @return the hardware spec. */
    const GpuSpec &spec() const { return spec_; }
    /** @return the efficiency profile. */
    const GpuEfficiency &efficiency() const { return eff_; }
    /** @return the active power mode. */
    PowerMode powerMode() const { return mode_; }
    /** Change the power mode (rescales peak rates). */
    void setPowerMode(PowerMode mode) { mode_ = mode; }

    /** @return effective peak DRAM bandwidth under the power mode. */
    double effectivePeakBandwidth() const;
    /** @return effective peak FLOPs for a dtype under the power mode. */
    Flops effectivePeakFlops(DType compute, KernelClass cls) const;

  private:
    double batchDerate(int batch) const;

    GpuSpec spec_;
    GpuEfficiency eff_;
    PowerMode mode_;
};

} // namespace hw
} // namespace edgereason

#endif // EDGEREASON_HW_ROOFLINE_HH
