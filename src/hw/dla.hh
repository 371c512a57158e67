/**
 * @file
 * NVDLA v2 device model.  The Orin carries two deep-learning
 * accelerators (Table I: 52.5 INT8 TOPS combined) that sit idle during
 * transformer inference; the paper's Section VI asks whether mapping
 * parts of the attention/FFN workload onto them could win throughput.
 * The catch this model makes explicit: the DLAs share the same LPDDR5
 * bus as the GPU, so for bandwidth-bound phases the shared-memory
 * floor, not the extra compute, bounds any gain.
 */

#ifndef EDGEREASON_HW_DLA_HH
#define EDGEREASON_HW_DLA_HH


#include "hw/gpu_spec.hh"
#include "hw/kernel.hh"

namespace edgereason {
namespace hw {

/** DLA efficiency/derating factors. */
struct DlaEfficiency
{
    /** Achieved fraction of the 52.5 INT8 TOPS on dense GEMMs. */
    double compute = 0.55;
    /**
     * Fraction of DRAM bandwidth the DLA complex can sink on its own
     * (its interface is narrower than the GPU's).
     */
    double bandwidthShare = 0.40;
    /** Per-kernel dispatch overhead (DLA submission latency is high). */
    Seconds launchOverhead = 60e-6;
};

/** Roofline model of the dual-NVDLA complex. */
class DlaDevice
{
  public:
    DlaDevice(GpuSpec spec, DlaEfficiency eff,
              PowerMode mode = PowerMode::MaxN);

    /**
     * Execute one kernel.  Only INT8-capable dense work is supported;
     * callers route FP16/FP32 kernels elsewhere.
     */
    KernelCost execute(const KernelDesc &k) const;

    /** @return the efficiency profile. */
    const DlaEfficiency &efficiency() const { return eff_; }

  private:
    GpuSpec spec_;
    DlaEfficiency eff_;
    PowerMode mode_;
};

} // namespace hw
} // namespace edgereason

#endif // EDGEREASON_HW_DLA_HH
