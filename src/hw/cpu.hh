/**
 * @file
 * Edge CPU backend: the Orin's 12-core Arm Cortex-A78AE cluster,
 * evaluated in the paper as an alternative inference platform
 * (Appendix C, Tables XVI-XVII).  Same roofline idea as the GPU, with
 * NEON peak throughput and a much lower achievable DRAM bandwidth.
 */

#ifndef EDGEREASON_HW_CPU_HH
#define EDGEREASON_HW_CPU_HH

#include <string>

#include "hw/kernel.hh"

namespace edgereason {
namespace hw {

/** Static description of the edge CPU cluster. */
struct CpuSpec
{
    std::string name = "Arm Cortex-A78AE x12";
    int cores = 12;
    double clockHz = 2.2e9;
    /** FP32 FLOPs per core per cycle (2x 128-bit NEON FMA pipes). */
    double flopsPerCoreCycle = 16.0;
    /** Achievable DRAM bandwidth from the CPU complex. */
    double achievableBandwidth = 33.0e9;

    /** @return peak FP32 throughput of the cluster. */
    Flops peakFlops() const { return cores * clockHz * flopsPerCoreCycle; }
};

/** Derating factors for the CPU roofline. */
struct CpuEfficiency
{
    /**
     * Achieved fraction of NEON peak in GEMM-heavy phases.  A value of
     * about 0.10 reproduces the paper's Table XVI within a few percent
     * across all three model sizes.
     */
    double compute = 0.10;
    /** Achieved fraction of the already-derated CPU bandwidth. */
    double bandwidth = 1.0;
    /** Per-kernel dispatch overhead (threading fork/join). */
    Seconds launchOverhead = 40e-6;
};

/** Roofline device model for the CPU backend. */
class CpuDevice
{
  public:
    /** Construct from spec and efficiency factors. */
    CpuDevice(CpuSpec spec, CpuEfficiency eff);

    /** Execute one kernel; @return its cost. */
    KernelCost execute(const KernelDesc &k) const;

    /** @return the spec. */
    const CpuSpec &spec() const { return spec_; }

  private:
    CpuSpec spec_;
    CpuEfficiency eff_;
};

} // namespace hw
} // namespace edgereason

#endif // EDGEREASON_HW_CPU_HH
