/**
 * @file
 * The Jetson AGX Orin system-on-chip: GPU + CPU + (idle) DLA/PVA units
 * behind a shared LPDDR5 memory system.  This is the top-level hardware
 * object handed to the inference engine.
 */

#ifndef EDGEREASON_HW_SOC_HH
#define EDGEREASON_HW_SOC_HH

#include <memory>
#include <string>

#include "hw/cpu.hh"
#include "hw/dla.hh"
#include "hw/power.hh"
#include "hw/roofline.hh"

namespace edgereason {
namespace hw {

/** Which device runs the transformer kernels. */
enum class Backend { Gpu, Cpu };

/** @return human-readable backend name. */
const char *backendName(Backend b);

/** Aggregate SoC model. */
class JetsonOrin
{
  public:
    /**
     * Build an Orin with the given efficiency profiles and power mode.
     * Defaults reproduce the calibration used throughout the study.
     */
    explicit JetsonOrin(PowerMode mode = PowerMode::MaxN,
                        GpuEfficiency gpu_eff = GpuEfficiency{},
                        CpuEfficiency cpu_eff = CpuEfficiency{});

    /** @return the GPU device model. */
    const RooflineGpu &gpu() const { return gpu_; }
    /** @return the CPU device model. */
    const CpuDevice &cpu() const { return cpu_; }
    /** @return the NVDLA complex model (idle unless offload is on). */
    const DlaDevice &dla() const { return dla_; }
    /** @return the power model. */
    const PowerModel &power() const { return power_; }
    /** @return the active power mode. */
    PowerMode powerMode() const { return mode_; }

    /** Execute a flat kernel sequence on the selected backend. */
    StepCost execute(Backend backend,
                     const std::vector<KernelDesc> &kernels) const;
    /** Execute a layered program on the selected backend (replay()). */
    StepCost execute(Backend backend, const KernelProgram &program) const;

    /** @return available DRAM for weights + KV cache, in bytes. */
    Bytes usableMemory() const;

    /** Render the Table I hardware summary. */
    std::string specTable() const;

  private:
    PowerMode mode_;
    RooflineGpu gpu_;
    CpuDevice cpu_;
    DlaDevice dla_;
    PowerModel power_;
};

} // namespace hw
} // namespace edgereason

#endif // EDGEREASON_HW_SOC_HH
