#include "hw/cpu.hh"

#include <algorithm>

#include "common/logging.hh"

namespace edgereason {
namespace hw {

CpuDevice::CpuDevice(CpuSpec spec, CpuEfficiency eff)
    : spec_(std::move(spec)), eff_(eff)
{
    fatal_if(eff_.compute <= 0.0 || eff_.compute > 1.0,
             "CPU compute efficiency out of (0, 1]");
}

KernelCost
CpuDevice::execute(const KernelDesc &k) const
{
    panic_if(k.flops < 0 || k.weightBytes < 0 || k.actBytes < 0,
             "negative kernel work in ", k.name);

    const Flops peak = spec_.peakFlops() * eff_.compute;
    const double bw = spec_.achievableBandwidth * eff_.bandwidth;

    const Seconds t_compute = k.flops > 0 ? k.flops / peak : 0.0;
    const double bytes = k.weightBytes + k.actBytes;
    const Seconds t_memory = bytes > 0 ? bytes / bw : 0.0;

    KernelCost cost;
    cost.seconds = std::max(t_compute, t_memory) + eff_.launchOverhead;
    cost.computeBound = t_compute >= t_memory;
    if (cost.seconds > 0.0) {
        cost.bwUtil = std::min(
            1.0, bytes / (cost.seconds * spec_.achievableBandwidth));
        cost.computeUtil =
            std::min(1.0, k.flops / (cost.seconds * spec_.peakFlops()));
    }
    return cost;
}

} // namespace hw
} // namespace edgereason
