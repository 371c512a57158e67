#include "hw/dla.hh"

#include <algorithm>

#include "common/logging.hh"

namespace edgereason {
namespace hw {

DlaDevice::DlaDevice(GpuSpec spec, DlaEfficiency eff, PowerMode mode)
    : spec_(std::move(spec)), eff_(eff), mode_(mode)
{
    fatal_if(eff_.compute <= 0.0 || eff_.compute > 1.0,
             "DLA compute efficiency out of (0, 1]");
    fatal_if(eff_.bandwidthShare <= 0.0 || eff_.bandwidthShare > 1.0,
             "DLA bandwidth share out of (0, 1]");
}

KernelCost
DlaDevice::execute(const KernelDesc &k) const
{
    panic_if(k.flops < 0 || k.weightBytes < 0 || k.actBytes < 0,
             "negative kernel work in ", k.name);

    const double scale = powerModeScale(mode_);
    const Flops peak = spec_.dlaInt8Ops * eff_.compute * scale;
    const double bw = spec_.memBandwidth * eff_.bandwidthShare * scale;

    const Seconds t_compute = k.flops > 0 ? k.flops / peak : 0.0;
    const double bytes = k.weightBytes + k.actBytes;
    const Seconds t_memory = bytes > 0 ? bytes / bw : 0.0;

    KernelCost cost;
    cost.seconds = std::max(t_compute, t_memory) + eff_.launchOverhead;
    cost.computeBound = t_compute >= t_memory;
    if (cost.seconds > 0.0) {
        cost.bwUtil = std::min(
            1.0, bytes / (cost.seconds * spec_.memBandwidth * scale));
        cost.computeUtil = std::min(
            1.0, k.flops / (cost.seconds * spec_.dlaInt8Ops * scale));
    }
    return cost;
}

} // namespace hw
} // namespace edgereason
