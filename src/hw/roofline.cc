#include "hw/roofline.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace edgereason {
namespace hw {

RooflineGpu::RooflineGpu(GpuSpec spec, GpuEfficiency eff, PowerMode mode)
    : spec_(std::move(spec)), eff_(eff), mode_(mode)
{
    fatal_if(eff_.tensorCore <= 0.0 || eff_.tensorCore > 1.0,
             "tensor-core efficiency out of (0, 1]");
    fatal_if(eff_.bandwidthDecode <= 0.0 || eff_.bandwidthDecode > 1.0,
             "decode bandwidth efficiency out of (0, 1]");
}

double
RooflineGpu::effectivePeakBandwidth() const
{
    return spec_.memBandwidth * powerModeScale(mode_);
}

Flops
RooflineGpu::effectivePeakFlops(DType compute, KernelClass cls) const
{
    const double scale = powerModeScale(mode_);
    if (cls == KernelClass::AttentionPrefill) {
        // Orin's attention prefill path runs on CUDA cores in FP32
        // (non-fused attention); see DESIGN.md and Table IV analysis.
        return spec_.peakFp32Flops * scale;
    }
    return spec_.peakTensorFlops(compute) * scale;
}

double
RooflineGpu::batchDerate(int batch) const
{
    panic_if(batch < 1, "kernel batch must be >= 1");
    if (batch == 1)
        return 1.0;
    return 1.0 / (1.0 + eff_.batchKappa * std::log(
        static_cast<double>(batch)));
}

KernelCost
RooflineGpu::execute(const KernelDesc &k) const
{
    panic_if(k.flops < 0 || k.weightBytes < 0 || k.actBytes < 0,
             "negative kernel work in ", k.name);

    double compute_eff = 1.0;
    double bw_eff = 1.0;
    switch (k.cls) {
      case KernelClass::GemmTensorCore:
        compute_eff = eff_.tensorCore;
        bw_eff = eff_.bandwidthPrefill;
        break;
      case KernelClass::AttentionPrefill:
        compute_eff = eff_.attentionPrefill;
        bw_eff = eff_.bandwidthPrefill;
        break;
      case KernelClass::GemvBandwidth:
        compute_eff = eff_.tensorCore;
        bw_eff = eff_.bandwidthDecode;
        break;
      case KernelClass::AttentionDecode:
        compute_eff = eff_.tensorCore;
        bw_eff = eff_.bandwidthDecode;
        break;
      case KernelClass::Elementwise:
        compute_eff = 0.05; // scalar-ish throughput
        bw_eff = eff_.bandwidthElementwise;
        break;
    }

    const double derate = batchDerate(k.batch);
    const double peak_flops =
        effectivePeakFlops(k.compute, k.cls) * compute_eff * derate;
    const double peak_bw = effectivePeakBandwidth() * bw_eff * derate;

    const Seconds t_compute = k.flops > 0 ? k.flops / peak_flops : 0.0;
    const double bytes = k.weightBytes + k.actBytes;
    const Seconds t_memory = bytes > 0 ? bytes / peak_bw : 0.0;

    KernelCost cost;
    cost.seconds = std::max(t_compute, t_memory) + eff_.launchOverhead;
    cost.computeBound = t_compute >= t_memory;
    if (cost.seconds > 0.0) {
        cost.bwUtil = std::min(
            1.0, bytes / (cost.seconds * effectivePeakBandwidth()));
        const Flops raw_peak = effectivePeakFlops(k.compute, k.cls);
        cost.computeUtil =
            std::min(1.0, k.flops / (cost.seconds * raw_peak));
    }
    return cost;
}

} // namespace hw
} // namespace edgereason
