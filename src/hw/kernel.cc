#include "hw/kernel.hh"

#include "common/logging.hh"

namespace edgereason {
namespace hw {

const char *
kernelClassName(KernelClass c)
{
    switch (c) {
      case KernelClass::GemmTensorCore:
        return "gemm_tc";
      case KernelClass::AttentionPrefill:
        return "attn_prefill";
      case KernelClass::GemvBandwidth:
        return "gemv_bw";
      case KernelClass::AttentionDecode:
        return "attn_decode";
      case KernelClass::Elementwise:
        return "elementwise";
    }
    panic("unknown kernel class");
}

std::vector<KernelDesc>
KernelProgram::expand() const
{
    std::vector<KernelDesc> out;
    out.reserve(size());
    out.insert(out.end(), head.begin(), head.end());
    for (int l = 0; l < layers; ++l)
        out.insert(out.end(), body.begin(), body.end());
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
}

void
StepCost::add(const KernelDesc &k, const KernelCost &c)
{
    seconds += c.seconds;
    avgBwUtil += c.bwUtil * c.seconds;
    avgComputeUtil += c.computeUtil * c.seconds;
    weightBytes += k.weightBytes;
    actBytes += k.actBytes;
    flops += k.flops;
}

void
StepCost::finalize()
{
    if (seconds <= 0.0)
        return;
    avgBwUtil /= seconds;
    avgComputeUtil /= seconds;
}

} // namespace hw
} // namespace edgereason
