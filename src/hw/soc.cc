#include "hw/soc.hh"

#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"

namespace edgereason {
namespace hw {

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Gpu:
        return "gpu";
      case Backend::Cpu:
        return "cpu";
    }
    panic("unknown backend");
}

JetsonOrin::JetsonOrin(PowerMode mode, GpuEfficiency gpu_eff,
                       CpuEfficiency cpu_eff)
    : mode_(mode),
      gpu_(GpuSpec{}, gpu_eff, mode),
      cpu_(CpuSpec{}, cpu_eff),
      dla_(GpuSpec{}, DlaEfficiency{}, mode),
      power_(mode)
{
}

namespace {

/** replay() @p sections on @p soc's @p backend device. */
template <typename... Sections>
StepCost
replayOn(const JetsonOrin &soc, Backend backend, const Sections &...sections)
{
    switch (backend) {
      case Backend::Gpu:
        return replay(soc.gpu(), sections...);
      case Backend::Cpu:
        return replay(soc.cpu(), sections...);
    }
    panic("unknown backend");
}

} // namespace

StepCost
JetsonOrin::execute(Backend backend,
                    const std::vector<KernelDesc> &kernels) const
{
    return replayOn(*this, backend, std::span<const KernelDesc>(kernels));
}

StepCost
JetsonOrin::execute(Backend backend, const KernelProgram &program) const
{
    return replayOn(*this, backend, program);
}

Bytes
JetsonOrin::usableMemory() const
{
    // Reserve ~8 GB for the OS, CUDA context and the inference runtime.
    return gpu_.spec().memCapacity - 8LL * 1024 * 1024 * 1024;
}

std::string
JetsonOrin::specTable() const
{
    const GpuSpec &s = gpu_.spec();
    Table t("Table I: NVIDIA Jetson Orin Series Compute Specifications");
    t.setHeader({"CUDA Cores", "Tensor Cores", "DLA", "Memory"});
    std::ostringstream cuda, tensor, dla, mem;
    cuda << s.cudaCores << " (" << formatFixed(s.peakFp32Flops / 1e12, 1)
         << "TFLOPs)";
    tensor << s.tensorCores << " ("
           << formatFixed(s.peakInt8SparseOps / 1e12, 0) << "TOPs)";
    dla << s.dlaCores << " (" << formatFixed(s.dlaInt8Ops / 1e12, 1)
        << "TOPS)";
    mem << s.memCapacity / (1024LL * 1024 * 1024) << "GB @ "
        << formatFixed(s.memBandwidth / 1e9, 1) << "GB/s";
    t.addRow({cuda.str(), tensor.str(), dla.str(), mem.str()});
    return t.str();
}

} // namespace hw
} // namespace edgereason
