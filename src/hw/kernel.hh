/**
 * @file
 * Kernel work descriptors handed from the inference engine to a device
 * model.  A kernel is characterized by its arithmetic work, its memory
 * traffic split into weight streaming and activation/KV traffic, and a
 * class that selects the execution path (tensor-core GEMM, FP32 attention,
 * bandwidth-bound GEMV, ...).
 */

#ifndef EDGEREASON_HW_KERNEL_HH
#define EDGEREASON_HW_KERNEL_HH

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace edgereason {
namespace hw {

/** Execution-path class of a kernel. */
enum class KernelClass {
    /** Dense projection / FFN GEMM on tensor cores (prefill). */
    GemmTensorCore,
    /** Prefill attention (score + value); FP32 CUDA-core path on Orin. */
    AttentionPrefill,
    /** Weight-streaming GEMV / skinny GEMM (decode projections + FFN). */
    GemvBandwidth,
    /** Decode attention over the KV cache (bandwidth bound). */
    AttentionDecode,
    /** Norms, activations, embedding lookups, sampling glue. */
    Elementwise,
};

/** @return a human-readable kernel class name. */
const char *kernelClassName(KernelClass c);

/** A unit of device work. */
struct KernelDesc
{
    std::string name;        //!< e.g. "ffn_gate", "attn_score"
    KernelClass cls = KernelClass::Elementwise;
    Flops flops = 0.0;       //!< arithmetic operations
    double weightBytes = 0.0; //!< parameter bytes streamed from DRAM
    double actBytes = 0.0;    //!< activation / KV-cache bytes moved
    DType compute = DType::FP16; //!< compute path dtype
    int batch = 1;            //!< batch dimension (parallel scaling)
};

/**
 * A kernel sequence in layered form: @c head, then @c body launched
 * @c layers times, then @c tail.  A transformer step is one: every
 * layer launches the same kernels, so the body is stored once.
 */
struct KernelProgram
{
    std::vector<KernelDesc> head;
    std::vector<KernelDesc> body; //!< one layer's kernels
    int layers = 0;
    std::vector<KernelDesc> tail;

    /** @return the number of kernels the program launches. */
    std::size_t size() const
    {
        return head.size() + body.size() * layers + tail.size();
    }
    /** @return the flat sequence of kernels the program launches. */
    std::vector<KernelDesc> expand() const;
};

/** Cost of executing one kernel on a device model. */
struct KernelCost
{
    Seconds seconds = 0.0;
    double bwUtil = 0.0;      //!< achieved DRAM bandwidth / peak
    double computeUtil = 0.0; //!< achieved FLOPs rate / peak for the path
    bool computeBound = false;
};

/** Aggregate cost of a kernel sequence. */
struct StepCost
{
    Seconds seconds = 0.0;
    double avgBwUtil = 0.0;      //!< time-weighted DRAM utilization
    double avgComputeUtil = 0.0; //!< time-weighted compute utilization
    double weightBytes = 0.0;
    double actBytes = 0.0;
    Flops flops = 0.0;

    /** Accumulate one kernel's cost. */
    void add(const KernelDesc &k, const KernelCost &c);
    /** Finish time-weighted averages (no-op if total time is zero). */
    void finalize();
};

/**
 * Execute @p head, then @p body @p layers times, then @p tail on
 * @p device (anything with `KernelCost execute(const KernelDesc &)`)
 * and aggregate.  Each listed kernel is priced once; the (kernel,
 * cost) pairs are then added in launch order.  execute() is a pure
 * function of the kernel, so the result is bit-identical to pricing
 * the expanded sequence kernel by kernel.
 */
template <typename Device>
StepCost
replay(const Device &device, std::span<const KernelDesc> head,
       std::span<const KernelDesc> body = {}, int layers = 0,
       std::span<const KernelDesc> tail = {})
{
    StepCost total;
    for (const KernelDesc &k : head)
        total.add(k, device.execute(k));
    if (layers > 0) {
        std::vector<KernelCost> costs;
        costs.reserve(body.size());
        for (const KernelDesc &k : body)
            costs.push_back(device.execute(k));
        for (int l = 0; l < layers; ++l) {
            for (std::size_t i = 0; i < body.size(); ++i)
                total.add(body[i], costs[i]);
        }
    }
    for (const KernelDesc &k : tail)
        total.add(k, device.execute(k));
    total.finalize();
    return total;
}

/** replay() of a layered program. */
template <typename Device>
StepCost
replay(const Device &device, const KernelProgram &program)
{
    return replay(device, program.head, program.body, program.layers,
                  program.tail);
}

} // namespace hw
} // namespace edgereason

#endif // EDGEREASON_HW_KERNEL_HH
