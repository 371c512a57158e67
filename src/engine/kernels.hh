/**
 * @file
 * Kernel enumeration: turns a transformer architecture plus a phase
 * (prefill over I tokens, or one decode step at a context length) into
 * the device kernels the inference engine launches, as a layered
 * program (hw::KernelProgram) whose body is one transformer layer.
 * This is where the tensor-core tile padding lives: the token
 * dimension of every compute-bound kernel is rounded up to the
 * 128-token CUTLASS block size, producing the stepped prefill latency
 * of Fig. 2.
 */

#ifndef EDGEREASON_ENGINE_KERNELS_HH
#define EDGEREASON_ENGINE_KERNELS_HH

#include <vector>

#include "hw/kernel.hh"
#include "model/transformer_spec.hh"

namespace edgereason {
namespace engine {

/** Round @p tokens up to the next multiple of @p tile (Eqn. 1's I_pad). */
Tokens padToTile(Tokens tokens, Tokens tile);

/** Options controlling kernel enumeration. */
struct KernelBuildOptions
{
    /** CUTLASS tile size in the token dimension. */
    Tokens tileTokens = 128;
    /** Tensor-core batch-dimension padding block (Section V-E). */
    int batchTile = 128;
    /** Disable token-dimension padding (ablation of Fig. 2 steps). */
    bool disablePadding = false;
};

/**
 * Build the prefill kernel program for an input of @p input_tokens:
 * the embedding, one transformer layer repeated spec.layers times, and
 * the final norm plus LM head.  Prefill always runs at batch 1 (the
 * paper's parallel-scaling scheme prefills once and fans out at
 * decode).
 */
hw::KernelProgram
prefillProgram(const model::TransformerSpec &spec, Tokens input_tokens,
               const KernelBuildOptions &opts = {});

/**
 * Build the prefill kernel program for a prompt *suffix* when the
 * first @p cached_prefix tokens are already resident in the KV cache
 * (vLLM-style automatic prefix caching for multi-turn sessions).
 * Projection/FFN work covers only the suffix rows; attention covers
 * the suffix's interactions with the whole context.
 */
hw::KernelProgram
prefillSuffixProgram(const model::TransformerSpec &spec,
                     Tokens cached_prefix, Tokens suffix_tokens,
                     const KernelBuildOptions &opts = {});

/**
 * Build the kernel program of one decode step.
 *
 * @param context  current context length (prompt + generated so far)
 * @param batch  parallel scaling factor (decode batch size)
 */
hw::KernelProgram
decodeProgram(const model::TransformerSpec &spec, Tokens context,
              int batch = 1, const KernelBuildOptions &opts = {});

/** The expanded prefillProgram(). */
std::vector<hw::KernelDesc>
prefillKernels(const model::TransformerSpec &spec, Tokens input_tokens,
               const KernelBuildOptions &opts = {});

/** The expanded prefillSuffixProgram(). */
std::vector<hw::KernelDesc>
prefillSuffixKernels(const model::TransformerSpec &spec,
                     Tokens cached_prefix, Tokens suffix_tokens,
                     const KernelBuildOptions &opts = {});

/** The expanded decodeProgram(). */
std::vector<hw::KernelDesc>
decodeKernels(const model::TransformerSpec &spec, Tokens context,
              int batch = 1, const KernelBuildOptions &opts = {});

/** Sum of FLOPs in a kernel sequence. */
Flops totalFlops(const std::vector<hw::KernelDesc> &kernels);
/** Sum of DRAM bytes (weights + activations) in a kernel sequence. */
double totalBytes(const std::vector<hw::KernelDesc> &kernels);

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_KERNELS_HH
