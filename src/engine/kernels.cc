#include "engine/kernels.hh"

#include <algorithm>

#include "common/logging.hh"

namespace edgereason {
namespace engine {

using hw::KernelClass;
using hw::KernelDesc;
using model::TransformerSpec;

Tokens
padToTile(Tokens tokens, Tokens tile)
{
    panic_if(tokens < 0, "negative token count");
    panic_if(tile <= 0, "tile size must be positive");
    return (tokens + tile - 1) / tile * tile;
}

namespace {

constexpr double fp16Bytes = 2.0;
/** Kernels one transformer layer launches (a program's body). */
constexpr std::size_t kLayerKernels = 8;

/** Append a dense GEMM/GEMV kernel over @p rows token rows. */
void
pushLinear(std::vector<KernelDesc> &out, const char *name,
           KernelClass cls, const TransformerSpec &spec, double rows,
           double padded_rows, int in_dim, int out_dim, int batch)
{
    KernelDesc k;
    k.name = name;
    k.cls = cls;
    k.compute = (spec.weightDtype == DType::W4A16 ||
                 spec.weightDtype == DType::INT8)
        ? DType::INT8
        : DType::FP16;
    k.batch = batch;
    k.flops = 2.0 * padded_rows * in_dim * out_dim;
    k.weightBytes = static_cast<double>(in_dim) * out_dim *
        dtypeWeightBytes(spec.weightDtype);
    // Activations stream at the *actual* row count.
    k.actBytes = rows * (in_dim + out_dim) * fp16Bytes;
    out.push_back(std::move(k));
}

/** Append a norm / activation / residual elementwise kernel. */
void
pushElementwise(std::vector<KernelDesc> &out, const char *name,
                double rows, int width, int batch)
{
    KernelDesc k;
    k.name = name;
    k.cls = KernelClass::Elementwise;
    k.compute = DType::FP16;
    k.batch = batch;
    k.flops = 6.0 * rows * width;
    k.actBytes = 2.0 * rows * width * fp16Bytes;
    out.push_back(std::move(k));
}

} // namespace

hw::KernelProgram
prefillProgram(const TransformerSpec &spec, Tokens input_tokens,
               const KernelBuildOptions &opts)
{
    fatal_if(input_tokens < 1, "prefill needs at least one token");
    fatal_if(input_tokens > spec.maxContext, spec.name,
             ": prefill length ", input_tokens, " exceeds max context ",
             spec.maxContext);

    const double rows = static_cast<double>(input_tokens);
    const Tokens padded = opts.disablePadding
        ? input_tokens
        : padToTile(input_tokens, opts.tileTokens);
    const double prows = static_cast<double>(padded);

    hw::KernelProgram p;
    p.layers = spec.layers;
    p.body.reserve(kLayerKernels);

    // Embedding lookup.
    pushElementwise(p.head, "embed", rows, spec.hidden, 1);

    const int qkv_out = (spec.heads + 2 * spec.kvHeads) * spec.headDim;
    pushElementwise(p.body, "input_norm", rows, spec.hidden, 1);
    pushLinear(p.body, "qkv_proj", KernelClass::GemmTensorCore, spec,
               rows, prows, spec.hidden, qkv_out, 1);

    // Causal attention: score + value matmuls over the padded token
    // count (the padding is the source of the plateau behaviour within
    // 128-token segments).
    KernelDesc attn;
    attn.name = "attn_prefill";
    attn.cls = KernelClass::AttentionPrefill;
    attn.compute = DType::FP32;
    attn.batch = 1;
    attn.flops = 2.0 * spec.attnWidth() * prows * prows;
    attn.actBytes = rows * spec.attnWidth() * 3.0 * fp16Bytes +
        rows * spec.kvHeads * spec.headDim * 2.0 * fp16Bytes;
    p.body.push_back(std::move(attn));

    pushLinear(p.body, "o_proj", KernelClass::GemmTensorCore, spec, rows,
               prows, spec.attnWidth(), spec.hidden, 1);
    pushElementwise(p.body, "post_norm", rows, spec.hidden, 1);
    pushLinear(p.body, "ffn_gate", KernelClass::GemmTensorCore, spec,
               rows, prows, spec.hidden, spec.ffnHidden, 1);
    pushLinear(p.body, "ffn_up", KernelClass::GemmTensorCore, spec, rows,
               prows, spec.hidden, spec.ffnHidden, 1);
    pushLinear(p.body, "ffn_down", KernelClass::GemmTensorCore, spec,
               rows, prows, spec.ffnHidden, spec.hidden, 1);

    pushElementwise(p.tail, "final_norm", rows, spec.hidden, 1);
    // Only the last position goes through the LM head during prefill.
    pushLinear(p.tail, "lm_head", KernelClass::GemmTensorCore, spec, 1.0,
               static_cast<double>(opts.tileTokens), spec.hidden,
               spec.vocab, 1);
    return p;
}

hw::KernelProgram
prefillSuffixProgram(const TransformerSpec &spec, Tokens cached_prefix,
                     Tokens suffix_tokens, const KernelBuildOptions &opts)
{
    fatal_if(cached_prefix < 0, "negative cached prefix");
    if (cached_prefix == 0)
        return prefillProgram(spec, suffix_tokens, opts);
    fatal_if(suffix_tokens < 1, "suffix prefill needs >= 1 token");
    fatal_if(cached_prefix + suffix_tokens > spec.maxContext, spec.name,
             ": context ", cached_prefix + suffix_tokens,
             " exceeds max context ", spec.maxContext);

    // Linear work covers only the suffix rows...
    auto p = prefillProgram(spec, suffix_tokens, opts);
    // ...but attention must also read the cached prefix's KV and run
    // the suffix-vs-prefix score/value matmuls.  Patch the layer's
    // attention kernel: causal FLOPs over the full context minus the
    // part the prefix already computed.
    const double full = spec.attentionPrefillFlops(cached_prefix +
                                                   suffix_tokens);
    const double done = spec.attentionPrefillFlops(cached_prefix);
    const double per_layer_flops = (full - done) / spec.layers;
    const double prefix_kv_bytes = static_cast<double>(cached_prefix) *
        spec.kvBytesPerToken() / spec.layers;
    for (auto &k : p.body) {
        if (k.cls == hw::KernelClass::AttentionPrefill) {
            k.flops = per_layer_flops;
            k.actBytes += prefix_kv_bytes;
        }
    }
    return p;
}

hw::KernelProgram
decodeProgram(const TransformerSpec &spec, Tokens context, int batch,
              const KernelBuildOptions &opts)
{
    fatal_if(context < 1, "decode needs context >= 1");
    fatal_if(batch < 1, "decode batch must be >= 1");
    fatal_if(context > spec.maxContext, spec.name,
             ": context ", context, " exceeds max context ",
             spec.maxContext);

    // Tensor cores pad the batch (token-row) dimension; below the tile
    // size the GEMM wavefront is identical, which is why small parallel
    // scaling factors are nearly latency-free (Section V-E).
    const int padded_batch = opts.disablePadding
        ? batch
        : static_cast<int>(padToTile(batch, opts.batchTile));
    const double rows = static_cast<double>(batch);
    const double prows = static_cast<double>(padded_batch);

    hw::KernelProgram p;
    p.layers = spec.layers;
    p.body.reserve(kLayerKernels);

    pushElementwise(p.head, "embed", rows, spec.hidden, batch);

    const int qkv_out = (spec.heads + 2 * spec.kvHeads) * spec.headDim;
    pushElementwise(p.body, "input_norm", rows, spec.hidden, batch);
    pushLinear(p.body, "qkv_proj", KernelClass::GemvBandwidth, spec, rows,
               prows, spec.hidden, qkv_out, batch);

    // Attention over the KV cache: every sample streams the shared
    // prompt KV plus its own generated KV.
    KernelDesc attn;
    attn.name = "attn_decode";
    attn.cls = KernelClass::AttentionDecode;
    attn.compute = DType::FP16;
    attn.batch = batch;
    attn.flops = spec.attentionDecodeFlops(context) / spec.layers * rows;
    attn.actBytes = rows * static_cast<double>(context) *
        spec.kvBytesPerToken() / spec.layers;
    p.body.push_back(std::move(attn));

    pushLinear(p.body, "o_proj", KernelClass::GemvBandwidth, spec, rows,
               prows, spec.attnWidth(), spec.hidden, batch);
    pushElementwise(p.body, "post_norm", rows, spec.hidden, batch);
    pushLinear(p.body, "ffn_gate", KernelClass::GemvBandwidth, spec, rows,
               prows, spec.hidden, spec.ffnHidden, batch);
    pushLinear(p.body, "ffn_up", KernelClass::GemvBandwidth, spec, rows,
               prows, spec.hidden, spec.ffnHidden, batch);
    pushLinear(p.body, "ffn_down", KernelClass::GemvBandwidth, spec, rows,
               prows, spec.ffnHidden, spec.hidden, batch);

    pushElementwise(p.tail, "final_norm", rows, spec.hidden, batch);
    pushLinear(p.tail, "lm_head", KernelClass::GemvBandwidth, spec, rows,
               prows, spec.hidden, spec.vocab, batch);
    return p;
}

std::vector<KernelDesc>
prefillKernels(const TransformerSpec &spec, Tokens input_tokens,
               const KernelBuildOptions &opts)
{
    return prefillProgram(spec, input_tokens, opts).expand();
}

std::vector<KernelDesc>
prefillSuffixKernels(const TransformerSpec &spec, Tokens cached_prefix,
                     Tokens suffix_tokens, const KernelBuildOptions &opts)
{
    return prefillSuffixProgram(spec, cached_prefix, suffix_tokens, opts)
        .expand();
}

std::vector<KernelDesc>
decodeKernels(const TransformerSpec &spec, Tokens context, int batch,
              const KernelBuildOptions &opts)
{
    return decodeProgram(spec, context, batch, opts).expand();
}

Flops
totalFlops(const std::vector<KernelDesc> &kernels)
{
    Flops acc = 0.0;
    for (const auto &k : kernels)
        acc += k.flops;
    return acc;
}

double
totalBytes(const std::vector<KernelDesc> &kernels)
{
    double acc = 0.0;
    for (const auto &k : kernels)
        acc += k.weightBytes + k.actBytes;
    return acc;
}

} // namespace engine
} // namespace edgereason
