#include "engine/engine.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <shared_mutex>

#include "common/logging.hh"
#include "common/open_hash.hh"

namespace edgereason {
namespace engine {

namespace {

/** Step-cost caches destroyed so far, process-wide. */
std::atomic<std::uint64_t> g_retired_cost_caches{0};

/** The two phases the step-cost memo prices; indexes its maps. */
enum Phase : std::size_t { kDecode, kPrefill, kPhases };

/**
 * Pack a step's (tokens already in KV, rows processed) into one memo
 * key word: (context, batch) for decode, (cached prefix, suffix) for
 * prefill.  The rows take the low 24 bits, the KV length the high 40.
 * The kernel builders validate their inputs only on a miss, so an
 * input outside those fields is rejected here rather than allowed to
 * alias another step's entry.
 */
std::uint64_t
packStepKey(const char *phase, Tokens kv_tokens, Tokens rows)
{
    fatal_if(kv_tokens < 0 || kv_tokens >= Tokens{1} << 40 || rows < 0 ||
                 rows > InferenceEngine::kMaxStepRows,
             phase, " step (", kv_tokens, " tokens in KV, ", rows,
             " rows) is outside the step-cost memo's range (rows <= ",
             InferenceEngine::kMaxStepRows, ")");
    return static_cast<std::uint64_t>(kv_tokens) << 24 |
        static_cast<std::uint64_t>(rows);
}

} // namespace

/**
 * Memo cache of noiseless step costs, one map per phase keyed by
 * packStepKey().  Guarded by a shared mutex so concurrent sweep workers
 * can hit it; entries are exact, so eviction (a blunt clear at the
 * bound) only costs a recomputation, never accuracy.
 */
struct InferenceEngine::StepCostCache
{
    static constexpr std::size_t maxEntries = 1 << 16;

    /**
     * Identifies this cache instance across engine lifetimes so the
     * thread-local L1 can never serve an entry computed by a destroyed
     * engine whose address was reused.
     */
    static std::atomic<std::uint64_t> &generationCounter()
    {
        static std::atomic<std::uint64_t> g{1};
        return g;
    }
    const std::uint64_t generation =
        generationCounter().fetch_add(1, std::memory_order_relaxed);

    ~StepCostCache()
    {
        g_retired_cost_caches.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Per-thread read-through L1 over the shared locked maps.  Entries
     * are tagged with the owning cache's generation, so a reused engine
     * address can never alias stale costs; and a thread empties its
     * maps at its first lookup after any engine has been destroyed, so
     * a dead engine's entries do not linger until a map hits its bound.
     * Clearing on every generation switch instead would thrash, because
     * engines interleave on one thread: a heterogeneous fleet's nodes
     * (one engine per spec), standalone nodes, sweep workers.  Clearing
     * keeps the slot arrays: freeing and regrowing them every run
     * fragments the heap.  The L1 is what keeps concurrent readers of
     * one engine off its shared mutex (serving replications, sweeps).
     */
    struct L1
    {
        /** 16 bytes: the decode macro-step path hashes no more. */
        struct Key
        {
            std::uint64_t gen;
            std::uint64_t key;
        };
        OpenHashMap<Key, StepTime> maps[kPhases];
        /** L1 hits not yet added to the owning cache's shared counter. */
        std::uint64_t pendingHits = 0;
        std::uint64_t retiredSeen = 0;

        /** Drop every entry if an engine died since the last lookup. */
        L1 &sync()
        {
            const std::uint64_t r =
                g_retired_cost_caches.load(std::memory_order_relaxed);
            if (r != retiredSeen) {
                for (auto &m : maps)
                    m.clear();
                retiredSeen = r;
            }
            return *this;
        }
    };

    /** @return the calling thread's L1. */
    static L1 &threadL1()
    {
        thread_local L1 l1;
        return l1;
    }

    mutable std::shared_mutex mu;
    // Flat maps: one slot array per map holds up to maxEntries entries
    // and frees them in one call rather than one call per entry.
    OpenHashMap<std::uint64_t, StepTime> maps[kPhases];
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};

    /** The cost of @p phase step @p key from the shared map, computed
     *  and stored on a miss. */
    template <typename Compute>
    StepTime lookup(Phase phase, std::uint64_t key, Compute &&compute)
    {
        auto &map = maps[phase];
        {
            std::shared_lock<std::shared_mutex> g(mu);
            if (const StepTime *hit = map.find(key)) {
                hits.fetch_add(1, std::memory_order_relaxed);
                return *hit;
            }
        }
        misses.fetch_add(1, std::memory_order_relaxed);
        const StepTime cost = compute();
        std::unique_lock<std::shared_mutex> g(mu);
        // Another thread may have filled the key since the shared probe.
        if (map.find(key))
            return cost;
        if (map.size() >= maxEntries)
            map.clear();
        map.insert(key, cost);
        return cost;
    }

    /**
     * The cost of @p phase step @p key: from this thread's L1, else
     * lookup() in the shared map; either way the L1 holds it after.
     * The executor asks for a cost at every decode bucket and every
     * admission, so warm lookups land in the L1 — two atomic ops
     * (shared_lock) would otherwise dominate the macro-step budget.
     */
    template <typename Compute>
    StepTime readThrough(Phase phase, std::uint64_t key,
                         Compute &&compute)
    {
        L1 &tl = threadL1().sync();
        auto &l1 = tl.maps[phase];
        const L1::Key lk{generation, key};
        if (const StepTime *hit = l1.find(lk)) {
            // Amortize the stats update: a locked add per hit is ~8% of
            // the whole macro-step budget.  The shared counter lags by
            // at most 255 per thread, which kernelCacheStats()
            // consumers (the cache-hit bench counter) cannot observe
            // meaningfully.
            if (++tl.pendingHits == 256) {
                hits.fetch_add(tl.pendingHits, std::memory_order_relaxed);
                tl.pendingHits = 0;
            }
            return *hit;
        }
        const StepTime cost = lookup(phase, key, compute);
        if (l1.size() >= maxEntries)
            l1.clear();
        l1.insert(lk, cost);
        return cost;
    }
};

InferenceEngine::~InferenceEngine() = default;
InferenceEngine::InferenceEngine(InferenceEngine &&) noexcept = default;
InferenceEngine &
InferenceEngine::operator=(InferenceEngine &&) noexcept = default;

std::size_t
InferenceEngine::threadStepCostL1Entries()
{
    const auto &l1 = StepCostCache::threadL1();
    return l1.maps[kDecode].size() + l1.maps[kPrefill].size();
}

KernelCacheStats
InferenceEngine::kernelCacheStats() const
{
    KernelCacheStats s;
    s.hits = costCache_->hits.load(std::memory_order_relaxed);
    s.misses = costCache_->misses.load(std::memory_order_relaxed);
    return s;
}

InferenceEngine::InferenceEngine(model::TransformerSpec spec,
                                 model::ModelCalibration calib,
                                 EngineConfig config)
    : spec_(std::move(spec)), calib_(calib), config_(config),
      soc_(config.powerMode, calib.gpuEff),
      kv_(std::max<Bytes>(static_cast<Bytes>(1) << 20,
              soc_.usableMemory() -
                  static_cast<Bytes>(spec_.weightBytes())),
          spec_),
      overhead_(engineOverhead(config.kind)),
      rng_(config.seed, spec_.name),
      costCache_(std::make_unique<StepCostCache>())
{
    spec_.check();
    if (config_.backend == hw::Backend::Cpu) {
        // Tile/batch padding is a tensor-core artifact; CPU GEMMs
        // process exact shapes (Table XVI's CPU prefill scales
        // linearly with input length).
        config_.kernelOpts.disablePadding = true;
    }
    fatal_if(config_.offloadFfnToDla &&
                 spec_.weightDtype != DType::W4A16 &&
                 spec_.weightDtype != DType::INT8,
             "DLA offload needs INT8-capable weights; ", spec_.name,
             " stores ", dtypeName(spec_.weightDtype));
    fatal_if(static_cast<Bytes>(spec_.weightBytes()) >=
                 soc_.usableMemory(),
             spec_.name, " weights (", spec_.weightBytes() / 1e9,
             " GB) exceed usable DRAM (", soc_.usableMemory() / 1e9,
             " GB)");
}

Bytes
InferenceEngine::weightFootprint() const
{
    return static_cast<Bytes>(spec_.weightBytes());
}

Bytes
InferenceEngine::kvBudget() const
{
    return soc_.usableMemory() - weightFootprint();
}

double
InferenceEngine::noiseFactor(double cv, Rng &rng) const
{
    if (!config_.measurementNoise || cv <= 0.0)
        return 1.0;
    return rng.logNormalMeanStd(1.0, cv);
}

hw::StepCost
InferenceEngine::executeKernels(const hw::KernelProgram &program) const
{
    const bool cpu_off = config_.offloadElementwiseToCpu &&
        config_.backend == hw::Backend::Gpu;
    const bool dla_off = config_.offloadFfnToDla &&
        config_.backend == hw::Backend::Gpu;
    if (!cpu_off && !dla_off)
        return soc_.execute(config_.backend, program);

    // Heterogeneous mode (Section VI): elementwise work can run on
    // the CPU cluster and FFN matmuls on the NVDLA complex, both
    // overlapped with the GPU (shared-memory SoC, no copy cost).
    // Each section is split by device in order, so every device
    // prices its kernels in launch order.
    hw::KernelProgram gpu_side;
    hw::KernelProgram cpu_side;
    hw::KernelProgram dla_side;
    for (auto section : {&hw::KernelProgram::head, &hw::KernelProgram::body,
                         &hw::KernelProgram::tail}) {
        for (const auto &k : program.*section) {
            hw::KernelProgram *side = &gpu_side;
            if (cpu_off && k.cls == hw::KernelClass::Elementwise) {
                side = &cpu_side;
            } else if (dla_off && k.name.rfind("ffn_", 0) == 0 &&
                       k.cls == hw::KernelClass::GemmTensorCore) {
                // Only compute-bound (prefill) FFN GEMMs go to the DLA;
                // decode FFN is weight-streaming-bound, and the DLA's
                // narrower DRAM interface would slow it down.
                side = &dla_side;
            }
            (side->*section).push_back(k);
        }
    }
    gpu_side.layers = cpu_side.layers = dla_side.layers = program.layers;

    hw::StepCost combined = soc_.execute(hw::Backend::Gpu, gpu_side);
    const Seconds gpu_seconds = combined.seconds;
    if (cpu_side.size() > 0) {
        const hw::StepCost cpu = soc_.execute(hw::Backend::Cpu,
                                              cpu_side);
        combined.seconds = std::max(combined.seconds, cpu.seconds);
        combined.actBytes += cpu.actBytes;
        combined.flops += cpu.flops;
    }
    if (dla_side.size() > 0) {
        const hw::StepCost dla = hw::replay(soc_.dla(), dla_side);
        combined.seconds = std::max(combined.seconds, dla.seconds);
        combined.weightBytes += dla.weightBytes;
        combined.actBytes += dla.actBytes;
        combined.flops += dla.flops;
        // The DLAs share the LPDDR5 bus with the GPU: no amount of
        // overlap can move the step's bytes faster than the bus.  The
        // bytes are summed in launch order.
        double total_bytes = 0.0;
        for (const auto &k : program.expand())
            total_bytes += k.weightBytes + k.actBytes;
        const double shared_floor = total_bytes /
            (soc_.gpu().effectivePeakBandwidth() *
             soc_.gpu().efficiency().bandwidthDecode);
        combined.seconds = std::max(combined.seconds, shared_floor);
    }
    if (combined.seconds > 0.0) {
        // Re-weight the utilization averages onto the combined time.
        const double rescale = gpu_seconds / combined.seconds;
        combined.avgBwUtil *= rescale;
        combined.avgComputeUtil *= rescale;
    }
    return combined;
}

InferenceEngine::StepTime
InferenceEngine::prefillCost(Tokens cached_prefix,
                             Tokens suffix_tokens) const
{
    return costCache_->readThrough(
        kPrefill, packStepKey("prefill", cached_prefix, suffix_tokens),
        [&] {
            const hw::StepCost c = executeKernels(prefillSuffixProgram(
                spec_, cached_prefix, suffix_tokens, config_.kernelOpts));
            return StepTime{c.seconds, c.avgBwUtil, c.avgComputeUtil};
        });
}

Seconds
InferenceEngine::prefillLatency(Tokens input_tokens) const
{
    return prefillSuffixLatency(0, input_tokens);
}

Seconds
InferenceEngine::prefillSuffixLatency(Tokens cached_prefix,
                                      Tokens suffix_tokens) const
{
    return prefillCost(cached_prefix, suffix_tokens).seconds +
        calib_.prefillEngineOverhead * overhead_.requestOverheadScale;
}

InferenceEngine::StepTime
InferenceEngine::decodeStepCost(Tokens context, int batch) const
{
    return costCache_->readThrough(
        kDecode, packStepKey("decode", context, batch), [&] {
            const hw::StepCost c = executeKernels(decodeProgram(
                spec_, context, batch, config_.kernelOpts));
            return StepTime{c.seconds + (calib_.decodeStepOverhead *
                                             overhead_.stepOverheadScale +
                                         overhead_.extraStepOverhead),
                            c.avgBwUtil, c.avgComputeUtil};
        });
}

Seconds
InferenceEngine::decodeStepLatency(Tokens context, int batch) const
{
    return decodeStepCost(context, batch).seconds;
}

PhaseMetrics
InferenceEngine::prefillOnly(Tokens input_tokens)
{
    const StepTime cost = prefillCost(0, input_tokens);

    PhaseMetrics m;
    m.tokens = input_tokens;
    m.seconds = (cost.seconds + calib_.prefillEngineOverhead *
                     overhead_.requestOverheadScale) *
        noiseFactor(calib_.prefillNoiseCv, rng_);
    m.avgPower = soc_.power().prefill(calib_.power, input_tokens) *
        noiseFactor(calib_.powerNoiseCv, rng_);
    m.energy = m.avgPower * m.seconds;
    m.bwUtil = cost.avgBwUtil;
    m.computeUtil = cost.avgComputeUtil;
    return m;
}

RequestResult
InferenceEngine::run(Tokens input_tokens, Tokens output_tokens, int batch)
{
    fatal_if(batch < 1, "batch must be >= 1");
    fatal_if(output_tokens < 0, "negative output length");

    RequestResult res;
    res.inputTokens = input_tokens;
    res.outputTokens = output_tokens;
    res.batch = batch;

    // --- KV accounting: prompt once, generated suffix per sample. ---
    std::vector<SeqId> seqs;
    const SeqId root = kv_.createSequence();
    seqs.push_back(root);
    fatal_if(!kv_.append(root, input_tokens),
             spec_.name, ": KV cache cannot hold a ", input_tokens,
             "-token prompt");
    for (int b = 1; b < batch; ++b)
        seqs.push_back(kv_.fork(root));

    // --- Prefill (batch 1). ---
    res.prefill = prefillOnly(input_tokens);

    // --- Decode at batch B. ---
    if (output_tokens > 0) {
        for (SeqId s : seqs) {
            if (!kv_.append(s, output_tokens)) {
                for (SeqId r : seqs)
                    kv_.release(r);
                fatal(spec_.name, ": KV cache exhausted decoding ",
                      output_tokens, " tokens x batch ", batch,
                      " at prompt ", input_tokens);
            }
        }

        const int ncp = std::max(
            2, std::min<int>(config_.decodeCheckpoints,
                             static_cast<int>(output_tokens) + 1));
        // Checkpoint contexts span [I, I + O - 1].
        std::vector<Tokens> ctx(ncp);
        std::vector<StepTime> cost(ncp);
        for (int i = 0; i < ncp; ++i) {
            const double frac = static_cast<double>(i) / (ncp - 1);
            ctx[i] = input_tokens + static_cast<Tokens>(
                std::llround(frac * std::max<Tokens>(
                    0, output_tokens - 1)));
            cost[i] = decodeStepCost(ctx[i], batch);
        }

        PhaseMetrics &d = res.decode;
        d.tokens = output_tokens * batch;
        double bw_acc = 0.0;
        double cu_acc = 0.0;
        for (int i = 0; i + 1 < ncp; ++i) {
            // Steps in this segment (last segment picks up remainder).
            const Tokens steps = (i + 2 == ncp)
                ? output_tokens -
                    static_cast<Tokens>(std::llround(
                        static_cast<double>(i) / (ncp - 1) *
                        output_tokens))
                : static_cast<Tokens>(std::llround(
                      static_cast<double>(i + 1) / (ncp - 1) *
                      output_tokens)) -
                    static_cast<Tokens>(std::llround(
                        static_cast<double>(i) / (ncp - 1) *
                        output_tokens));
            if (steps <= 0)
                continue;
            const Seconds seg_time = 0.5 *
                (cost[i].seconds + cost[i + 1].seconds) *
                static_cast<double>(steps);
            // Power is evaluated at the segment-midpoint output index.
            const Tokens o_mid = std::max<Tokens>(
                1, (ctx[i] + ctx[i + 1]) / 2 - input_tokens + 1);
            const Watts p = soc_.power().decode(calib_.power, o_mid,
                                                batch);
            d.seconds += seg_time;
            d.energy += p * seg_time;
            bw_acc += cost[i].avgBwUtil * seg_time;
            cu_acc += cost[i].avgComputeUtil * seg_time;
        }

        const double lat_noise = noiseFactor(calib_.decodeNoiseCv, rng_);
        const double pow_noise = noiseFactor(calib_.powerNoiseCv, rng_);
        d.seconds *= lat_noise;
        d.energy *= lat_noise * pow_noise;
        if (d.seconds > 0.0) {
            d.avgPower = d.energy / d.seconds;
            d.bwUtil = bw_acc / (d.seconds / lat_noise);
            d.computeUtil = cu_acc / (d.seconds / lat_noise);
        }

        if (config_.recordTbt) {
            res.tbtTrace.reserve(static_cast<std::size_t>(output_tokens));
            for (Tokens o = 0; o < output_tokens; ++o) {
                const double frac = output_tokens == 1 ? 0.0
                    : static_cast<double>(o) / (output_tokens - 1);
                const double pos = frac * (ncp - 1);
                const int lo = std::min(ncp - 2,
                                        static_cast<int>(pos));
                const double t = pos - lo;
                res.tbtTrace.push_back(
                    (cost[lo].seconds * (1.0 - t) +
                     cost[lo + 1].seconds * t) * lat_noise);
            }
        }
    }

    for (SeqId s : seqs)
        kv_.release(s);
    return res;
}

} // namespace engine
} // namespace edgereason
