/**
 * @file
 * Paged KV-cache manager in the style of vLLM's PagedAttention (the
 * paper's inference engine).  Token blocks are reference counted so that
 * parallel-scaling samples share the prompt prefix and copy-on-write
 * their generated suffixes.  Capacity accounting is against the Orin's
 * usable DRAM after the model weights are resident, which is what limits
 * batch size and context length on a 64 GB part.
 *
 * On top of the per-sequence pager sits an optional *cross-request radix
 * prefix index* (DESIGN.md §13): full blocks of retired prompts are
 * published under their chain hash (a hash of all token ids up to and
 * including that block, so one 64-bit key addresses a whole prefix
 * path), and later sequences whose workload-supplied hashes match attach
 * the shared physical blocks instead of recomputing them.  Index pages
 * hold one reference of their own and are reclaimed — never while a live
 * sequence still shares them — by a pluggable eviction policy when an
 * append would otherwise fail.
 */

#ifndef EDGEREASON_ENGINE_KV_CACHE_HH
#define EDGEREASON_ENGINE_KV_CACHE_HH

#include <cstdint>
#include <set>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/binio.hh"
#include "common/types.hh"
#include "model/transformer_spec.hh"

namespace edgereason {
namespace engine {

/** Opaque sequence handle. */
using SeqId = std::uint64_t;

/** Which index page to reclaim first when the pool is out of blocks. */
enum class PrefixEvictPolicy : std::uint8_t
{
    Lru = 0,  //!< least-recently-touched chain node first
    Cost = 1, //!< cheapest to rebuild (bytes × rebuild-prefill-seconds) first
};

const char *prefixEvictPolicyName(PrefixEvictPolicy p);

/** Configuration of the cross-request prefix index. */
struct PrefixCacheConfig
{
    bool enabled = false;
    PrefixEvictPolicy evict = PrefixEvictPolicy::Lru;
};

/** Lifetime counters of the prefix index. */
struct PrefixStats
{
    std::uint64_t hitBlocks = 0;      //!< blocks attached from the index
    std::uint64_t missBlocks = 0;     //!< hashed blocks that had to be built
    std::uint64_t insertedBlocks = 0; //!< blocks published at retire
    std::uint64_t evictions = 0;      //!< index pages reclaimed
    double hitTokens = 0.0;           //!< tokens served from the index
    double hitBytes = 0.0;            //!< bytes of KV reused from the index
    double missBytes = 0.0;           //!< bytes of KV rebuilt despite hashing
    double evictedBytes = 0.0;        //!< bytes of index pages reclaimed
};

/** Paged KV cache with block sharing and an optional prefix index. */
class KvCache
{
  public:
    /**
     * @param capacity_bytes  DRAM budget for KV blocks
     * @param spec  architecture (defines bytes per cached token)
     * @param block_tokens  tokens per block (vLLM default is 16)
     * @param prefix  cross-request prefix index configuration
     */
    KvCache(Bytes capacity_bytes, const model::TransformerSpec &spec,
            Tokens block_tokens = 16, PrefixCacheConfig prefix = {});

    /** Create an empty sequence. @return its handle. */
    SeqId createSequence();

    /**
     * Append @p n tokens to a sequence, allocating blocks as needed.
     * Shared (forked or prefix-indexed) tail blocks are copied on write.
     * When the prefix index is enabled and the pool is short, refcount-0
     * index pages are evicted (per the configured policy) before giving
     * up.
     *
     * @return true on success, false if the cache is out of blocks (the
     *   caller decides whether that is fatal or triggers preemption)
     */
    bool append(SeqId seq, Tokens n);

    /**
     * Fork a sequence for parallel sampling: the child shares all of the
     * parent's blocks (prefix sharing).  O(blocks) time.
     */
    SeqId fork(SeqId seq);

    /** Release a sequence and unreference its blocks. */
    void release(SeqId seq);

    /** @return logical token count of a sequence. */
    Tokens sequenceTokens(SeqId seq) const;
    /** @return number of physical blocks referenced by a sequence. */
    std::size_t sequenceBlocks(SeqId seq) const;

    /** @return physical blocks currently allocated. */
    std::size_t blocksInUse() const { return blocks_in_use_; }
    /** @return bytes of KV data physically resident. */
    Bytes bytesInUse() const;
    /** @return total block capacity. */
    std::size_t blockCapacity() const { return block_capacity_; }
    /** @return bytes one full block occupies. */
    Bytes blockBytes() const { return block_bytes_; }
    /** @return tokens per block. */
    Tokens blockTokens() const { return block_tokens_; }
    /** @return number of live sequences. */
    std::size_t sequenceCount() const { return seqs_.size(); }

    /**
     * Largest token count appendable right now to a FRESH (empty)
     * sequence: whole free blocks only.  A sequence with a partially
     * filled tail can take more (the tail slack) or less (a shared tail
     * must be copied first); use the SeqId overload for that.  When the
     * tail block is exactly full there is no slack — the next token
     * opens a new block — so both overloads agree at block boundaries.
     */
    Tokens freeTokenCapacity() const;

    /**
     * Largest @p n for which append(seq, n) would succeed right now.
     * Accounts for the sequence's tail block: an unshared partial tail
     * adds its remaining slack, a shared partial tail costs one block to
     * copy-on-write before its slack is writable, and an exactly-full
     * tail contributes nothing (semantically identical to the no-tail
     * case — this is the block-boundary condition the no-arg overload is
     * documented against).
     */
    Tokens freeTokenCapacity(SeqId seq) const;

    /** @return total token capacity (blockCapacity * blockTokens). */
    Tokens tokenCapacity() const
    {
        return static_cast<Tokens>(block_capacity_) * block_tokens_;
    }

    // --- Cross-request prefix index (DESIGN.md §13) -------------------

    /** @return true when the radix prefix index is active. */
    bool prefixEnabled() const { return prefix_.enabled; }
    /** @return the index configuration. */
    const PrefixCacheConfig &prefixConfig() const { return prefix_; }
    /** @return lifetime hit/miss/eviction counters. */
    const PrefixStats &prefixStats() const { return pstats_; }
    /** @return number of blocks currently held by the index. */
    std::size_t indexedBlocks() const;

    /**
     * Longest indexed prefix of @p hashes, in tokens, without touching
     * recency state.  @p max_tokens caps the answer (pass prompt-1 so at
     * least one token is always recomputed, vLLM-style).
     */
    Tokens peekPrefix(const std::vector<std::uint64_t> &hashes,
                      Tokens max_tokens) const;

    /**
     * Attach the longest indexed prefix of @p hashes to @p seq, which
     * must be empty: each matched index page gains a reference and
     * becomes part of the sequence (copy-on-write protects it from later
     * suffix writes).  Touches the matched chain for LRU and updates
     * hit/miss stats.  @return tokens attached (multiple of blockTokens,
     * capped at @p max_tokens).
     */
    Tokens acquirePrefix(SeqId seq, const std::vector<std::uint64_t> &hashes,
                         Tokens max_tokens);

    /**
     * Publish the full prompt blocks of @p seq into the index under
     * @p hashes (chain hash of block i covers tokens [0, (i+1)·B)).
     * Called at retire, before the sequence is released.  Blocks already
     * indexed are de-duplicated (the index keeps its copy); fresh ones
     * gain an index reference so they survive the release.
     * @p rebuild_seconds[i] is the prefill cost of rebuilding block i
     * (the cost-aware eviction score); must match @p hashes in length.
     * @return number of newly indexed blocks.
     */
    std::size_t insertPrefix(SeqId seq,
                             std::span<const std::uint64_t> hashes,
                             std::span<const double> rebuild_seconds);

    /**
     * Conservation audit of the whole pool (paranoid mode, invariant 9):
     * every block's refcount equals the number of sequences referencing
     * it plus its index references, free-list blocks are dead,
     * blocksInUse() matches the live census, and every index page is a
     * full block.  The ordered leaf set must hold exactly the live
     * childless nodes under keys matching their current fields, and its
     * first reclaimable entry must be the victim a brute-force scan of
     * the node table picks.  panic()s on violation.
     */
    void auditConservation() const;

    /**
     * Checkpoint field list of the full allocation state (blocks, free
     * list, sequences, next handle) in a canonical order, so two caches
     * holding the same state emit identical bytes.  When the prefix
     * index is enabled its node table follows, sorted by (depth, hash)
     * — again canonical.  Geometry (capacity, block size) is written
     * too.  Reading fatal()s if the geometry does not match this
     * instance — restoring onto a differently-sized cache would corrupt
     * accounting — if the prefix-index section is missing/mismatched
     * (mode or eviction policy differs from this instance's
     * configuration), or on an out-of-range block, page or parent.
     */
    template <class Ar>
    void io(Ar &a);

  private:
    struct Block
    {
        int refcount = 0;
        Tokens filled = 0; //!< tokens stored in this block
    };

    struct Sequence
    {
        std::vector<std::uint32_t> blocks;
        Tokens tokens = 0;
    };

    static constexpr std::uint32_t kNoNode = 0xffffffffu;

    /**
     * One radix-tree node.  The tree over block-aligned prefixes is
     * stored as a hash map keyed by chain hash: because a chain hash
     * already encodes the full token path from the root, child lookup is
     * a single map probe and the explicit structure only needs parent
     * links (for child counting) and depth (for canonical ordering).
     */
    struct PrefixNode
    {
        std::uint64_t hash = 0;       //!< chain hash of blocks [0, depth]
        std::uint32_t block = 0;      //!< physical page (holds one ref)
        std::uint32_t parent = kNoNode;
        std::uint32_t depth = 0;      //!< block index within the prefix
        std::uint32_t children = 0;   //!< live child count (leaf == 0)
        std::uint64_t lastTouch = 0;  //!< logical clock of last hit
        std::uint64_t insertSeq = 0;  //!< logical clock of insertion
        double rebuildSeconds = 0.0;  //!< prefill cost to rebuild this block
        bool live = false;
    };

    /**
     * Position of a leaf in eviction order: the policy's primary score
     * (bytes × rebuild-seconds under cost, 0 under LRU), then recency,
     * then insertion order, then node id.  Both clocks are strictly
     * monotone, so the id never decides between two live leaves.
     */
    struct LeafKey
    {
        double cost;
        std::uint64_t lastTouch;
        std::uint64_t insertSeq;
        std::uint32_t id;

        bool operator<(const LeafKey &o) const
        {
            return std::tie(cost, lastTouch, insertSeq, id) <
                std::tie(o.cost, o.lastTouch, o.insertSeq, o.id);
        }
    };

    std::uint32_t allocBlock();
    void unref(std::uint32_t block);
    bool evictOnePrefixBlock();
    LeafKey leafKey(std::uint32_t nid) const;
    void touchPrefixNode(std::uint32_t nid);

    Tokens block_tokens_;
    Bytes block_bytes_;
    std::size_t block_capacity_;
    std::size_t blocks_in_use_ = 0;
    std::vector<Block> blocks_;
    std::vector<std::uint32_t> free_list_;
    std::unordered_map<SeqId, Sequence> seqs_;
    SeqId next_seq_ = 1;

    PrefixCacheConfig prefix_;
    PrefixStats pstats_;
    std::vector<PrefixNode> nodes_;
    std::vector<std::uint32_t> node_free_;
    std::unordered_map<std::uint64_t, std::uint32_t> by_hash_;
    /** Live childless nodes in eviction order (DESIGN.md §13). */
    std::set<LeafKey> leaves_;
    std::uint64_t touch_clock_ = 0;
    std::uint64_t insert_clock_ = 0;
};

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_KV_CACHE_HH
