#include "engine/kv_cache.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace edgereason {
namespace engine {

namespace {

/** Serialized prefix-index section marker ("PRFX"). */
constexpr std::uint32_t kPrefixIndexMagic = 0x58465250u;

} // namespace

const char *
prefixEvictPolicyName(PrefixEvictPolicy p)
{
    switch (p) {
      case PrefixEvictPolicy::Lru:
        return "lru";
      case PrefixEvictPolicy::Cost:
        return "cost";
    }
    return "?";
}

KvCache::KvCache(Bytes capacity_bytes, const model::TransformerSpec &spec,
                 Tokens block_tokens, PrefixCacheConfig prefix)
    : block_tokens_(block_tokens), prefix_(prefix)
{
    fatal_if(block_tokens < 1, "block size must be >= 1 token");
    fatal_if(capacity_bytes <= 0, "KV cache capacity must be positive");
    block_bytes_ = static_cast<Bytes>(
        spec.kvBytesPerToken() * static_cast<double>(block_tokens));
    fatal_if(block_bytes_ <= 0, "degenerate block byte size");
    block_capacity_ = static_cast<std::size_t>(
        capacity_bytes / block_bytes_);
    fatal_if(block_capacity_ == 0,
             "KV capacity ", capacity_bytes, " B too small for one block (",
             block_bytes_, " B) of ", spec.name);
}

SeqId
KvCache::createSequence()
{
    const SeqId id = next_seq_++;
    seqs_.emplace(id, Sequence{});
    return id;
}

std::uint32_t
KvCache::allocBlock()
{
    panic_if(blocks_in_use_ >= block_capacity_,
             "allocBlock called with no free capacity");
    ++blocks_in_use_;
    if (!free_list_.empty()) {
        const std::uint32_t b = free_list_.back();
        free_list_.pop_back();
        blocks_[b] = Block{1, 0};
        return b;
    }
    blocks_.push_back(Block{1, 0});
    return static_cast<std::uint32_t>(blocks_.size() - 1);
}

void
KvCache::unref(std::uint32_t block)
{
    Block &b = blocks_.at(block);
    panic_if(b.refcount <= 0, "unref of dead block");
    if (--b.refcount == 0) {
        --blocks_in_use_;
        free_list_.push_back(block);
    }
}

bool
KvCache::append(SeqId seq, Tokens n)
{
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "append to unknown sequence ", seq);
    panic_if(n < 0, "negative append");
    Sequence &s = it->second;
    if (n == 0)
        return true;

    // Appends are transactional: compute the block demand up front and
    // reject without mutating when it cannot be met (callers rely on
    // "false" meaning "nothing happened").
    Tokens tail_space = 0;
    bool cow_needed = false;
    if (!s.blocks.empty()) {
        const Block &tail = blocks_[s.blocks.back()];
        if (tail.filled < block_tokens_) {
            tail_space = block_tokens_ - tail.filled;
            cow_needed = tail.refcount > 1;
        }
    }
    const Tokens beyond_tail = std::max<Tokens>(0, n - tail_space);
    const std::size_t new_blocks =
        static_cast<std::size_t>((beyond_tail + block_tokens_ - 1) /
                                 block_tokens_) +
        (cow_needed ? 1 : 0);
    // Under pressure, reclaim unreferenced index pages before rejecting;
    // eviction never touches a page a live sequence still shares.
    if (prefix_.enabled) {
        while (blocks_in_use_ + new_blocks > block_capacity_ &&
               evictOnePrefixBlock()) {
        }
    }
    if (blocks_in_use_ + new_blocks > block_capacity_)
        return false;

    while (n > 0) {
        // Copy-on-write the tail block if it is shared or missing/full.
        bool need_block = s.blocks.empty();
        if (!need_block) {
            const Block &tail = blocks_[s.blocks.back()];
            need_block = tail.filled >= block_tokens_;
        }
        bool need_cow = false;
        if (!need_block) {
            const Block &tail = blocks_[s.blocks.back()];
            need_cow = tail.refcount > 1;
        }
        if (need_block || need_cow) {
            panic_if(blocks_in_use_ >= block_capacity_,
                     "append pre-check admitted an unservable append");
            const Tokens keep = need_cow
                ? blocks_[s.blocks.back()].filled : 0;
            const std::uint32_t nb = allocBlock();
            if (need_cow) {
                blocks_[nb].filled = keep;
                unref(s.blocks.back());
                s.blocks.back() = nb;
            } else {
                s.blocks.push_back(nb);
            }
        }
        Block &tail = blocks_[s.blocks.back()];
        const Tokens space = block_tokens_ - tail.filled;
        const Tokens take = std::min(space, n);
        tail.filled += take;
        s.tokens += take;
        n -= take;
    }
    return true;
}

SeqId
KvCache::fork(SeqId seq)
{
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "fork of unknown sequence ", seq);
    const SeqId id = next_seq_++;
    Sequence child = it->second;
    for (std::uint32_t b : child.blocks)
        ++blocks_[b].refcount;
    seqs_.emplace(id, std::move(child));
    return id;
}

void
KvCache::release(SeqId seq)
{
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "release of unknown sequence ", seq);
    for (std::uint32_t b : it->second.blocks)
        unref(b);
    seqs_.erase(it);
}

Tokens
KvCache::sequenceTokens(SeqId seq) const
{
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "unknown sequence ", seq);
    return it->second.tokens;
}

std::size_t
KvCache::sequenceBlocks(SeqId seq) const
{
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "unknown sequence ", seq);
    return it->second.blocks.size();
}

Bytes
KvCache::bytesInUse() const
{
    return static_cast<Bytes>(blocks_in_use_) * block_bytes_;
}

Tokens
KvCache::freeTokenCapacity() const
{
    const std::size_t free_blocks = block_capacity_ - blocks_in_use_;
    return static_cast<Tokens>(free_blocks) * block_tokens_;
}

Tokens
KvCache::freeTokenCapacity(SeqId seq) const
{
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "unknown sequence ", seq);
    const Sequence &s = it->second;
    const Tokens whole = freeTokenCapacity();
    if (s.blocks.empty())
        return whole;
    const Block &tail = blocks_[s.blocks.back()];
    if (tail.filled >= block_tokens_)
        return whole; // exactly-full tail: no slack, next token opens a block
    const Tokens slack = block_tokens_ - tail.filled;
    if (tail.refcount <= 1)
        return whole + slack;
    // Shared partial tail: the first write copies it, consuming one free
    // block whose usable space is only the slack.
    if (whole == 0)
        return 0;
    return whole - tail.filled;
}

// --- Cross-request prefix index --------------------------------------

std::size_t
KvCache::indexedBlocks() const
{
    return by_hash_.size();
}

Tokens
KvCache::peekPrefix(const std::vector<std::uint64_t> &hashes,
                    Tokens max_tokens) const
{
    if (!prefix_.enabled)
        return 0;
    Tokens matched = 0;
    for (std::size_t i = 0; i < hashes.size(); ++i) {
        if (matched + block_tokens_ > max_tokens)
            break;
        const auto f = by_hash_.find(hashes[i]);
        if (f == by_hash_.end())
            break;
        matched += block_tokens_;
    }
    return matched;
}

Tokens
KvCache::acquirePrefix(SeqId seq, const std::vector<std::uint64_t> &hashes,
                       Tokens max_tokens)
{
    if (!prefix_.enabled)
        return 0;
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "acquirePrefix on unknown sequence ", seq);
    Sequence &s = it->second;
    panic_if(!s.blocks.empty() || s.tokens != 0,
             "acquirePrefix requires an empty sequence");
    const std::size_t usable = std::min<std::size_t>(
        hashes.size(),
        static_cast<std::size_t>(
            std::max<Tokens>(0, max_tokens) / block_tokens_));
    std::size_t matched = 0;
    for (std::size_t i = 0; i < usable; ++i) {
        const auto f = by_hash_.find(hashes[i]);
        if (f == by_hash_.end())
            break;
        const PrefixNode &nd = nodes_[f->second];
        panic_if(nd.depth != i, "prefix chain depth mismatch");
        touchPrefixNode(f->second);
        ++blocks_[nd.block].refcount;
        s.blocks.push_back(nd.block);
        s.tokens += block_tokens_;
        ++matched;
    }
    pstats_.hitBlocks += matched;
    pstats_.missBlocks += usable - matched;
    pstats_.hitTokens +=
        static_cast<double>(matched) * static_cast<double>(block_tokens_);
    pstats_.hitBytes +=
        static_cast<double>(matched) * static_cast<double>(block_bytes_);
    pstats_.missBytes += static_cast<double>(usable - matched) *
        static_cast<double>(block_bytes_);
    return static_cast<Tokens>(matched) * block_tokens_;
}

std::size_t
KvCache::insertPrefix(SeqId seq, std::span<const std::uint64_t> hashes,
                      std::span<const double> rebuild_seconds)
{
    if (!prefix_.enabled || hashes.empty())
        return 0;
    fatal_if(rebuild_seconds.size() != hashes.size(),
             "insertPrefix: rebuild cost vector length mismatch (",
             rebuild_seconds.size(), " vs ", hashes.size(), " hashes)");
    fatal_if(std::any_of(rebuild_seconds.begin(), rebuild_seconds.end(),
                         [](double x) { return std::isnan(x); }),
             "insertPrefix: NaN rebuild cost");
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "insertPrefix on unknown sequence ", seq);
    const Sequence &s = it->second;
    const std::size_t n = std::min(hashes.size(), s.blocks.size());
    std::uint32_t parent = kNoNode;
    std::size_t inserted = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t b = s.blocks[i];
        if (blocks_[b].filled != block_tokens_)
            break; // only full blocks are content-addressable
        const auto f = by_hash_.find(hashes[i]);
        if (f != by_hash_.end()) {
            // Already indexed (possibly via another physical copy); the
            // index keeps its page, we just refresh recency and descend.
            panic_if(nodes_[f->second].depth != i,
                     "prefix chain depth mismatch");
            touchPrefixNode(f->second);
            parent = f->second;
            continue;
        }
        std::uint32_t nid;
        if (!node_free_.empty()) {
            nid = node_free_.back();
            node_free_.pop_back();
        } else {
            nid = static_cast<std::uint32_t>(nodes_.size());
            nodes_.emplace_back();
        }
        PrefixNode &nd = nodes_[nid];
        nd = PrefixNode{};
        nd.hash = hashes[i];
        nd.block = b;
        nd.parent = parent;
        nd.depth = static_cast<std::uint32_t>(i);
        nd.children = 0;
        nd.lastTouch = ++touch_clock_;
        nd.insertSeq = ++insert_clock_;
        nd.rebuildSeconds = rebuild_seconds[i];
        nd.live = true;
        ++blocks_[b].refcount; // the index's own reference
        if (parent != kNoNode && nodes_[parent].children++ == 0) {
            const bool was_leaf = leaves_.erase(leafKey(parent)) == 1;
            panic_if(!was_leaf, "prefix leaf set lost node ", parent);
        }
        leaves_.insert(leafKey(nid));
        by_hash_.emplace(hashes[i], nid);
        parent = nid;
        ++inserted;
        ++pstats_.insertedBlocks;
    }
    return inserted;
}

KvCache::LeafKey
KvCache::leafKey(std::uint32_t nid) const
{
    const PrefixNode &nd = nodes_[nid];
    // Cost-aware: reclaim the cheapest page first, where cost is
    // bytes × rebuild-prefill-seconds.  LRU orders on recency alone.
    const double cost = prefix_.evict == PrefixEvictPolicy::Cost
        ? static_cast<double>(block_bytes_) * nd.rebuildSeconds
        : 0.0;
    return LeafKey{cost, nd.lastTouch, nd.insertSeq, nid};
}

void
KvCache::touchPrefixNode(std::uint32_t nid)
{
    // Every recency update goes through here, so a leaf's stored key
    // never goes stale: the leaf is lifted out of the set, re-keyed and
    // put back.  Interior nodes are not in the set.
    PrefixNode &nd = nodes_[nid];
    if (nd.children != 0) {
        nd.lastTouch = ++touch_clock_;
        return;
    }
    auto h = leaves_.extract(leafKey(nid));
    panic_if(h.empty(), "prefix leaf set lost node ", nid);
    nd.lastTouch = ++touch_clock_;
    h.value().lastTouch = nd.lastTouch;
    leaves_.insert(std::move(h));
}

bool
KvCache::evictOnePrefixBlock()
{
    // Victim: the first leaf in policy order whose page only the index
    // references (refcount 1).  Interior nodes are never reclaimed
    // before their descendants, and pages shared with live sequences
    // are never reclaimed at all; the walk skips only those shared
    // leaves.
    auto it = leaves_.begin();
    while (it != leaves_.end() &&
           blocks_[nodes_[it->id].block].refcount != 1)
        ++it;
    if (it == leaves_.end())
        return false;
    const std::uint32_t victim = it->id;
    leaves_.erase(it);
    PrefixNode &nd = nodes_[victim];
    by_hash_.erase(nd.hash);
    if (nd.parent != kNoNode && --nodes_[nd.parent].children == 0)
        leaves_.insert(leafKey(nd.parent));
    unref(nd.block);
    nd.live = false;
    node_free_.push_back(victim);
    ++pstats_.evictions;
    pstats_.evictedBytes += static_cast<double>(block_bytes_);
    return true;
}

void
KvCache::auditConservation() const
{
    std::vector<std::int64_t> refs(blocks_.size(), 0);
    for (const auto &[id, s] : seqs_)
        for (std::uint32_t b : s.blocks)
            ++refs[b];
    std::size_t live_nodes = 0;
    std::vector<std::uint32_t> child_census(nodes_.size(), 0);
    for (const PrefixNode &nd : nodes_) {
        if (!nd.live)
            continue;
        ++live_nodes;
        ++refs[nd.block];
        panic_if(blocks_[nd.block].filled != block_tokens_,
                 "prefix audit: index page ", nd.block, " not full");
        const auto f = by_hash_.find(nd.hash);
        panic_if(f == by_hash_.end() || !(nodes_[f->second].hash == nd.hash),
                 "prefix audit: live node missing from hash map");
        if (nd.parent != kNoNode) {
            panic_if(!nodes_[nd.parent].live,
                     "prefix audit: dangling parent link");
            ++child_census[nd.parent];
        }
    }
    panic_if(live_nodes != by_hash_.size(),
             "prefix audit: node/map census mismatch (", live_nodes,
             " live nodes vs ", by_hash_.size(), " keys)");
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        panic_if(nodes_[i].live && nodes_[i].children != child_census[i],
                 "prefix audit: child count drift at node ", i);
    // The eviction set holds exactly the live leaves, each under the key
    // its current fields give it (distinct ids make keys distinct, so
    // membership plus equal size is set equality).
    std::size_t leaf_census = 0;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(nodes_.size()); ++i) {
        if (!nodes_[i].live || nodes_[i].children != 0)
            continue;
        ++leaf_census;
        panic_if(leaves_.count(leafKey(i)) != 1,
                 "prefix audit: leaf ", i,
                 " missing from the eviction set or keyed stale");
    }
    panic_if(leaf_census != leaves_.size(),
             "prefix audit: eviction set holds ", leaves_.size(),
             " entries for ", leaf_census, " leaves");
    // Cross-check the set's choice against a brute-force scan of the
    // node table: the reclaimable leaf with the least policy score,
    // ties broken by (lastTouch, insertSeq).
    std::uint32_t scan = kNoNode;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(nodes_.size()); ++i) {
        const PrefixNode &nd = nodes_[i];
        if (!nd.live || nd.children != 0 ||
            blocks_[nd.block].refcount != 1)
            continue;
        if (scan == kNoNode) {
            scan = i;
            continue;
        }
        const PrefixNode &v = nodes_[scan];
        const bool lru_before = nd.lastTouch < v.lastTouch ||
            (nd.lastTouch == v.lastTouch && nd.insertSeq < v.insertSeq);
        bool better = lru_before;
        if (prefix_.evict == PrefixEvictPolicy::Cost) {
            const double ca = static_cast<double>(block_bytes_) *
                nd.rebuildSeconds;
            const double cb = static_cast<double>(block_bytes_) *
                v.rebuildSeconds;
            better = ca < cb || (ca == cb && lru_before);
        }
        if (better)
            scan = i;
    }
    std::uint32_t first = kNoNode;
    for (const LeafKey &k : leaves_) {
        if (blocks_[nodes_[k.id].block].refcount == 1) {
            first = k.id;
            break;
        }
    }
    panic_if(first != scan, "prefix audit: eviction set picks node ",
             first, " but a scan of the node table picks ", scan);
    std::size_t in_use = 0;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        panic_if(refs[b] != blocks_[b].refcount,
                 "prefix audit: block ", b, " refcount ",
                 blocks_[b].refcount, " != ", refs[b],
                 " (sequence + index references)");
        if (blocks_[b].refcount > 0)
            ++in_use;
    }
    panic_if(in_use != blocks_in_use_,
             "prefix audit: blocksInUse ", blocks_in_use_,
             " != live census ", in_use);
    for (std::uint32_t f : free_list_)
        panic_if(blocks_[f].refcount != 0,
                 "prefix audit: free-list block ", f, " still referenced");
}

template <class Ar>
void
KvCache::io(Ar &a)
{
    const auto refuse = [&](bool bad, const auto &...msg) {
        fatalAt(a, bad, "KvCache restore: ", msg...);
    };
    // Geometry is on the wire to be checked, never read into the cache.
    Tokens blockTokens = block_tokens_;
    Bytes blockBytes = block_bytes_;
    std::uint64_t blockCap = block_capacity_;
    a.i64(blockTokens);
    a.i64(blockBytes);
    a.u64(blockCap);
    refuse(blockTokens != block_tokens_ || blockBytes != block_bytes_ ||
               blockCap != block_capacity_,
           "geometry mismatch (checkpoint ", blockCap, " blocks of ",
           blockTokens, " tokens vs instance ", block_capacity_,
           " blocks of ", block_tokens_, " tokens)");
    a.u64(blocks_in_use_);
    a.u64(next_seq_);
    a.seq(blocks_, 12, [&](Block &b) {
        a.u32(b.refcount);
        a.i64(b.filled);
    });
    a.seq(free_list_, 4, [&](std::uint32_t &f) { a.u32(f); });
    // unordered_map iteration order is not deterministic; sequences go
    // out sorted by handle so identical states produce identical bytes.
    std::vector<std::pair<SeqId, Sequence>> seqs;
    if constexpr (!Ar::kReading) {
        seqs.assign(seqs_.begin(), seqs_.end());
        std::sort(seqs.begin(), seqs.end(),
                  [](const auto &x, const auto &y) {
                      return x.first < y.first;
                  });
    }
    a.seq(seqs, 24, [&](std::pair<SeqId, Sequence> &s) {
        a.u64(s.first);
        a.i64(s.second.tokens);
        a.seq(s.second.blocks, 4, [&](std::uint32_t &b) { a.u32(b); });
    });
    if constexpr (Ar::kReading) {
        refuse(blocks_in_use_ > block_capacity_, "blocks_in_use overflow");
        for (const Block &b : blocks_)
            refuse(b.refcount < 0 || b.filled < 0 || b.filled > block_tokens_,
                   "corrupt block record");
        for (const std::uint32_t f : free_list_)
            refuse(f >= blocks_.size(), "free-list entry ", f,
                   " out of range");
        seqs_.clear();
        seqs_.reserve(seqs.size());
        for (auto &[id, s] : seqs) {
            for (const std::uint32_t b : s.blocks)
                refuse(b >= blocks_.size(), "sequence block out of range");
            refuse(!seqs_.emplace(id, std::move(s)).second,
                   "duplicate sequence ", id);
        }
    }

    // Prefix-index section.  Nodes go out sorted by (depth, hash) so two
    // caches holding the same logical index emit identical bytes, and so
    // every node's parent precedes it on a read.
    struct WireNode
    {
        PrefixNode nd;
        bool hasParent = false;
        std::uint64_t parentHash = 0;
    };
    std::vector<WireNode> wire;
    if (prefix_.enabled) {
        std::uint32_t magic = kPrefixIndexMagic;
        a.u32(magic);
        refuse(magic != kPrefixIndexMagic,
               "prefix-index section missing — checkpoint written "
               "without --prefix-cache?");
        PrefixEvictPolicy evict = prefix_.evict;
        a.enum8(evict, PrefixEvictPolicy::Cost);
        refuse(evict != prefix_.evict,
               "eviction policy mismatch (checkpoint ",
               prefixEvictPolicyName(evict), " vs instance ",
               prefixEvictPolicyName(prefix_.evict), ")");
        a.u64(touch_clock_);
        a.u64(insert_clock_);
        a.u64(pstats_.hitBlocks);
        a.u64(pstats_.missBlocks);
        a.u64(pstats_.insertedBlocks);
        a.u64(pstats_.evictions);
        a.f64(pstats_.hitTokens);
        a.f64(pstats_.hitBytes);
        a.f64(pstats_.missBytes);
        a.f64(pstats_.evictedBytes);
        if constexpr (!Ar::kReading) {
            std::vector<std::uint32_t> live;
            live.reserve(by_hash_.size());
            for (std::uint32_t i = 0;
                 i < static_cast<std::uint32_t>(nodes_.size()); ++i)
                if (nodes_[i].live)
                    live.push_back(i);
            std::sort(live.begin(), live.end(),
                      [this](std::uint32_t x, std::uint32_t y) {
                          if (nodes_[x].depth != nodes_[y].depth)
                              return nodes_[x].depth < nodes_[y].depth;
                          return nodes_[x].hash < nodes_[y].hash;
                      });
            for (const std::uint32_t i : live) {
                const PrefixNode &nd = nodes_[i];
                const bool root = nd.parent == kNoNode;
                wire.push_back(
                    {nd, !root, root ? 0 : nodes_[nd.parent].hash});
            }
        }
        a.seq(wire, 49, [&](WireNode &w) {
            a.u64(w.nd.hash);
            a.flag(w.hasParent);
            a.u64(w.parentHash);
            a.u32(w.nd.block);
            a.u32(w.nd.depth);
            a.u64(w.nd.lastTouch);
            a.u64(w.nd.insertSeq);
            a.f64(w.nd.rebuildSeconds);
        });
    }
    if constexpr (Ar::kReading) {
        // Node ids are reassigned in wire order; the parent links, child
        // counts and both indexes are rebuilt from the hashes.
        nodes_.clear();
        node_free_.clear();
        by_hash_.clear();
        leaves_.clear();
        nodes_.reserve(wire.size());
        by_hash_.reserve(wire.size());
        for (const WireNode &w : wire) {
            PrefixNode nd = w.nd;
            nd.live = true;
            refuse(std::isnan(nd.rebuildSeconds), "NaN index rebuild cost");
            refuse(nd.block >= blocks_.size(), "index page out of range");
            refuse(blocks_[nd.block].refcount < 1 ||
                       blocks_[nd.block].filled != block_tokens_,
                   "index page ", nd.block, " not a live full block");
            if (w.hasParent) {
                const auto p = by_hash_.find(w.parentHash);
                refuse(p == by_hash_.end(), "index node parent missing");
                nd.parent = p->second;
                ++nodes_[p->second].children;
            } else {
                refuse(nd.depth != 0, "non-root node without parent");
            }
            const auto nid = static_cast<std::uint32_t>(nodes_.size());
            refuse(!by_hash_.emplace(nd.hash, nid).second,
                   "duplicate index hash");
            nodes_.push_back(nd);
        }
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(nodes_.size()); ++i)
            if (nodes_[i].children == 0)
                leaves_.insert(leafKey(i));
    }
}

template void KvCache::io(ByteWriter &);
template void KvCache::io(ByteReader &);

} // namespace engine
} // namespace edgereason
