/**
 * @file
 * Shared-prefix KV reuse suite (DESIGN.md §13).  Covers the radix
 * prefix index inside KvCache (match/acquire/insert/evict, refcounted
 * COW pages, both eviction policies, conservation auditing, canonical
 * serialization with geometry/mode fatals), the freeTokenCapacity()
 * tail-block semantics (including the exactly-full boundary), the
 * multi-turn session workload generator (checked field for field
 * against the string-built reference generator), TTFT improvement from
 * turn 2 onward when the cache is on, checkpoint-crash-resume exactness
 * of a prefix-cached run, and — the refactor's hard contract — a
 * pre-refactor golden matrix proving that with the prefix cache off
 * (the default) not one reported bit moved, plus session-path goldens
 * (lru and cost eviction, report fields and checkpoint bytes).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "accuracy/trace_gen.hh"
#include "common/binio.hh"
#include "common/rng.hh"
#include "engine/checkpoint.hh"
#include "engine/faults.hh"
#include "engine/kv_cache.hh"
#include "engine/server.hh"
#include "model/zoo.hh"

namespace er = edgereason;
using namespace er::engine;
using er::Seconds;
using er::Tokens;
using er::model::ModelId;
namespace fs = std::filesystem;

namespace {

KvCache
prefixCache(std::size_t blocks,
            PrefixEvictPolicy evict = PrefixEvictPolicy::Lru)
{
    const auto s = er::model::spec(ModelId::Dsr1Qwen1_5B);
    PrefixCacheConfig pc;
    pc.enabled = true;
    pc.evict = evict;
    return KvCache(static_cast<er::Bytes>(s.kvBytesPerToken() * 16.0 *
                                          static_cast<double>(blocks)),
                   s, 16, pc);
}

/** Distinct, deterministic chain hashes h1..hn for a test prefix. */
std::vector<std::uint64_t>
testHashes(std::size_t n, const std::string &tag = "p")
{
    std::vector<std::uint64_t> h;
    h.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        h.push_back(er::Rng::hashString(tag + std::to_string(i)));
    return h;
}

std::vector<double>
unitCosts(std::size_t n, double c = 1.0)
{
    return std::vector<double>(n, c);
}

/** Build a sequence of @p tokens, publish its full blocks under
 *  @p hashes, release it.  Mirrors the executor's retire path. */
void
seedPrefix(KvCache &c, const std::vector<std::uint64_t> &hashes,
           Tokens tokens, double cost = 1.0)
{
    const SeqId s = c.createSequence();
    ASSERT_TRUE(c.append(s, tokens));
    c.insertPrefix(s, hashes, unitCosts(hashes.size(), cost));
    c.release(s);
}

InferenceEngine
makeEngine()
{
    EngineConfig cfg;
    cfg.measurementNoise = false;
    return InferenceEngine(er::model::spec(ModelId::DeepScaleR1_5B),
                           er::model::calibration(
                               ModelId::DeepScaleR1_5B),
                           cfg);
}

er::perf::LatencyModel
toyModel()
{
    er::perf::LatencyModel m;
    m.prefill.a = 0.0;
    m.prefill.b = 1e-4;
    m.prefill.c = 0.01;
    m.decode.m = 1e-6;
    m.decode.n = 0.02;
    return m;
}

std::string
scratchDir(const std::string &tag)
{
    const auto dir =
        fs::temp_directory_path() / ("edgereason_prefix_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

} // namespace

// --- Prefix index: match / acquire / insert ---------------------------

TEST(PrefixIndex, InsertThenAcquireSharesBlocks)
{
    auto c = prefixCache(64);
    const auto hashes = testHashes(4);
    seedPrefix(c, hashes, 64); // 4 full blocks
    EXPECT_EQ(c.indexedBlocks(), 4u);
    EXPECT_EQ(c.blocksInUse(), 4u); // index keeps the pages alive

    const SeqId s = c.createSequence();
    EXPECT_EQ(c.peekPrefix(hashes, 1000), 64);
    const Tokens got = c.acquirePrefix(s, hashes, 1000);
    EXPECT_EQ(got, 64);
    EXPECT_EQ(c.sequenceTokens(s), 64);
    EXPECT_EQ(c.sequenceBlocks(s), 4u);
    // Shared, not copied: still 4 physical blocks.
    EXPECT_EQ(c.blocksInUse(), 4u);
    EXPECT_EQ(c.prefixStats().hitBlocks, 4u);
    c.auditConservation();
}

TEST(PrefixIndex, MaxTokensCapsTheMatch)
{
    auto c = prefixCache(64);
    const auto hashes = testHashes(4);
    seedPrefix(c, hashes, 64);
    // The vLLM recompute-last-token rule: a 64-token prompt passes
    // max_tokens = 63, which truncates the match to 3 blocks.
    EXPECT_EQ(c.peekPrefix(hashes, 63), 48);
    const SeqId s = c.createSequence();
    EXPECT_EQ(c.acquirePrefix(s, hashes, 63), 48);
    EXPECT_EQ(c.sequenceBlocks(s), 3u);
    c.auditConservation();
}

TEST(PrefixIndex, DivergentChainStopsAtFirstMismatch)
{
    auto c = prefixCache(64);
    const auto hashes = testHashes(4);
    seedPrefix(c, hashes, 64);
    auto forked = hashes;
    forked[2] = er::Rng::hashString("divergent");
    forked[3] = er::Rng::hashString("divergent2");
    EXPECT_EQ(c.peekPrefix(forked, 1000), 32); // first two blocks only
}

TEST(PrefixIndex, PartialTailBlockIsNeverIndexed)
{
    auto c = prefixCache(64);
    const SeqId s = c.createSequence();
    ASSERT_TRUE(c.append(s, 40)); // 2 full blocks + 8-token tail
    const auto hashes = testHashes(3);
    EXPECT_EQ(c.insertPrefix(s, hashes, unitCosts(3)), 2u);
    EXPECT_EQ(c.indexedBlocks(), 2u);
    c.release(s);
    c.auditConservation();
}

TEST(PrefixIndex, ReinsertIsDeduplicated)
{
    auto c = prefixCache(64);
    const auto hashes = testHashes(4);
    seedPrefix(c, hashes, 64);
    EXPECT_EQ(c.indexedBlocks(), 4u);
    const std::size_t before = c.blocksInUse();
    // A second request with the same prompt retires: nothing new.
    const SeqId s = c.createSequence();
    ASSERT_TRUE(c.append(s, 64));
    EXPECT_EQ(c.insertPrefix(s, hashes, unitCosts(4)), 0u);
    c.release(s);
    EXPECT_EQ(c.indexedBlocks(), 4u);
    EXPECT_EQ(c.blocksInUse(), before);
    c.auditConservation();
}

TEST(PrefixIndex, AcquiredPrefixIsCopyOnWriteProtected)
{
    auto c = prefixCache(64);
    const auto hashes = testHashes(1);
    seedPrefix(c, hashes, 16);
    const SeqId s = c.createSequence();
    ASSERT_EQ(c.acquirePrefix(s, hashes, 1000), 16);
    EXPECT_EQ(c.blocksInUse(), 1u);
    // Appending must not scribble on the indexed page: the full shared
    // tail means a fresh block, and the index page stays indexed.
    ASSERT_TRUE(c.append(s, 8));
    EXPECT_EQ(c.blocksInUse(), 2u);
    EXPECT_EQ(c.indexedBlocks(), 1u);
    c.auditConservation();
}

TEST(PrefixIndex, AcquireRequiresEmptySequence)
{
    auto c = prefixCache(64);
    const auto hashes = testHashes(1);
    seedPrefix(c, hashes, 16);
    const SeqId s = c.createSequence();
    ASSERT_TRUE(c.append(s, 8));
    EXPECT_THROW(c.acquirePrefix(s, hashes, 1000), std::logic_error);
}

TEST(PrefixIndex, InsertCostLengthMismatchIsFatal)
{
    auto c = prefixCache(64);
    const SeqId s = c.createSequence();
    ASSERT_TRUE(c.append(s, 32));
    EXPECT_THROW(c.insertPrefix(s, testHashes(2), unitCosts(1)),
                 std::runtime_error);
}

TEST(PrefixIndex, InsertNaNCostIsFatal)
{
    // A NaN score would break the strict weak order of the eviction set.
    auto c = prefixCache(64, PrefixEvictPolicy::Cost);
    const SeqId s = c.createSequence();
    ASSERT_TRUE(c.append(s, 32));
    EXPECT_THROW(c.insertPrefix(s, testHashes(2),
                                std::vector<double>{1.0, std::nan("")}),
                 std::runtime_error);
    EXPECT_EQ(c.indexedBlocks(), 0u); // rejected before any insert
}

TEST(PrefixIndex, DisabledIndexRejectsPrefixOps)
{
    const auto s = er::model::spec(ModelId::Dsr1Qwen1_5B);
    KvCache c(static_cast<er::Bytes>(s.kvBytesPerToken() * 1024), s,
              16);
    EXPECT_FALSE(c.prefixEnabled());
    EXPECT_EQ(c.peekPrefix(testHashes(2), 1000), 0);
    const SeqId q = c.createSequence();
    EXPECT_EQ(c.acquirePrefix(q, testHashes(2), 1000), 0);
    ASSERT_TRUE(c.append(q, 32));
    EXPECT_EQ(c.insertPrefix(q, testHashes(2), unitCosts(2)), 0u);
}

// --- Eviction ---------------------------------------------------------

TEST(PrefixEvict, AppendPressureEvictsIdleIndexPages)
{
    auto c = prefixCache(8);
    seedPrefix(c, testHashes(4, "a"), 64);
    seedPrefix(c, testHashes(4, "b"), 64);
    EXPECT_EQ(c.blocksInUse(), 8u); // pool full of index pages
    const SeqId s = c.createSequence();
    EXPECT_TRUE(c.append(s, 48)); // must evict 3 index pages
    EXPECT_EQ(c.prefixStats().evictions, 3u);
    EXPECT_EQ(c.indexedBlocks(), 5u);
    c.auditConservation();
}

TEST(PrefixEvict, LivePagesAreNeverReclaimed)
{
    auto c = prefixCache(8);
    const auto ha = testHashes(4, "a");
    seedPrefix(c, ha, 64);
    seedPrefix(c, testHashes(4, "b"), 64);
    // A live sequence holds the "a" chain: those four pages have
    // refcount 2 and are not eviction candidates.
    const SeqId live = c.createSequence();
    ASSERT_EQ(c.acquirePrefix(live, ha, 1000), 64);
    const SeqId s = c.createSequence();
    // Only the 4 idle "b" pages are reclaimable.
    EXPECT_TRUE(c.append(s, 64));
    EXPECT_EQ(c.prefixStats().evictions, 4u);
    EXPECT_FALSE(c.append(s, 16)); // nothing left to evict
    EXPECT_EQ(c.sequenceTokens(live), 64);
    EXPECT_EQ(c.peekPrefix(ha, 1000), 64); // "a" chain intact
    c.auditConservation();
}

TEST(PrefixEvict, LruEvictsLeastRecentlyTouchedLeafFirst)
{
    auto c = prefixCache(8);
    const auto ha = testHashes(4, "a");
    const auto hb = testHashes(4, "b");
    seedPrefix(c, ha, 64);
    seedPrefix(c, hb, 64);
    // Touch the "a" chain so "b" is colder.
    const SeqId t = c.createSequence();
    ASSERT_EQ(c.acquirePrefix(t, ha, 1000), 64);
    c.release(t);
    const SeqId s = c.createSequence();
    ASSERT_TRUE(c.append(s, 16)); // one eviction
    EXPECT_EQ(c.peekPrefix(ha, 1000), 64);  // "a" untouched
    EXPECT_EQ(c.peekPrefix(hb, 1000), 48);  // "b" lost its leaf
    c.auditConservation();
}

TEST(PrefixEvict, LeavesGoBeforeInteriorNodes)
{
    auto c = prefixCache(4);
    const auto ha = testHashes(4, "a");
    seedPrefix(c, ha, 64);
    const SeqId s = c.createSequence();
    ASSERT_TRUE(c.append(s, 32)); // two evictions, deepest-first
    // The chain must shrink from the leaf end: blocks 0-1 remain.
    EXPECT_EQ(c.peekPrefix(ha, 1000), 32);
    c.auditConservation();
}

TEST(PrefixEvict, CostPolicyKeepsExpensivePages)
{
    auto c = prefixCache(8, PrefixEvictPolicy::Cost);
    const auto cheap = testHashes(4, "cheap");
    const auto dear = testHashes(4, "dear");
    seedPrefix(c, cheap, 64, /*cost=*/0.001);
    seedPrefix(c, dear, 64, /*cost=*/10.0);
    const SeqId s = c.createSequence();
    ASSERT_TRUE(c.append(s, 64)); // four evictions
    // bytes × rebuild-seconds ranks every cheap page below every dear
    // page, so the dear chain survives untouched.
    EXPECT_EQ(c.peekPrefix(dear, 1000), 64);
    EXPECT_EQ(c.peekPrefix(cheap, 1000), 0);
    c.auditConservation();
}

TEST(PrefixEvict, RandomizedChurnPreservesConservation)
{
    auto c = prefixCache(24);
    er::Rng rng(1234, "prefix-churn");
    std::vector<std::pair<SeqId, std::vector<std::uint64_t>>> live;
    for (int round = 0; round < 300; ++round) {
        const auto op = rng.uniformInt(0, 2);
        if (op == 0 || live.size() < 2) {
            std::string tag = "c";
            tag += std::to_string(rng.uniformInt(0, 7));
            const auto n =
                static_cast<std::size_t>(rng.uniformInt(1, 5));
            const auto hashes = testHashes(n, tag);
            const SeqId s = c.createSequence();
            const Tokens cached = c.acquirePrefix(
                s, hashes, static_cast<Tokens>(n) * 16 + 7);
            const Tokens want =
                static_cast<Tokens>(n) * 16 +
                static_cast<Tokens>(rng.uniformInt(0, 15));
            if (!c.append(s, want - cached)) {
                c.release(s);
                continue;
            }
            live.emplace_back(s, hashes);
        } else if (op == 1 && !live.empty()) {
            const auto i = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      live.size() - 1)));
            c.insertPrefix(live[i].first, live[i].second,
                           unitCosts(live[i].second.size(),
                                     rng.uniform(0.01, 5.0)));
            c.release(live[i].first);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(i));
        } else if (!live.empty()) {
            const auto i = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      live.size() - 1)));
            c.release(live[i].first);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(i));
        }
        c.auditConservation();
    }
}

// --- Ordered leaf set vs brute-force victim choice --------------------

namespace {

/** One index node as the checkpoint wire format carries it. */
struct WireNode
{
    std::uint64_t hash = 0;
    bool hasParent = false;
    std::uint64_t parentHash = 0;
    std::uint32_t block = 0;
    std::uint64_t lastTouch = 0;
    std::uint64_t insertSeq = 0;
    double rebuildSeconds = 0.0;
};

/** Block refcounts and index nodes, decoded from the cache's io() bytes. */
struct WireIndex
{
    double blockBytes = 0.0;
    std::vector<std::uint32_t> refcount;
    std::vector<WireNode> nodes;
};

WireIndex
decodeIndex(const KvCache &c)
{
    er::ByteWriter w;
    er::put(w, c);
    er::ByteReader r(w.bytes());
    WireIndex x;
    r.i64(); // block tokens
    x.blockBytes = static_cast<double>(r.i64());
    r.u64(); // capacity
    r.u64(); // blocks in use
    r.u64(); // next sequence handle
    x.refcount.resize(r.u64());
    for (auto &rc : x.refcount) {
        rc = r.u32();
        r.i64(); // filled
    }
    for (auto n = r.u64(); n > 0; --n)
        r.u32(); // free list
    for (auto n = r.u64(); n > 0; --n) {
        r.u64(); // handle
        r.i64(); // tokens
        for (auto b = r.u64(); b > 0; --b)
            r.u32();
    }
    EXPECT_EQ(r.u32(), 0x58465250u); // "PRFX"
    r.u8();                          // policy
    for (int i = 0; i < 6; ++i)
        r.u64(); // clocks and integer stats
    for (int i = 0; i < 4; ++i)
        r.f64(); // byte/token stats
    x.nodes.resize(r.u64());
    for (auto &nd : x.nodes) {
        nd.hash = r.u64();
        nd.hasParent = r.u8() != 0;
        nd.parentHash = r.u64();
        nd.block = r.u32();
        r.u32(); // depth
        nd.lastTouch = r.u64();
        nd.insertSeq = r.u64();
        nd.rebuildSeconds = r.f64();
    }
    r.expectEnd("prefix index");
    return x;
}

/**
 * The victim the policy defines, found by scanning every node: the
 * leaf whose page only the index holds, with the least score (bytes ×
 * rebuild seconds under cost, none under LRU), ties broken by
 * (lastTouch, insertSeq).  nullopt when nothing is reclaimable.
 */
std::optional<std::uint64_t>
scanVictim(const WireIndex &x, PrefixEvictPolicy policy)
{
    std::set<std::uint64_t> parents;
    for (const auto &nd : x.nodes)
        if (nd.hasParent)
            parents.insert(nd.parentHash);
    const WireNode *best = nullptr;
    for (const auto &nd : x.nodes) {
        if (parents.count(nd.hash) || x.refcount[nd.block] != 1)
            continue;
        const auto key = [&](const WireNode &n) {
            const double cost = policy == PrefixEvictPolicy::Cost
                ? x.blockBytes * n.rebuildSeconds
                : 0.0;
            return std::make_tuple(cost, n.lastTouch, n.insertSeq);
        };
        if (!best || key(nd) < key(*best))
            best = &nd;
    }
    if (!best)
        return std::nullopt;
    return best->hash;
}

/**
 * Chain hashes of a path that shares the first @p trunk blocks with
 * every other path and then follows branch @p branch for the rest.
 */
std::vector<std::uint64_t>
branchHashes(std::size_t n, std::size_t trunk, int branch)
{
    std::vector<std::uint64_t> h;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string tag = i < trunk
            ? "trunk" + std::to_string(i)
            : "b" + std::to_string(branch) + "t" + std::to_string(trunk) +
                "_" + std::to_string(i);
        h.push_back(er::Rng::hashString(tag));
    }
    return h;
}

/**
 * Seeded churn over a small prefix-cached pool: fresh sequences that
 * attach indexed prefixes, forks that share pages (partial tails too),
 * retires that publish blocks under a few discrete costs (so cost ties
 * fall through to recency), and plain releases.  Tokens are appended
 * one at a time, so each append evicts at most one page; every
 * eviction is checked against scanVictim() and its hash logged.
 */
struct Churn
{
    PrefixEvictPolicy policy;
    er::Rng rng;
    std::vector<std::pair<SeqId, std::vector<std::uint64_t>>> live;
    std::vector<std::uint64_t> evicted;

    bool appendChecked(KvCache &c, SeqId s, Tokens n)
    {
        for (Tokens t = 0; t < n; ++t) {
            const WireIndex before = decodeIndex(c);
            const auto expect = scanVictim(before, policy);
            const auto ev0 = c.prefixStats().evictions;
            const bool ok = c.append(s, 1);
            const auto ev = c.prefixStats().evictions - ev0;
            EXPECT_LE(ev, 1u);
            if (ev == 1) {
                EXPECT_TRUE(expect.has_value());
                std::set<std::uint64_t> after;
                for (const auto &nd : decodeIndex(c).nodes)
                    after.insert(nd.hash);
                EXPECT_EQ(after.size() + 1, before.nodes.size());
                if (expect) {
                    EXPECT_EQ(after.count(*expect), 0u)
                        << "evicted a page other than the scan's choice";
                    evicted.push_back(*expect);
                }
            }
            if (!ok)
                return false;
        }
        return true;
    }

    std::size_t pick()
    {
        return static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(live.size() - 1)));
    }

    void step(KvCache &c)
    {
        const auto op = rng.uniformInt(0, 4);
        if (op <= 1 || live.size() < 2) {
            const auto n = static_cast<std::size_t>(rng.uniformInt(1, 5));
            const auto trunk =
                static_cast<std::size_t>(rng.uniformInt(0, 3));
            const auto hashes = branchHashes(
                n, trunk, static_cast<int>(rng.uniformInt(0, 3)));
            const SeqId s = c.createSequence();
            const Tokens cached = c.acquirePrefix(
                s, hashes, static_cast<Tokens>(n) * 16 + 7);
            const Tokens want = static_cast<Tokens>(n) * 16 +
                static_cast<Tokens>(rng.uniformInt(0, 15));
            if (!appendChecked(c, s, want - cached)) {
                c.release(s);
                return;
            }
            live.emplace_back(s, hashes);
        } else if (op == 2) {
            const auto i = pick();
            const SeqId child = c.fork(live[i].first);
            auto hashes = live[i].second;
            if (!appendChecked(c, child, rng.uniformInt(1, 20))) {
                c.release(child);
                return;
            }
            live.emplace_back(child, std::move(hashes));
        } else {
            const auto i = pick();
            if (op == 3) {
                std::vector<double> costs;
                for (std::size_t k = 0; k < live[i].second.size(); ++k)
                    costs.push_back(0.5 *
                                    static_cast<double>(
                                        rng.uniformInt(1, 3)));
                c.insertPrefix(live[i].first, live[i].second, costs);
            }
            c.release(live[i].first);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        }
        c.auditConservation();
    }
};

} // namespace

TEST(PrefixEvict, OrderedLeafSetMatchesBruteForceScan)
{
    for (const auto policy :
         {PrefixEvictPolicy::Lru, PrefixEvictPolicy::Cost}) {
        SCOPED_TRACE(prefixEvictPolicyName(policy));
        auto c = prefixCache(24, policy);
        Churn churn{policy, er::Rng(2024, "leaf-set-churn"), {}, {}};
        for (int round = 0; round < 400; ++round)
            churn.step(c);
        // The churn must actually exercise the eviction path.
        EXPECT_GT(churn.evicted.size(), 50u);
        EXPECT_EQ(churn.evicted.size(), c.prefixStats().evictions);
    }
}

TEST(PrefixEvict, RestoredCacheEvictsLikeUninterruptedOne)
{
    for (const auto policy :
         {PrefixEvictPolicy::Lru, PrefixEvictPolicy::Cost}) {
        SCOPED_TRACE(prefixEvictPolicyName(policy));
        auto a = prefixCache(24, policy);
        Churn first{policy, er::Rng(77, "leaf-set-resume"), {}, {}};
        for (int round = 0; round < 200; ++round)
            first.step(a);
        er::ByteWriter w;
        er::put(w, a);

        // Continue the same churn on the original and on a cache
        // restored from its checkpoint (node ids are reassigned on
        // restore, so the leaf set is rebuilt from scratch).
        Churn resumed = first;
        resumed.evicted.clear();
        first.evicted.clear();
        auto b = prefixCache(24, policy);
        er::ByteReader r(w.bytes());
        b.io(r);
        b.auditConservation();
        for (int round = 0; round < 200; ++round) {
            first.step(a);
            resumed.step(b);
        }
        EXPECT_GT(first.evicted.size(), 20u);
        EXPECT_EQ(resumed.evicted, first.evicted);
        er::ByteWriter wa, wb;
        er::put(wa, a);
        er::put(wb, b);
        EXPECT_EQ(wa.bytes(), wb.bytes());
    }
}

// --- freeTokenCapacity tail semantics (satellite 2) -------------------

TEST(FreeTokenCapacity, ExactlyFullTailMatchesFreshSequence)
{
    auto c = prefixCache(8);
    const SeqId s = c.createSequence();
    ASSERT_TRUE(c.append(s, 32)); // tail exactly full
    // The documented boundary condition: an exactly-full tail has no
    // slack, so both overloads agree (this was off by one block).
    EXPECT_EQ(c.freeTokenCapacity(), 6 * 16);
    EXPECT_EQ(c.freeTokenCapacity(s), c.freeTokenCapacity());
}

TEST(FreeTokenCapacity, UnsharedPartialTailAddsSlack)
{
    auto c = prefixCache(8);
    const SeqId s = c.createSequence();
    ASSERT_TRUE(c.append(s, 20)); // 1 full + 4-token tail, 12 slack
    EXPECT_EQ(c.freeTokenCapacity(), 6 * 16);
    EXPECT_EQ(c.freeTokenCapacity(s), 6 * 16 + 12);
    // And the bound is tight: append exactly that much succeeds…
    auto probe = c;
    const auto cap = c.freeTokenCapacity(s);
    EXPECT_TRUE(probe.append(s, cap));
    // …one more token does not.
    EXPECT_FALSE(c.append(s, cap + 1));
}

TEST(FreeTokenCapacity, SharedPartialTailCostsACowBlock)
{
    auto c = prefixCache(8);
    const SeqId parent = c.createSequence();
    ASSERT_TRUE(c.append(parent, 20));
    const SeqId child = c.fork(parent); // tail now shared
    // 6 free whole blocks; writing the child's 12-token slack first
    // copies the tail, so capacity is whole-block tokens minus the
    // tokens already in the copied tail.
    EXPECT_EQ(c.freeTokenCapacity(child), 6 * 16 - 4);
    auto probe = c;
    const auto cap = c.freeTokenCapacity(child);
    EXPECT_TRUE(probe.append(child, cap));
    EXPECT_FALSE(c.append(child, cap + 1));
}

TEST(FreeTokenCapacity, SharedTailWithNoFreeBlocksIsZero)
{
    auto c = prefixCache(2);
    const SeqId parent = c.createSequence();
    ASSERT_TRUE(c.append(parent, 20)); // both blocks allocated
    const SeqId child = c.fork(parent);
    EXPECT_EQ(c.freeTokenCapacity(), 0);
    // The tail has 12 tokens of slack but no block to COW into.
    EXPECT_EQ(c.freeTokenCapacity(child), 0);
    EXPECT_FALSE(c.append(child, 1));
    // The unshared owner can still use the slack.
    c.release(child);
    EXPECT_EQ(c.freeTokenCapacity(parent), 12);
    EXPECT_TRUE(c.append(parent, 12));
}

TEST(FreeTokenCapacity, EmptySequenceMatchesFreshSequence)
{
    auto c = prefixCache(8);
    const SeqId s = c.createSequence();
    EXPECT_EQ(c.freeTokenCapacity(s), c.freeTokenCapacity());
}

// --- Serialization ----------------------------------------------------

TEST(PrefixSerialize, RoundTripIsCanonical)
{
    auto c = prefixCache(16);
    seedPrefix(c, testHashes(3, "a"), 48);
    seedPrefix(c, testHashes(2, "b"), 32);
    const SeqId s = c.createSequence();
    ASSERT_EQ(c.acquirePrefix(s, testHashes(3, "a"), 1000), 48);
    ASSERT_TRUE(c.append(s, 10));

    er::ByteWriter w;
    er::put(w, c);

    auto c2 = prefixCache(16);
    er::ByteReader r(w.bytes());
    c2.io(r);
    c2.auditConservation();
    EXPECT_EQ(c2.indexedBlocks(), c.indexedBlocks());
    EXPECT_EQ(c2.blocksInUse(), c.blocksInUse());
    EXPECT_EQ(c2.sequenceTokens(s), c.sequenceTokens(s));
    EXPECT_EQ(c2.peekPrefix(testHashes(2, "b"), 1000), 32);
    EXPECT_EQ(c2.prefixStats().hitBlocks, c.prefixStats().hitBlocks);

    // Canonical: re-serializing the restored cache is bit-identical.
    er::ByteWriter w2;
    er::put(w2, c2);
    EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(PrefixSerialize, GeometryMismatchIsFatal)
{
    auto c = prefixCache(16);
    seedPrefix(c, testHashes(2, "a"), 32);
    er::ByteWriter w;
    er::put(w, c);
    auto small = prefixCache(8); // different block capacity
    er::ByteReader r(w.bytes());
    EXPECT_THROW(small.io(r), std::runtime_error);
}

TEST(PrefixSerialize, EvictPolicyMismatchIsFatal)
{
    auto c = prefixCache(16, PrefixEvictPolicy::Lru);
    seedPrefix(c, testHashes(2, "a"), 32);
    er::ByteWriter w;
    er::put(w, c);
    auto other = prefixCache(16, PrefixEvictPolicy::Cost);
    er::ByteReader r(w.bytes());
    EXPECT_THROW(other.io(r), std::runtime_error);
}

TEST(PrefixSerialize, MissingPrefixSectionIsFatal)
{
    // A checkpoint written without the prefix cache cannot restore
    // into a prefix-enabled instance.
    const auto spec = er::model::spec(ModelId::Dsr1Qwen1_5B);
    KvCache plain(static_cast<er::Bytes>(spec.kvBytesPerToken() * 16.0 *
                                         16.0),
                  spec, 16);
    const SeqId s = plain.createSequence();
    ASSERT_TRUE(plain.append(s, 32));
    er::ByteWriter w;
    er::put(w, plain);
    auto pc = prefixCache(16);
    er::ByteReader r(w.bytes());
    EXPECT_THROW(pc.io(r), std::runtime_error);
}

// --- Session workload generator ---------------------------------------

TEST(SessionTrace, ShapeAndSharedSystemPrompt)
{
    er::acc::SessionTraceConfig sc;
    sc.sessions = 6;
    sc.turnsPerSession = 3;
    sc.systemPromptTokens = 128; // 8 full blocks
    er::Rng rng(99, "session-test");
    const auto trace = er::acc::generateSessionTrace(sc, rng);
    ASSERT_EQ(trace.size(), 18u);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_LE(trace[i - 1].arrival, trace[i].arrival);

    // Group turns by session in arrival order.
    std::map<std::int64_t, std::vector<const ServerRequest *>> by_s;
    for (const auto &r : trace) {
        ASSERT_GE(r.sessionId, 0);
        by_s[r.sessionId].push_back(&r);
    }
    ASSERT_EQ(by_s.size(), 6u);
    for (const auto &[sid, turns] : by_s) {
        ASSERT_EQ(turns.size(), 3u);
        for (std::size_t t = 1; t < turns.size(); ++t) {
            // Later turns strictly extend the context…
            EXPECT_GT(turns[t]->inputTokens, turns[t - 1]->inputTokens);
            // …and share the earlier turn's full-block hash chain.
            const auto &prev = turns[t - 1]->prefixHashes;
            const auto &cur = turns[t]->prefixHashes;
            ASSERT_GE(cur.size(), prev.size());
            EXPECT_TRUE(std::equal(prev.begin(), prev.end(),
                                   cur.begin()));
        }
    }
    // The system prompt hashes to the same chain in every session.
    const auto &a = by_s.begin()->second.front()->prefixHashes;
    const auto &b = std::next(by_s.begin())->second.front()
                        ->prefixHashes;
    ASSERT_GE(a.size(), 8u);
    ASSERT_GE(b.size(), 8u);
    EXPECT_TRUE(std::equal(a.begin(), a.begin() + 8, b.begin()));
    // But the turns diverge after the shared prompt.
    EXPECT_NE(a.back(), b.back());
}

TEST(SessionTrace, HashCountMatchesFullBlocks)
{
    er::acc::SessionTraceConfig sc;
    sc.sessions = 3;
    sc.turnsPerSession = 2;
    er::Rng rng(100, "session-test-2");
    const auto trace = er::acc::generateSessionTrace(sc, rng);
    for (const auto &r : trace)
        EXPECT_EQ(r.prefixHashes.size(),
                  static_cast<std::size_t>(r.inputTokens / 16));
}

// --- Serving integration ----------------------------------------------

namespace {

er::acc::SessionTraceConfig
servingSessionConfig()
{
    er::acc::SessionTraceConfig sc;
    sc.sessions = 10;
    sc.turnsPerSession = 4;
    sc.sessionQps = 0.05;
    sc.meanTurnGap = 40.0;
    sc.systemPromptTokens = 512;
    sc.meanUserTokens = 96.0;
    sc.meanThinkTokens = 256.0;
    sc.meanAnswerTokens = 96.0;
    return sc;
}

ServingReport
runSessions(const std::vector<ServerRequest> &trace, bool prefix_on,
            std::vector<ServedRequest> *served = nullptr,
            PrefixEvictPolicy evict = PrefixEvictPolicy::Lru)
{
    auto eng = makeEngine();
    ServerConfig cfg;
    cfg.maxBatch = 16;
    cfg.prefixCache.enabled = prefix_on;
    cfg.prefixCache.evict = evict;
    ServingSimulator srv(eng, cfg);
    DurabilityOptions dur;
    dur.paranoid = true;
    const auto rep = srv.run(trace, FaultPlan(), dur);
    if (served)
        *served = srv.served();
    return rep;
}

/** Mean TTFT of all turns with index >= @p from_turn (per session,
 *  ordered by arrival). */
double
meanTtftFromTurn(const std::vector<ServedRequest> &served,
                 std::size_t from_turn)
{
    std::map<std::int64_t, std::vector<const ServedRequest *>> by_s;
    for (const auto &s : served)
        by_s[s.request.sessionId].push_back(&s);
    double sum = 0.0;
    std::size_t n = 0;
    for (auto &[sid, turns] : by_s) {
        std::sort(turns.begin(), turns.end(),
                  [](const ServedRequest *a, const ServedRequest *b) {
                      return a->request.arrival < b->request.arrival;
                  });
        for (std::size_t t = from_turn; t < turns.size(); ++t) {
            EXPECT_GT(turns[t]->firstToken, 0.0);
            sum += turns[t]->firstToken - turns[t]->request.arrival;
            ++n;
        }
    }
    EXPECT_GT(n, 0u);
    return sum / static_cast<double>(n);
}

} // namespace

TEST(PrefixServing, SessionWorkloadHitsAndSavesPrefill)
{
    er::Rng rng(2025, "serving-sessions");
    const auto trace =
        er::acc::generateSessionTrace(servingSessionConfig(), rng);
    std::vector<ServedRequest> on_served, off_served;
    const auto on = runSessions(trace, true, &on_served);
    const auto off = runSessions(trace, false, &off_served);

    EXPECT_EQ(on.completed, trace.size());
    EXPECT_EQ(off.completed, trace.size());
    // Measured reuse: a real hit rate and real prefill seconds saved.
    EXPECT_GT(on.prefixHitRate, 0.1);
    EXPECT_GT(on.prefillSecondsSaved, 1.0);
    EXPECT_EQ(off.prefixHitRate, 0.0);
    EXPECT_EQ(off.prefillSecondsSaved, 0.0);

    // TTFT from turn 2 onward improves when the cache is on (turn 1
    // of an idle session has nothing to reuse beyond the shared
    // system prompt, later turns reuse their whole history).
    const double ttft_on = meanTtftFromTurn(on_served, 1);
    const double ttft_off = meanTtftFromTurn(off_served, 1);
    EXPECT_LT(ttft_on, ttft_off);

    // Per-request accounting: cached turns carry cachedPrefix > 0.
    std::size_t cached_turns = 0;
    for (const auto &s : on_served)
        if (s.cachedPrefix > 0) {
            EXPECT_EQ(s.cachedPrefix % 16, 0);
            ++cached_turns;
        }
    EXPECT_GT(cached_turns, trace.size() / 2);
}

TEST(PrefixServing, OffModeIgnoresHashesBitIdentically)
{
    // With the cache off, a trace carrying prefix hashes must produce
    // the exact report of the same trace with the hashes stripped:
    // the off path may not read them at all.
    er::Rng rng(2026, "serving-sessions-off");
    const auto trace =
        er::acc::generateSessionTrace(servingSessionConfig(), rng);
    auto stripped = trace;
    for (auto &r : stripped) {
        r.prefixHashes.clear();
        r.sessionId = -1;
    }
    const auto a = runSessions(trace, false);
    const auto b = runSessions(stripped, false);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.p99Latency, b.p99Latency);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
}

TEST(PrefixServing, CostEvictionAlsoServesSessions)
{
    er::Rng rng(2027, "serving-sessions-cost");
    const auto trace =
        er::acc::generateSessionTrace(servingSessionConfig(), rng);
    const auto rep = runSessions(trace, true, nullptr,
                                 PrefixEvictPolicy::Cost);
    EXPECT_EQ(rep.completed, trace.size());
    EXPECT_GT(rep.prefixHitRate, 0.1);
}

// --- Incremental generator vs the string-built reference --------------

namespace {

// The generator as first written: every token symbol is hashString of
// its full name, built as a std::string, and every turn re-hashes the
// whole context.  Kept verbatim as the oracle for the incremental one.

std::uint64_t
refChainBlockHash(std::uint64_t prev, const std::uint64_t *tokens,
                  Tokens count)
{
    std::uint64_t h = prev ^ 0xcbf29ce484222325ULL;
    for (Tokens i = 0; i < count; ++i) {
        std::uint64_t t = tokens[i];
        for (int b = 0; b < 8; ++b) {
            h ^= (t >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

std::vector<std::uint64_t>
refChainHashes(const std::vector<std::uint64_t> &context, Tokens block)
{
    std::vector<std::uint64_t> out;
    std::uint64_t prev = 0x5edfe5a1u; // chain seed for block 0
    const std::size_t full =
        context.size() / static_cast<std::size_t>(block);
    out.reserve(full);
    for (std::size_t i = 0; i < full; ++i) {
        prev = refChainBlockHash(
            prev, context.data() + i * static_cast<std::size_t>(block),
            block);
        out.push_back(prev);
    }
    return out;
}

Tokens
refDrawTokens(er::Rng &rng, double mean, double cv, Tokens floor)
{
    return std::max<Tokens>(floor, static_cast<Tokens>(std::llround(
        rng.logNormalMeanStd(mean, cv * mean))));
}

std::vector<ServerRequest>
referenceSessionTrace(const er::acc::SessionTraceConfig &cfg,
                      er::Rng &rng)
{
    std::vector<std::uint64_t> system;
    system.reserve(static_cast<std::size_t>(cfg.systemPromptTokens));
    for (Tokens i = 0; i < cfg.systemPromptTokens; ++i)
        system.push_back(
            er::Rng::hashString("system-token/" + std::to_string(i)));

    std::vector<ServerRequest> trace;
    trace.reserve(cfg.sessions * cfg.turnsPerSession);
    Seconds session_start = 0.0;
    for (std::size_t s = 0; s < cfg.sessions; ++s) {
        session_start +=
            -std::log(1.0 - rng.uniform()) / cfg.sessionQps;
        const std::string sprefix =
            "session/" + std::to_string(s) + "/turn/";
        std::vector<std::uint64_t> context = system;
        Seconds arrival = session_start;
        for (std::size_t t = 0; t < cfg.turnsPerSession; ++t) {
            const std::string tprefix = sprefix + std::to_string(t);
            const Tokens user =
                refDrawTokens(rng, cfg.meanUserTokens, cfg.cv, 4);
            for (Tokens i = 0; i < user; ++i)
                context.push_back(er::Rng::hashString(
                    tprefix + "/user/" + std::to_string(i)));

            const Tokens think =
                refDrawTokens(rng, cfg.meanThinkTokens, cfg.cv, 4);
            const Tokens answer =
                refDrawTokens(rng, cfg.meanAnswerTokens, cfg.cv, 4);

            ServerRequest r;
            r.arrival = arrival;
            r.inputTokens = static_cast<Tokens>(context.size());
            r.outputTokens = think + answer;
            r.sessionId = static_cast<std::int64_t>(s);
            r.prefixHashes = refChainHashes(context, cfg.blockTokens);
            trace.push_back(std::move(r));

            const Tokens carried =
                (cfg.carryThink ? think : 0) + answer;
            for (Tokens i = 0; i < carried; ++i)
                context.push_back(er::Rng::hashString(
                    tprefix + "/out/" + std::to_string(i)));

            arrival += -std::log(1.0 - rng.uniform()) *
                cfg.meanTurnGap;
        }
    }

    std::stable_sort(trace.begin(), trace.end(),
                     [](const ServerRequest &a, const ServerRequest &b) {
                         return a.arrival < b.arrival;
                     });
    return trace;
}

void
expectSameTrace(const er::acc::SessionTraceConfig &sc,
                std::uint64_t seed)
{
    er::Rng fast_rng(seed, "session-oracle");
    er::Rng ref_rng(seed, "session-oracle");
    const auto fast = er::acc::generateSessionTrace(sc, fast_rng);
    const auto ref = referenceSessionTrace(sc, ref_rng);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        EXPECT_EQ(fast[i].arrival, ref[i].arrival);
        EXPECT_EQ(fast[i].inputTokens, ref[i].inputTokens);
        EXPECT_EQ(fast[i].outputTokens, ref[i].outputTokens);
        EXPECT_EQ(fast[i].sessionId, ref[i].sessionId);
        EXPECT_EQ(fast[i].prefixHashes, ref[i].prefixHashes);
        EXPECT_EQ(fast[i].priority, ref[i].priority);
        EXPECT_EQ(fast[i].deadline, ref[i].deadline);
    }
    EXPECT_EQ(fast_rng.saveState(), ref_rng.saveState());
}

} // namespace

TEST(SessionTrace, MatchesStringBuiltReference)
{
    struct Shape
    {
        const char *name;
        er::acc::SessionTraceConfig cfg;
        std::vector<std::uint64_t> seeds;
    };
    std::vector<Shape> shapes;
    {
        // perfbench serve_sessions: 400 sessions x 6 turns.
        er::acc::SessionTraceConfig sc;
        sc.sessions = 400;
        sc.turnsPerSession = 6;
        sc.sessionQps = 0.03;
        sc.meanTurnGap = 20.0;
        sc.systemPromptTokens = 512;
        sc.meanUserTokens = 120.0;
        sc.meanThinkTokens = 0.75 * 1024.0;
        sc.meanAnswerTokens = 0.25 * 1024.0;
        shapes.push_back({"perfbench", sc, {1, 90418}});
    }
    {
        er::acc::SessionTraceConfig sc; // defaults
        shapes.push_back({"defaults", sc, {100}});
        sc.sessions = 3;
        sc.turnsPerSession = 2;
        shapes.push_back({"hash-count-test", sc, {100}});
        sc.sessions = 6;
        sc.turnsPerSession = 3;
        sc.systemPromptTokens = 128;
        shapes.push_back({"shape-test", sc, {99}});
    }
    shapes.push_back({"serving", servingSessionConfig(), {2025, 2028}});
    {
        er::acc::SessionTraceConfig sc;
        sc.carryThink = false;
        sc.blockTokens = 7;
        sc.systemPromptTokens = 5;
        shapes.push_back({"no-think/B7/sys5", sc, {1, 7}});
        sc.carryThink = true;
        shapes.push_back({"B7/sys5", sc, {3}});
    }
    {
        er::acc::SessionTraceConfig sc;
        sc.systemPromptTokens = 0;
        shapes.push_back({"no-system", sc, {11}});
    }
    {
        // Multi-digit session, turn and token indices.
        er::acc::SessionTraceConfig sc;
        sc.sessions = 120;
        sc.turnsPerSession = 12;
        sc.meanUserTokens = 40.0;
        sc.meanThinkTokens = 64.0;
        sc.meanAnswerTokens = 32.0;
        sc.blockTokens = 32;
        shapes.push_back({"120x12", sc, {5}});
    }
    for (const auto &sh : shapes)
        for (const std::uint64_t seed : sh.seeds) {
            SCOPED_TRACE(std::string(sh.name) + " seed " +
                         std::to_string(seed));
            expectSameTrace(sh.cfg, seed);
        }
}

// --- Checkpoint-crash-resume of a prefix-cached run -------------------

TEST(PrefixServing, CrashResumeReproducesUninterruptedRun)
{
    er::Rng rng(2028, "serving-sessions-crash");
    const auto trace =
        er::acc::generateSessionTrace(servingSessionConfig(), rng);

    ServerConfig cfg;
    cfg.maxBatch = 16;
    cfg.prefixCache.enabled = true;

    // Uninterrupted reference run.
    ServingReport ref;
    {
        auto eng = makeEngine();
        ServingSimulator srv(eng, cfg);
        DurabilityOptions dur;
        dur.paranoid = true;
        ref = srv.run(trace, FaultPlan(), dur);
    }

    for (const std::int64_t crash_step : {6, 40}) {
        SCOPED_TRACE("crash-step=" + std::to_string(crash_step));
        const auto dir =
            scratchDir("crash_" + std::to_string(crash_step));
        DurabilityOptions dur;
        dur.checkpointDir = dir;
        dur.checkpointEvery = 4;
        dur.paranoid = true;

        {
            auto eng = makeEngine();
            ServingSimulator srv(eng, cfg);
            FaultConfig fc;
            fc.crash.atStep = crash_step;
            EXPECT_THROW(srv.run(trace, FaultPlan(fc), dur),
                         SimulatedCrash);
        }
        auto eng = makeEngine();
        ServingSimulator srv(eng, cfg);
        DurabilityOptions resume = dur;
        resume.resume = true;
        const auto rep = srv.run(trace, FaultPlan(), resume);
        EXPECT_EQ(rep.completed, ref.completed);
        EXPECT_EQ(rep.makespan, ref.makespan);
        EXPECT_EQ(rep.totalEnergy, ref.totalEnergy);
        EXPECT_EQ(rep.meanLatency, ref.meanLatency);
        EXPECT_EQ(rep.p99Latency, ref.p99Latency);
        EXPECT_EQ(rep.generatedTokens, ref.generatedTokens);
        EXPECT_EQ(rep.cachedPrefixTokens, ref.cachedPrefixTokens);
        EXPECT_EQ(rep.prefixHitRate, ref.prefixHitRate);
        EXPECT_EQ(rep.prefillSecondsSaved, ref.prefillSecondsSaved);
        EXPECT_EQ(rep.prefixEvictions, ref.prefixEvictions);
        fs::remove_all(dir);
    }
}

// --- Pre-refactor golden bit-identity matrix --------------------------
//
// Captured from the executor immediately before the prefix-cache
// refactor (prefillChunk-heavy zero-fault and KV-shrink scenarios ×
// fcfs/edf/spjf × exact/macro, every ServingReport field at %.17g).
// With prefixCache off — the default — the refactored executor must
// reproduce every row bit for bit: same arithmetic, same order.

namespace {

struct GoldenRow
{
    std::size_t completed;
    std::size_t timedOut;
    std::size_t shed;
    std::size_t retriedCompleted;
    std::size_t degradedCompleted;
    std::uint64_t preemptions;
    std::size_t peakQueueDepth;
    double makespan;
    double throughputQps;
    double avgBatch;
    double meanLatency;
    double p50Latency;
    double p95Latency;
    double p99Latency;
    double totalEnergy;
    double energyPerQuery;
    double generatedTokens;
    double utilization;
    double meanQueueDelay;
    double p95QueueDelay;
    double p99QueueDelay;
    double goodputQps;
    double deadlineHitRate;
    double throttleResidency;
};

// Indexed [scenario*6 + scheduler*2 + (exact ? 0 : 1)] with scenario
// in {HeavyPrompt, KvPressure} and scheduler in {Fcfs, Edf, Spjf}.
const GoldenRow kGolden[12] = {
    // HeavyPrompt / fcfs / exact
    {36u, 0u, 0u, 0u, 0u, 0u, 7u,
     27.258894449319648, 1.3206698484024, 6.5393818930829433, 9.3761242251929691,
     9.1346860031042283, 13.27325189598505, 14.388564968806458,
     470.04578585442749, 13.056827384845208, 5425,
     1, 1.8923133732002948, 3.8554554836694219, 4.0678290498859759,
     1.3206698484024, 1, 0},
    // HeavyPrompt / fcfs / macro
    {36u, 0u, 0u, 0u, 0u, 0u, 7u,
     27.258894449319648, 1.3206698484024, 6.5393818930829433, 9.3761242251929691,
     9.1346860031042283, 13.27325189598505, 14.388564968806458,
     470.04578585442823, 13.056827384845228, 5425,
     1, 1.8923133732002948, 3.8554554836694219, 4.0678290498859759,
     1.3206698484024, 1, 0},
    // HeavyPrompt / edf / exact
    {36u, 0u, 0u, 0u, 0u, 0u, 7u,
     27.258894449319648, 1.3206698484024, 6.5393818930829433, 9.3761242251929691,
     9.1346860031042283, 13.27325189598505, 14.388564968806458,
     470.04578585442749, 13.056827384845208, 5425,
     1, 1.8923133732002948, 3.8554554836694219, 4.0678290498859759,
     1.3206698484024, 1, 0},
    // HeavyPrompt / edf / macro
    {36u, 0u, 0u, 0u, 0u, 0u, 7u,
     27.258894449319648, 1.3206698484024, 6.5393818930829433, 9.3761242251929691,
     9.1346860031042283, 13.27325189598505, 14.388564968806458,
     470.04578585442823, 13.056827384845228, 5425,
     1, 1.8923133732002948, 3.8554554836694219, 4.0678290498859759,
     1.3206698484024, 1, 0},
    // HeavyPrompt / spjf / exact
    {36u, 0u, 0u, 0u, 0u, 0u, 7u,
     29.298820034314154, 1.2287184247637812, 6.0449950668348986, 9.2216061513216268,
     8.2117421944360451, 15.751870135438589, 16.990688443068258,
     506.70210094304605, 14.075058359529057, 5425,
     1.0000000000000002, 1.7658002676668425, 7.1024915099260699, 8.3933749958219401,
     1.2287184247637812, 1, 0},
    // HeavyPrompt / spjf / macro
    {36u, 0u, 0u, 0u, 0u, 0u, 7u,
     29.298820034314154, 1.2287184247637812, 6.0449950668348986, 9.2216061513216268,
     8.2117421944360451, 15.751870135438589, 16.990688443068258,
     506.7021009430465, 14.07505835952907, 5425,
     1.0000000000000002, 1.7658002676668425, 7.1024915099260699, 8.3933749958219401,
     1.2287184247637812, 1, 0},
    // KvPressure / fcfs / exact
    {28u, 0u, 0u, 0u, 0u, 0u, 12u,
     111.988277718094, 0.25002616854671056, 10.750179354978792, 56.070507555207008,
     56.455412300502729, 87.451934705072517, 100.40433125213684,
     3454.4514386167989, 123.37326566488568, 34284,
     1.0000000000000004, 12.109451768707398, 40.639413071198561, 43.72557597950626,
     0.25002616854671056, 1, 0},
    // KvPressure / fcfs / macro
    {28u, 0u, 0u, 0u, 0u, 0u, 12u,
     111.988277718094, 0.25002616854671056, 10.750179354978792, 56.070507555207008,
     56.455412300502729, 87.451934705072517, 100.40433125213684,
     3454.4514386167971, 123.37326566488561, 34284,
     1.0000000000000004, 12.109451768707398, 40.639413071198561, 43.72557597950626,
     0.25002616854671056, 1, 0},
    // KvPressure / edf / exact
    {28u, 0u, 0u, 0u, 0u, 0u, 12u,
     111.988277718094, 0.25002616854671056, 10.750179354978792, 56.070507555207008,
     56.455412300502729, 87.451934705072517, 100.40433125213684,
     3454.4514386167989, 123.37326566488568, 34284,
     1.0000000000000004, 12.109451768707398, 40.639413071198561, 43.72557597950626,
     0.25002616854671056, 1, 0},
    // KvPressure / edf / macro
    {28u, 0u, 0u, 0u, 0u, 0u, 12u,
     111.988277718094, 0.25002616854671056, 10.750179354978792, 56.070507555207008,
     56.455412300502729, 87.451934705072517, 100.40433125213684,
     3454.4514386167971, 123.37326566488561, 34284,
     1.0000000000000004, 12.109451768707398, 40.639413071198561, 43.72557597950626,
     0.25002616854671056, 1, 0},
    // KvPressure / spjf / exact
    {28u, 0u, 0u, 0u, 0u, 0u, 12u,
     112.77745563826231, 0.24827657124852145, 10.574327512868342, 55.474487289436546,
     52.599936610651035, 94.908339773746235, 103.14657641281471,
     3497.1660334378953, 124.89878690849626, 34284,
     0.99999999999999889, 11.918728614997244, 40.200832431894447, 41.85153429093149,
     0.24827657124852145, 1, 0},
    // KvPressure / spjf / macro
    {28u, 0u, 0u, 0u, 0u, 0u, 12u,
     112.77745563826231, 0.24827657124852145, 10.574327512868342, 55.474487289436546,
     52.599936610651035, 94.908339773746235, 103.14657641281471,
     3497.1660334378907, 124.89878690849609, 34284,
     0.99999999999999889, 11.918728614997244, 40.200832431894447, 41.85153429093149,
     0.24827657124852145, 1, 0},
};

struct Scenario
{
    ServerConfig cfg;
    std::vector<ServerRequest> trace;
    FaultConfig fc;
    bool faulted = false;
};

Scenario
makeScenario(int which)
{
    Scenario s;
    if (which == 0) {
        // Heavy-prompt zero-fault: prompt-dominated, chunked prefill.
        s.cfg.maxBatch = 12;
        s.cfg.prefillChunk = 256;
        er::Rng rng(911, "prefix-golden");
        s.trace =
            ServingSimulator::poissonTrace(rng, 36, 1.5, 700, 160);
    } else {
        // KV-pressure with shrink faults and deadlines.
        s.cfg.maxBatch = 16;
        er::Rng rng(912, "prefix-golden-kv");
        s.trace =
            ServingSimulator::poissonTrace(rng, 28, 3.0, 400, 1200);
        for (auto &r : s.trace)
            r.deadline = 240.0;
        s.fc.seed = 0xBEEF;
        s.fc.horizon = s.trace.back().arrival + 600.0;
        s.fc.kvShrinksPerHour = 180.0;
        s.fc.kvShrinkFraction = 0.9;
        s.fc.kvShrinkDuration = 25.0;
        s.faulted = true;
    }
    return s;
}

void
expectReportFields(const ServingReport &rep, const GoldenRow &g)
{
    EXPECT_EQ(rep.completed, g.completed);
    EXPECT_EQ(rep.timedOut, g.timedOut);
    EXPECT_EQ(rep.shed, g.shed);
    EXPECT_EQ(rep.retriedCompleted, g.retriedCompleted);
    EXPECT_EQ(rep.degradedCompleted, g.degradedCompleted);
    EXPECT_EQ(rep.preemptions, g.preemptions);
    EXPECT_EQ(rep.peakQueueDepth, g.peakQueueDepth);
    EXPECT_EQ(rep.makespan, g.makespan);
    EXPECT_EQ(rep.throughputQps, g.throughputQps);
    EXPECT_EQ(rep.avgBatch, g.avgBatch);
    EXPECT_EQ(rep.meanLatency, g.meanLatency);
    EXPECT_EQ(rep.p50Latency, g.p50Latency);
    EXPECT_EQ(rep.p95Latency, g.p95Latency);
    EXPECT_EQ(rep.p99Latency, g.p99Latency);
    EXPECT_EQ(rep.totalEnergy, g.totalEnergy);
    EXPECT_EQ(rep.energyPerQuery, g.energyPerQuery);
    EXPECT_EQ(rep.generatedTokens, g.generatedTokens);
    EXPECT_EQ(rep.utilization, g.utilization);
    EXPECT_EQ(rep.meanQueueDelay, g.meanQueueDelay);
    EXPECT_EQ(rep.p95QueueDelay, g.p95QueueDelay);
    EXPECT_EQ(rep.p99QueueDelay, g.p99QueueDelay);
    EXPECT_EQ(rep.goodputQps, g.goodputQps);
    EXPECT_EQ(rep.deadlineHitRate, g.deadlineHitRate);
    EXPECT_EQ(rep.throttleResidency, g.throttleResidency);
}

void
expectGolden(const ServingReport &rep, const GoldenRow &g)
{
    expectReportFields(rep, g);
    // And the prefix accounting stays all-zero in off mode.
    EXPECT_EQ(rep.cachedPrefixTokens, 0.0);
    EXPECT_EQ(rep.prefixHitRate, 0.0);
    EXPECT_EQ(rep.prefillSecondsSaved, 0.0);
    EXPECT_EQ(rep.prefixEvictions, 0u);
}

} // namespace

TEST(PrefixGolden, OffModeMatrixBitIdentity)
{
    const SchedulerPolicy policies[] = {SchedulerPolicy::Fcfs,
                                        SchedulerPolicy::Edf,
                                        SchedulerPolicy::Spjf};
    const char *const names[] = {"HeavyPrompt", "KvPressure"};
    for (int scen = 0; scen < 2; ++scen) {
        const auto s = makeScenario(scen);
        for (int sched = 0; sched < 3; ++sched) {
            for (int exact = 1; exact >= 0; --exact) {
                SCOPED_TRACE(std::string(names[scen]) + "/" +
                             schedulerPolicyName(policies[sched]) +
                             "/" + (exact ? "exact" : "macro"));
                auto eng = makeEngine();
                ServerConfig cfg = s.cfg;
                cfg.scheduler = policies[sched];
                cfg.exactSteps = exact != 0;
                if (policies[sched] == SchedulerPolicy::Spjf)
                    cfg.spjfModel = toyModel();
                ServingSimulator srv(eng, cfg);
                const auto rep = srv.run(
                    s.trace,
                    s.faulted ? FaultPlan(s.fc) : FaultPlan());
                expectGolden(rep, kGolden[scen * 6 + sched * 2 +
                                          (exact ? 0 : 1)]);
            }
        }
    }
}

// --- Session-path golden reports and checkpoint bytes -----------------
//
// Captured before the incremental trace generator and the depth-indexed
// rebuild-cost table: a 24-session trace served at kvWatermark 0.01, so
// the prefix index outgrows the pool under both eviction policies.  Only
// the cost policy's eviction order reads rebuild costs, and a table
// shifted by one block can leave both reports unchanged; the costs are
// on the checkpoint wire under both policies, so the checkpoint bytes
// are what pin the table.

namespace {

struct SessionGoldenRow
{
    GoldenRow base;
    double cachedPrefixTokens;
    double prefixHitRate;
    double prefillSecondsSaved;
    std::uint64_t prefixEvictions;
    std::uint64_t checkpointFnv; //!< FNV-1a over ckpt-*.bin, step order
};

// Indexed by policy: {Lru, Cost}.
const SessionGoldenRow kSessionGolden[2] = {
    {{120u, 0u, 0u, 0u, 0u, 0u, 2u,
      599.114419173638, 0.2002956299491451, 2.8775673292333703,
      12.788259648931408, 11.944731900048239, 19.87305450052046,
      27.049516946074334, 9313.1023658591366, 77.609186382159479, 43238,
      0.74950843305717685, 0.021694720750301783, 0.08649040630067463,
      0.14867942601043496, 0.2002956299491451, 1, 0},
     112944, 0.61109608163530316, 30.69027106043659, 2434u,
     0xac01a7864db55380ULL},
    {{120u, 0u, 0u, 0u, 0u, 0u, 2u,
      599.89752437451273, 0.20003416437685556, 2.8700066961829362,
      13.425864330560959, 12.382865189846662, 21.363598492225133,
      28.967215503369797, 9219.6565330895355, 76.830471109079468, 43238,
      0.75472027328244096, 0.022596126417004026, 0.08513332133524884,
      0.19833000450716939, 0.20003416437685556, 1, 0},
     90576, 0.49007152828126521, 22.427316701373467, 3747u,
     0x2b3f86f5b40f766eULL},
};

std::uint64_t
checkpointBytesFnv(const std::string &dir)
{
    std::string bytes;
    for (const auto &[step, path] : listCheckpoints(dir)) {
        std::ifstream in(path, std::ios::binary);
        bytes.append(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    return er::Rng::hashString(bytes);
}

} // namespace

TEST(PrefixGolden, SessionPathLruAndCostBitIdentity)
{
    er::acc::SessionTraceConfig sc = servingSessionConfig();
    sc.sessions = 24;
    sc.turnsPerSession = 5;
    er::Rng rng(2029, "serving-sessions-golden");
    const auto trace = er::acc::generateSessionTrace(sc, rng);
    const PrefixEvictPolicy policies[] = {PrefixEvictPolicy::Lru,
                                          PrefixEvictPolicy::Cost};
    for (int p = 0; p < 2; ++p) {
        SCOPED_TRACE(p == 0 ? "lru" : "cost");
        const auto &g = kSessionGolden[p];
        auto eng = makeEngine();
        ServerConfig cfg;
        cfg.maxBatch = 16;
        cfg.prefillChunk = 256;
        cfg.kvWatermark = 0.01;
        cfg.prefixCache.enabled = true;
        cfg.prefixCache.evict = policies[p];
        ServingSimulator srv(eng, cfg);
        const auto dir = scratchDir(std::string("golden_") +
                                    (p == 0 ? "lru" : "cost"));
        DurabilityOptions dur;
        dur.checkpointDir = dir;
        dur.checkpointEvery = 200;
        dur.paranoid = true;
        const auto rep = srv.run(trace, FaultPlan(), dur);
        expectReportFields(rep, g.base);
        EXPECT_EQ(rep.cachedPrefixTokens, g.cachedPrefixTokens);
        EXPECT_EQ(rep.prefixHitRate, g.prefixHitRate);
        EXPECT_EQ(rep.prefillSecondsSaved, g.prefillSecondsSaved);
        EXPECT_EQ(rep.prefixEvictions, g.prefixEvictions);
        EXPECT_EQ(listCheckpoints(dir).size(), 3u);
        EXPECT_EQ(checkpointBytesFnv(dir), g.checkpointFnv);
        fs::remove_all(dir);
    }
}
