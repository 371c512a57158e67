/**
 * @file
 * Next-stop-time index over fleet nodes (DESIGN.md §15).  The fleet
 * driver must, before processing a heap event at time T, advance every
 * node that changes something a router or the driver reads before T.
 * This index keeps one key per node — the instant of that next visible
 * change while the node is up and busy, +inf otherwise — in an indexed
 * binary min-heap, so the driver pays O(log N) per node-state change
 * and O(lagging) per collection instead of scanning all N nodes per
 * event.
 *
 * Determinism: the index is value-compared only.  minKey() is a pure
 * minimum over the keys, and collectLagging() returns ids in ascending
 * order, so heap layout and key tie-breaking never leak into fleet
 * arithmetic.  The index is derived state: never serialized, rebuilt
 * from the nodes after a checkpoint restore.
 */

#ifndef EDGEREASON_FLEET_STOP_INDEX_HH
#define EDGEREASON_FLEET_STOP_INDEX_HH

#include <algorithm>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace edgereason {
namespace fleet {

class NodeStopIndex
{
  public:
    static constexpr Seconds kNoStop =
        std::numeric_limits<Seconds>::infinity();

    /** Size the index for @p n nodes, every key at +inf (idle). */
    void reset(std::size_t n)
    {
        key_.assign(n, kNoStop);
        heap_.resize(n);
        pos_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            heap_[i] = i;
            pos_[i] = i;
        }
    }

    std::size_t size() const { return key_.size(); }

    /** @return node @p i's current key. */
    Seconds key(std::size_t i) const { return key_[i]; }

    /** Re-key node @p i (its state changed). */
    void update(std::size_t i, Seconds key)
    {
        panic_if(i >= key_.size(), "stop index: node ", i,
                 " out of range");
        if (key_[i] == key)
            return;
        const bool up = key < key_[i];
        key_[i] = key;
        if (up)
            siftUp(pos_[i]);
        else
            siftDown(pos_[i]);
    }

    /** @return the minimum key (+inf when no node is up and busy). */
    Seconds minKey() const
    {
        return heap_.empty() ? kNoStop : key_[heap_[0]];
    }

    /**
     * Append to @p out every node id satisfying the lag predicate
     * `key + slack < target`, in ascending id order.  The predicate
     * is evaluated in exactly that form — not algebraically
     * rearranged — so its FP rounding is the same as a scan testing
     * each node's key.  Only qualifying heap subtrees
     * are visited, so the cost is O(matches), not O(N).
     */
    void collectLagging(Seconds target, Seconds slack,
                        std::vector<int> &out) const
    {
        const std::size_t first = out.size();
        if (!heap_.empty())
            collect(0, target, slack, out);
        std::sort(out.begin() + static_cast<std::ptrdiff_t>(first),
                  out.end());
    }

  private:
    void collect(std::size_t h, Seconds target, Seconds slack,
                 std::vector<int> &out) const
    {
        // The predicate is monotone in the key, so a non-lagging
        // min-heap entry rules out its whole subtree.
        if (!(key_[heap_[h]] + slack < target))
            return;
        out.push_back(static_cast<int>(heap_[h]));
        const std::size_t l = 2 * h + 1, r = 2 * h + 2;
        if (l < heap_.size())
            collect(l, target, slack, out);
        if (r < heap_.size())
            collect(r, target, slack, out);
    }

    bool less(std::size_t a, std::size_t b) const
    {
        // Key ties broken by id so sift moves are deterministic; the
        // tie-break never surfaces (minKey is a value, collectLagging
        // sorts), it just keeps the structure canonical.
        const Seconds ka = key_[heap_[a]], kb = key_[heap_[b]];
        if (ka != kb)
            return ka < kb;
        return heap_[a] < heap_[b];
    }

    void place(std::size_t h, std::size_t id)
    {
        heap_[h] = id;
        pos_[id] = h;
    }

    void siftUp(std::size_t h)
    {
        const std::size_t id = heap_[h];
        while (h > 0) {
            const std::size_t parent = (h - 1) / 2;
            if (!less(h, parent))
                break;
            std::swap(heap_[h], heap_[parent]);
            pos_[heap_[h]] = h;
            h = parent;
        }
        place(h, id);
    }

    void siftDown(std::size_t h)
    {
        const std::size_t n = heap_.size();
        while (true) {
            std::size_t best = h;
            const std::size_t l = 2 * h + 1, r = 2 * h + 2;
            if (l < n && less(l, best))
                best = l;
            if (r < n && less(r, best))
                best = r;
            if (best == h)
                return;
            const std::size_t a = heap_[h], b = heap_[best];
            place(h, b);
            place(best, a);
            h = best;
        }
    }

    std::vector<Seconds> key_;     //!< per node id
    std::vector<std::size_t> heap_; //!< heap position -> node id
    std::vector<std::size_t> pos_;  //!< node id -> heap position
};

} // namespace fleet
} // namespace edgereason

#endif // EDGEREASON_FLEET_STOP_INDEX_HH
