/**
 * @file
 * Ordered multiset of future instants for the serving executor's
 * three time indexes (DESIGN.md §11): retry-gate releases, absolute
 * deadlines of live requests, and the gate keys of queued
 * deadline-carrying entries.  The executor asks each index two
 * questions per scheduling cycle, "what is the earliest key?" and
 * "what is the earliest key strictly after t?", and a std::multiset
 * answers both in O(log n).  Answers are key *values* (exact double
 * comparisons; the simulator reproduces keys bit-identically), so
 * nothing reported depends on how the set is laid out.
 */

#ifndef EDGEREASON_ENGINE_INSTANT_SET_HH
#define EDGEREASON_ENGINE_INSTANT_SET_HH

#include <cmath>
#include <cstddef>
#include <limits>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace edgereason {
namespace engine {

/** Multiset of instants with earliest-key queries.  Duplicate keys
 *  are kept (multiset semantics). */
class InstantSet
{
  public:
    /** Add one instance of @p key; panics on NaN. */
    void insert(Seconds key)
    {
        panic_if(std::isnan(key), "instant set: NaN key");
        keys_.insert(key);
    }

    /** Remove one instance of @p key; panics if absent (an absent key
     *  means derived-state drift, the class of bug the auditor
     *  exists to catch). */
    void erase(Seconds key)
    {
        const auto it = keys_.find(key);
        panic_if(it == keys_.end(), "instant set: erase of absent key ",
                 key, " (derived-state drift)");
        keys_.erase(it);
    }

    /** @return the smallest key (+inf when empty). */
    Seconds min() const
    {
        return keys_.empty() ? kNone : *keys_.begin();
    }

    /** @return the smallest key strictly greater than @p t (+inf when
     *  none). */
    Seconds firstAfter(Seconds t) const
    {
        const auto it = keys_.upper_bound(t);
        return it == keys_.end() ? kNone : *it;
    }

    std::size_t size() const { return keys_.size(); }
    bool empty() const { return keys_.empty(); }
    void clear() { keys_.clear(); }

    /** All keys, sorted ascending (auditor cross-checks). */
    std::vector<Seconds> sortedKeys() const
    {
        return {keys_.begin(), keys_.end()};
    }

  private:
    static constexpr Seconds kNone =
        std::numeric_limits<Seconds>::infinity();

    std::multiset<Seconds> keys_;
};

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_INSTANT_SET_HH
