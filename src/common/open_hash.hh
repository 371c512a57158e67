/**
 * @file
 * Minimal open-addressed hash map for hot lookup paths (the engine's
 * step-cost memo and its thread-local L1, the router's load-class
 * index).  std::map's red-black tree
 * costs ~6 dependent pointer chases per lookup on keys that are a few
 * machine words; here a lookup is one FNV-1a over the packed key bytes
 * (the same hash primitive the journal uses, common/binio.hh) plus a
 * short linear probe over a flat array.
 *
 * Deliberately narrow: keys must be trivially copyable with unique
 * object representations (no padding bytes — enforced at compile
 * time, so hashing the raw bytes is well-defined), growth rehashes in
 * place at ~0.7 load, and erase() shifts the probe run back instead of
 * leaving tombstones.
 */

#ifndef EDGEREASON_COMMON_OPEN_HASH_HH
#define EDGEREASON_COMMON_OPEN_HASH_HH

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/binio.hh"

namespace edgereason {

template <typename Key, typename Value>
class OpenHashMap
{
    static_assert(std::is_trivially_copyable_v<Key>,
                  "keys are hashed by raw bytes");
    static_assert(std::has_unique_object_representations_v<Key>,
                  "keys must be padding-free so byte hashing and "
                  "equality agree");

  public:
    /** @return the cached value for @p key, or nullptr on a miss. */
    Value *find(const Key &key)
    {
        if (slots_.empty())
            return nullptr;
        for (std::size_t i = indexOf(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (equal(s.key, key))
                return &s.value;
        }
    }

    /**
     * Insert @p key -> @p value (the key must not be present) and
     * return a reference to the stored value.  References are
     * invalidated by the next insert.
     */
    Value &insert(const Key &key, const Value &value)
    {
        if ((size_ + 1) * 10 >= slots_.size() * 7)
            grow();
        for (std::size_t i = indexOf(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used) {
                s.used = true;
                s.key = key;
                s.value = value;
                ++size_;
                return s.value;
            }
        }
    }

    /**
     * Remove @p key if present (backward-shift deletion: later entries
     * of the probe run move up, so no tombstones accumulate).
     * @return true if an entry was removed.
     */
    bool erase(const Key &key)
    {
        if (slots_.empty())
            return false;
        std::size_t i = indexOf(key);
        for (;; i = (i + 1) & mask_) {
            if (!slots_[i].used)
                return false;
            if (equal(slots_[i].key, key))
                break;
        }
        for (std::size_t j = (i + 1) & mask_; slots_[j].used;
             j = (j + 1) & mask_) {
            // An entry whose home lies cyclically in (i, j] is still
            // reachable from it; any other one moves into the hole.
            const std::size_t home = indexOf(slots_[j].key);
            if (((j - home) & mask_) < ((j - i) & mask_))
                continue;
            slots_[i] = slots_[j];
            i = j;
        }
        slots_[i] = Slot{};
        --size_;
        return true;
    }

    std::size_t size() const { return size_; }

    /** Drop every entry but keep the slot array for reuse. */
    void clear()
    {
        std::fill(slots_.begin(), slots_.end(), Slot{});
        size_ = 0;
    }

  private:
    struct Slot
    {
        Key key{};
        Value value{};
        bool used = false;
    };

    static bool equal(const Key &a, const Key &b)
    {
        return std::memcmp(&a, &b, sizeof(Key)) == 0;
    }

    std::size_t indexOf(const Key &key) const
    {
        char raw[sizeof(Key)];
        std::memcpy(raw, &key, sizeof(Key));
        return static_cast<std::size_t>(
                   fnv1aInline(raw, sizeof(Key))) &
               mask_;
    }

    void grow()
    {
        // Start large enough that a serving run's working set of
        // (bucket, batch) keys never triggers the rehash ladder.
        const std::size_t cap =
            slots_.empty() ? 512 : slots_.size() * 2;
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
        size_ = 0;
        for (const Slot &s : old)
            if (s.used)
                insert(s.key, s.value);
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace edgereason

#endif // EDGEREASON_COMMON_OPEN_HASH_HH
