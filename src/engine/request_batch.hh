/**
 * @file
 * Columnar (structure-of-arrays) request pool for the serving stack
 * (DESIGN.md §11).  The executor's hot loops — the horizon scans of
 * decodeSteps(), scheduler queue scans, deadline sheds — read one or
 * two fields of many requests; the AoS TrackedRequest layout made each
 * of those reads pull a ~130-byte struct through the cache, and every
 * mid-queue admission memmoved those structs.  RequestBatch keeps each
 * field in its own contiguous vector, so a scan touches only the bytes
 * it compares and container membership moves 4-byte ids.
 *
 * A request occupies one slot (its ReqId) from adoption until
 * retirement; slots are recycled through a free-list, and an id is
 * never compared, ordered, or serialized, so slot assignment cannot
 * influence simulation behaviour.  TrackedRequest survives as the
 * *materialized view* of one slot: checkpoints and journal records are
 * written from materialize() output in container order, which is what
 * keeps both wire formats byte-identical to the pre-columnar layout.
 */

#ifndef EDGEREASON_ENGINE_REQUEST_BATCH_HH
#define EDGEREASON_ENGINE_REQUEST_BATCH_HH

#include <cstdint>
#include <vector>

#include "engine/request_state.hh"

namespace edgereason {
namespace engine {

/** Stable slot index of a live request in a RequestBatch. */
using ReqId = std::uint32_t;

/** Columnar request pool: one vector per TrackedRequest field. */
class RequestBatch
{
  public:
    /** Copy @p t into a slot (recycling the free-list). */
    ReqId adopt(const TrackedRequest &t);

    /** Recycle @p id's slot; panics unless its state is Done. */
    void release(ReqId id);

    /** @return the slot as a TrackedRequest (checkpoint/journal view). */
    TrackedRequest materialize(ReqId id) const;

    /** @return live (adopted, unreleased) request count. */
    std::size_t liveCount() const
    {
        return arrival_.size() - free_.size();
    }

    /** Drop every slot (checkpoint restore starts from empty). */
    void clear();

    // --- Column reads ----------------------------------------------
    Seconds arrival(ReqId i) const { return arrival_[i]; }
    Tokens inputTokens(ReqId i) const { return inputTokens_[i]; }
    Tokens outputTokens(ReqId i) const { return outputTokens_[i]; }
    int priority(ReqId i) const { return priority_[i]; }
    Seconds deadline(ReqId i) const { return deadline_[i]; }
    RequestState state(ReqId i) const { return state_[i]; }
    std::int64_t traceIndex(ReqId i) const { return traceIndex_[i]; }
    Seconds notBefore(ReqId i) const { return notBefore_[i]; }
    Tokens effOut(ReqId i) const { return effOut_[i]; }
    Seconds prefillStart(ReqId i) const { return prefillStart_[i]; }
    Tokens prefillDone(ReqId i) const { return prefillDone_[i]; }
    Tokens generated(ReqId i) const { return generated_[i]; }
    int preemptions(ReqId i) const { return preemptions_[i]; }
    bool degraded(ReqId i) const { return degraded_[i] != 0; }
    SeqId seq(ReqId i) const { return seq_[i]; }
    std::int64_t sessionId(ReqId i) const { return sessionId_[i]; }
    const std::vector<std::uint64_t> &prefixHashes(ReqId i) const
    {
        return prefixHashes_[i];
    }
    Tokens cachedPrefix(ReqId i) const { return cachedPrefix_[i]; }
    Seconds prefillEnd(ReqId i) const { return prefillEnd_[i]; }

    // --- Column writes (executor-internal bookkeeping) -------------
    void setNotBefore(ReqId i, Seconds t) { notBefore_[i] = t; }
    void setPrefillDone(ReqId i, Tokens t) { prefillDone_[i] = t; }
    void setPrefillEnd(ReqId i, Seconds t) { prefillEnd_[i] = t; }
    void setGenerated(ReqId i, Tokens t) { generated_[i] = t; }
    void bumpPreemptions(ReqId i) { ++preemptions_[i]; }
    /** Test hook: force a lifecycle state without legality checks
     *  (seeded-bug tests corrupt state to verify the auditor trips). */
    void overrideState(ReqId i, RequestState s) { state_[i] = s; }

    // --- Lifecycle rules over one slot -----------------------------
    /** Move to @p next; panics on an edge not in the state machine. */
    void transition(ReqId i, RequestState next);

    bool hasDeadline(ReqId i) const { return deadline_[i] > 0.0; }

    /** Absolute deadline instant, precomputed at adoption (+inf when
     *  the request carries none) — the decodeSteps horizon scan and
     *  the live-deadline instant set read this column directly. */
    Seconds absoluteDeadline(ReqId i) const { return absDeadline_[i]; }

    bool deadlineExpired(ReqId i, Seconds now) const
    {
        return hasDeadline(i) &&
            now > arrival_[i] + deadline_[i] + kDeadlineSlack;
    }

    bool eligibleAt(ReqId i, Seconds now) const
    {
        return notBefore_[i] <= now + kTimeSlack;
    }

    /**
     * (Re-)initialize slot @p i's in-flight fields at admission time
     * (recompute-on-resume: prior prefill/decode progress is
     * discarded work).  Transitions to Prefilling.  @p cached_prefix
     * prompt tokens were attached from the prefix index, so prefill
     * starts there instead of at zero.
     */
    void resetForAdmission(ReqId i, Seconds now, Tokens eff_out,
                           bool degraded_now, SeqId kv_seq,
                           Tokens cached_prefix = 0);

  private:
    std::vector<Seconds> arrival_;
    std::vector<Tokens> inputTokens_;
    std::vector<Tokens> outputTokens_;
    std::vector<int> priority_;
    std::vector<Seconds> deadline_;
    std::vector<Seconds> absDeadline_;
    std::vector<RequestState> state_;
    std::vector<std::int64_t> traceIndex_;
    std::vector<Seconds> notBefore_;
    std::vector<Tokens> effOut_;
    std::vector<Seconds> prefillStart_;
    std::vector<Tokens> prefillDone_;
    std::vector<Tokens> generated_;
    std::vector<int> preemptions_;
    std::vector<std::uint8_t> degraded_;
    std::vector<SeqId> seq_;
    std::vector<std::int64_t> sessionId_;
    std::vector<std::vector<std::uint64_t>> prefixHashes_;
    std::vector<Tokens> cachedPrefix_;
    std::vector<Seconds> prefillEnd_;
    std::vector<std::uint8_t> live_;
    std::vector<ReqId> free_;
};

/**
 * The wait queue as an id sequence: a vector of ReqIds with a popped
 * head offset, so admission from the front is O(1) and a mid-queue
 * erase memmoves 4-byte ids instead of TrackedRequests.  Logical
 * index 0 is always the oldest entry (FIFO order is preserved by
 * every operation — the scheduler's queue-order tiebreak depends on
 * it).
 *
 * The queue also keeps three sticky order hints, reset whenever it
 * drains empty: all entries pushed since then share one priority
 * class, arrived in non-decreasing order, and none carried a
 * retry-backoff gate.  When all three hold, the fcfs scan provably
 * returns logical index 0, so FcfsScheduler skips the scan entirely
 * (the common case on zero-fault runs).  The hints are conservative:
 * erasing the entry that falsified one does not restore it.
 */
class IdQueue
{
  public:
    /** Append @p id; @p priority / @p arrival / @p gated maintain the
     *  fcfs fast-path hints. */
    void push(ReqId id, int priority, Seconds arrival, bool gated);

    std::size_t size() const { return ids_.size() - head_; }
    bool empty() const { return head_ == ids_.size(); }
    ReqId operator[](std::size_t i) const { return ids_[head_ + i]; }

    /** Remove logical index @p i, preserving order. */
    void eraseAt(std::size_t i);

    void clear();

    /** @return true when the fcfs pick is provably logical index 0. */
    bool fcfsFrontIsPick() const
    {
        return uniformPriority_ && fifoByArrival_ && !anyGated_;
    }

  private:
    void resetHints();

    std::vector<ReqId> ids_;
    std::size_t head_ = 0;
    bool uniformPriority_ = true;
    bool fifoByArrival_ = true;
    bool anyGated_ = false;
    bool haveFirst_ = false;
    int priorityClass_ = 0;
    Seconds lastArrival_ = 0.0;
};

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_REQUEST_BATCH_HH
