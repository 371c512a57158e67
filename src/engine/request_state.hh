/**
 * @file
 * Per-request lifecycle for the layered serving stack.  A request moves
 * through an explicit state machine:
 *
 *     Queued ──admit──> Prefilling ──prompt done──> Decoding ──> Done
 *       ^  \                │                          │
 *       │   shed/abort      ├──evict──> Preempted <───evict
 *       │                   v               │
 *       └────────────── (re-queue) <────────┘   (retry, backoff-gated)
 *
 * Terminal Done covers every RequestOutcome (completed, timed out,
 * shed).  The executor's columnar pool (engine/request_batch.hh)
 * carries each request through its states — the scheduler ranks
 * Queued/Preempted entries, the executor drives Prefilling/Decoding
 * ones — and RequestBatch::transition() panics on any edge not in the
 * diagram, so a scheduling bug trips an invariant instead of silently
 * corrupting accounting.  TrackedRequest is one request's record in
 * checkpoints and journals.
 */

#ifndef EDGEREASON_ENGINE_REQUEST_STATE_HH
#define EDGEREASON_ENGINE_REQUEST_STATE_HH

#include "common/binio.hh"
#include "common/types.hh"
#include "engine/kv_cache.hh"

namespace edgereason {
namespace engine {

/**
 * Slack added to deadline comparisons so that a request finishing
 * exactly at its deadline (up to floating-point round-off in the clock
 * integration) counts as on time.  Shared by ServedRequest::deadlineMet
 * and every scheduler-side deadline check (queue shed, mid-flight
 * abort, decode expiry) so the two sides can never drift: a request
 * aborted as late is never re-counted as having met its deadline, and
 * vice versa.
 */
inline constexpr Seconds kDeadlineSlack = 1e-9;

/**
 * Slack of the event/arrival pumps and retry-backoff gates ("has this
 * instant been reached yet"): much tighter than kDeadlineSlack because
 * it compares the clock against times the simulator itself produced.
 */
inline constexpr Seconds kTimeSlack = 1e-12;

/** One serving request. */
struct ServerRequest
{
    Seconds arrival = 0.0;
    Tokens inputTokens = 0;
    Tokens outputTokens = 0;
    /**
     * Scheduling class: higher admits first (an autonomous system's
     * "avoid that obstacle now!" outranks its background planning
     * queries).  FIFO within a class under the fcfs policy.
     */
    int priority = 0;
    /**
     * Relative deadline in seconds from arrival; <= 0 means none.
     * Requests that cannot (or did not) finish by arrival + deadline
     * are shed from the queue or aborted mid-flight.
     */
    Seconds deadline = 0.0;
    /** Conversation this request belongs to; -1 for one-shot traffic. */
    std::int64_t sessionId = -1;
    /**
     * Chain hashes of the prompt's block-aligned prefixes, supplied by
     * the workload layer: element i hashes all token ids in blocks
     * [0, i] of the prompt, so equal hashes mean equal prefixes.  Empty
     * for workloads without shareable prefixes; consumed by the
     * cross-request prefix index (DESIGN.md §13).  The empty default
     * initializer lets aggregate initializers that stop before this
     * field build cleanly under -Wmissing-field-initializers.
     */
    std::vector<std::uint64_t> prefixHashes{};
};

/** Final disposition of a request. */
enum class RequestOutcome {
    Completed, //!< all output tokens generated
    TimedOut,  //!< admitted, aborted at its deadline
    Shed,      //!< never (re-)admitted: deadline or retries exhausted
    Cancelled, //!< withdrawn by the caller (fleet hedge/failover)
};

/** @return human-readable outcome name. */
const char *requestOutcomeName(RequestOutcome o);

/**
 * Per-request record.  Every trace request produces exactly one record
 * whatever its fate, and all time fields are finite and well-defined
 * for every outcome:
 *  - Completed: queueDelay = last prefill start - arrival, serviceTime
 *    = finish - last prefill start (earlier preempted service is
 *    discarded work, reflected only in the counters).
 *  - TimedOut: same fields, with finish = the abort time.
 *  - Shed: queueDelay = time spent waiting until shed, serviceTime =
 *    0, finish = the shed time.
 * latency() is therefore always finish - arrival: time in system.
 */
struct ServedRequest
{
    ServerRequest request;
    RequestOutcome outcome = RequestOutcome::Completed;
    Seconds queueDelay = 0.0;   //!< (last) admission - arrival
    Seconds serviceTime = 0.0;  //!< (last) prefill start -> finish
    Seconds finish = 0.0;
    Tokens generated = 0;       //!< output tokens produced (kept work)
    int preemptions = 0;        //!< times evicted and recomputed
    bool degraded = false;      //!< served under a degraded policy
    std::int64_t traceIndex = -1; //!< position in the input trace
    Tokens cachedPrefix = 0;    //!< prompt tokens served from the prefix index
    /**
     * Instant the (last) prefill finished — the time-to-first-token
     * marker (firstToken - arrival == TTFT).  0 for requests that never
     * reached decode.
     */
    Seconds firstToken = 0.0;
    /** @return time in system (== finish - arrival for all outcomes). */
    Seconds latency() const { return queueDelay + serviceTime; }
    /** @return true if the request completed within its deadline
     *  (requests without a deadline count as met when completed). */
    bool deadlineMet() const
    {
        if (outcome != RequestOutcome::Completed)
            return false;
        return request.deadline <= 0.0 ||
            finish <= request.arrival + request.deadline +
                kDeadlineSlack;
    }
};

/** Lifecycle state of a request inside the serving stack. */
enum class RequestState {
    Queued,     //!< waiting for admission (never yet admitted)
    Prefilling, //!< admitted, prompt tokens being processed
    Decoding,   //!< in the shared decode batch
    Preempted,  //!< evicted, waiting (backoff-gated) for re-admission
    Done,       //!< terminal: completed, timed out, or shed
};

/** @return human-readable state name. */
const char *requestStateName(RequestState s);

/** @return true if @p from -> @p to is a legal lifecycle edge. */
bool requestTransitionAllowed(RequestState from, RequestState to);

/**
 * One request tracked through its whole lifecycle.  Queued/Preempted
 * entries live in the scheduler queue; Prefilling/Decoding ones in the
 * executor's in-flight sets.  Preemption is recompute-on-resume: the
 * in-flight fields are discarded on eviction and re-initialized by
 * RequestBatch::resetForAdmission() on the next admission.
 *
 * Since the columnar refactor (DESIGN.md §11) the executor's live
 * state is the struct-of-arrays RequestBatch pool; this plain struct
 * is its *materialized view* (`pool.materialize(id)` /
 * `pool.adopt(t)`), kept as the unit of the checkpoint/journal wire
 * format and of code that wants a whole request by value.  Every
 * lifecycle rule lives on the pool.  Field-for-field it mirrors the
 * pool's columns, so the serialized bytes are unchanged from the
 * pre-columnar executor.
 */
struct TrackedRequest
{
    ServerRequest req;
    RequestState state = RequestState::Queued;
    std::int64_t traceIndex = -1; //!< position in the input trace

    // --- Waiting fields (Queued / Preempted) -----------------------
    Seconds notBefore = 0.0; //!< retry-backoff gate

    // --- In-flight fields (Prefilling / Decoding) ------------------
    Tokens effOut = 0; //!< output budget (degraded <= requested)
    Seconds prefillStart = 0.0;
    Tokens prefillDone = 0;
    Tokens generated = 0;
    int preemptions = 0;
    bool degraded = false;
    SeqId seq = 0; //!< paged-mode KV sequence handle
    Tokens cachedPrefix = 0; //!< prompt tokens attached from the prefix index
    Seconds prefillEnd = 0.0; //!< instant prefill completed (TTFT marker)
};

// --- Checkpoint/journal field lists (common/binio archives) ---------
// Minimum wire bytes of one record, for ByteReader::count().
inline constexpr std::size_t kServerRequestMinBytes = 56;
inline constexpr std::size_t kServedRequestMinBytes =
    kServerRequestMinBytes + 66;
inline constexpr std::size_t kTrackedRequestMinBytes =
    kServerRequestMinBytes + 82;

template <class Ar>
void
io(Ar &a, ServerRequest &r)
{
    a.f64(r.arrival);
    a.i64(r.inputTokens);
    a.i64(r.outputTokens);
    a.i64(r.priority);
    a.f64(r.deadline);
    a.i64(r.sessionId);
    a.seq(r.prefixHashes, 8, [&](std::uint64_t &h) { a.u64(h); });
}

template <class Ar>
void
io(Ar &a, ServedRequest &r)
{
    io(a, r.request);
    a.enum8(r.outcome, RequestOutcome::Cancelled);
    a.f64(r.queueDelay);
    a.f64(r.serviceTime);
    a.f64(r.finish);
    a.i64(r.generated);
    a.i64(r.preemptions);
    a.flag(r.degraded);
    a.i64(r.traceIndex);
    a.i64(r.cachedPrefix);
    a.f64(r.firstToken);
}

template <class Ar>
void
io(Ar &a, TrackedRequest &r)
{
    io(a, r.req);
    a.enum8(r.state, RequestState::Done);
    a.i64(r.traceIndex);
    a.f64(r.notBefore);
    a.i64(r.effOut);
    a.f64(r.prefillStart);
    a.i64(r.prefillDone);
    a.i64(r.generated);
    a.i64(r.preemptions);
    a.flag(r.degraded);
    a.u64(r.seq);
    a.i64(r.cachedPrefix);
    a.f64(r.prefillEnd);
}

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_REQUEST_STATE_HH
