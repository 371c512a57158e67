/**
 * @file
 * The execution layer of the serving stack.  BatchExecutor owns
 * everything below admission ordering: the simulated clock and
 * energy/thermal integration, KV reservation (scalar watermark on
 * ideal runs, paged KvCache with preemption under an active fault
 * plan), chunked prefill, step-synchronous decode, fault-event
 * application, and the per-request outcome records.  The scheduler
 * (engine/scheduler.hh) only decides *which* queued request is
 * admitted next.  The serving cycle itself (runCycle) lives here too,
 * written once for both of its drivers: ServingSimulator::run wraps
 * it in durability, and FleetNode::advanceUntil in fleet sync.
 *
 * One executor instance drives one run: all accumulators start at
 * zero and report() snapshots them into a ServingReport.
 */

#ifndef EDGEREASON_ENGINE_EXECUTOR_HH
#define EDGEREASON_ENGINE_EXECUTOR_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "engine/auditor.hh"
#include "engine/instant_set.hh"
#include "engine/request_batch.hh"
#include "engine/server.hh"
#include "hw/thermal.hh"

namespace edgereason {
namespace engine {

class Journal;

/**
 * Mutable scheduling state of one run, shared between the arrival
 * pump, the scheduler, and the executor.  Request fields live in the
 * columnar `pool` (engine/request_batch.hh); the three id containers
 * partition the live ids by lifecycle state: `queue` holds
 * Queued/Preempted entries, `prefilling` holds Prefilling ones (in
 * admission order; the front request owns the current prefill), and
 * `active` holds the Decoding batch.
 *
 * Three ordered instant sets (engine/instant_set.hh) index future
 * instants the executor would otherwise rediscover by scanning
 * containers:
 *
 *  - retryGates: one key per queued entry with notBefore > 0 — the
 *    next gate opening for sleepUntilWake and the macro gate stop;
 *  - deadlines: the absolute deadline of every *live* deadline-
 *    carrying request (queued, prefilling, or decoding).  Its min is
 *    a superset min of what decodeSteps' legacy scan computed (active
 *    + queue); the superset only adds prefilling entries, and a
 *    non-empty prefill set forces the macro horizon to one step,
 *    where the deadline bound provably cannot alter any accumulator —
 *    so the shared index is behaviour-identical and lets queue sheds
 *    and prefill aborts skip their scans whenever min() is in the
 *    future;
 *  - queuedDeadlineGates: the notBefore key (0.0 when ungated) of
 *    every queued deadline-carrying entry; min() <= now + kTimeSlack
 *    iff some eligible deadline-carrying entry is waiting, which is
 *    exactly the legacy allow_multi disqualification scan.
 *
 * All three are derived state: maintained by the mutators below,
 * rebuilt from the containers after a checkpoint read, never
 * serialized, and cross-checked against brute-force rebuilds by the
 * auditor.
 */
struct ServingState
{
    RequestBatch pool;
    IdQueue queue;
    std::vector<ReqId> prefilling;
    std::vector<ReqId> active;
    /** True if any trace request carries a deadline. */
    bool haveDeadlines = false;
    /** Largest wait-queue depth observed (queueing observability). */
    std::size_t peakQueueDepth = 0;
    InstantSet retryGates;
    InstantSet deadlines;
    InstantSet queuedDeadlineGates;

    /** Adopt a fresh trace arrival into the pool and wait queue. */
    ReqId enqueueNew(const TrackedRequest &t)
    {
        const ReqId id = pool.adopt(t);
        if (pool.hasDeadline(id))
            deadlines.insert(pool.absoluteDeadline(id));
        pushQueue(id);
        return id;
    }

    /** Re-queue a preempted (still live) request. */
    void requeue(ReqId id) { pushQueue(id); }

    /** Forget @p id's queue-side index keys; call before erasing it
     *  from the queue. */
    void onLeaveQueue(ReqId id)
    {
        if (pool.notBefore(id) > 0.0)
            retryGates.erase(pool.notBefore(id));
        if (pool.hasDeadline(id))
            queuedDeadlineGates.erase(pool.notBefore(id));
    }

    /** Forget @p id's deadline key; call when it leaves the live set
     *  (retire/shed), before pool.release(). */
    void unindexDeadline(ReqId id)
    {
        if (pool.hasDeadline(id))
            deadlines.erase(pool.absoluteDeadline(id));
    }

    /** @return the earliest gate strictly after @p t (+inf if none):
     *  the first instant a currently ineligible entry becomes
     *  eligible.  Matches the legacy scan's `notBefore > clock`. */
    Seconds nextGateAfter(Seconds t) const
    {
        return retryGates.firstAfter(t);
    }

    /** @return number of admitted (prefilling + decoding) requests. */
    int inFlight() const
    {
        return static_cast<int>(prefilling.size() + active.size());
    }

    /** @return true if any request is admitted. */
    bool hasInFlight() const
    {
        return !prefilling.empty() || !active.empty();
    }

    /**
     * Checkpoint field list of the full scheduling state.  The wire
     * format is the pre-columnar one: TrackedRequest records in
     * container order (pool ids and the instant sets are derived
     * state, rebuilt after a read), so checkpoints stay
     * byte-compatible.
     */
    template <class Ar>
    void io(Ar &a);

  private:
    void pushQueue(ReqId id)
    {
        const bool gated = pool.notBefore(id) > 0.0;
        if (gated)
            retryGates.insert(pool.notBefore(id));
        if (pool.hasDeadline(id))
            queuedDeadlineGates.insert(pool.notBefore(id));
        queue.push(id, pool.priority(id), pool.arrival(id), gated);
        if (queue.size() > peakQueueDepth)
            peakQueueDepth = queue.size();
    }
};

/**
 * What a serving cycle reads from its driver: where arrivals come
 * from, and the two inputs only a fleet node sets (a gray-failure
 * speed latch and the lazy-sync laziness guard).  ServingSimulator
 * reads a trace cursor; a FleetNode reads the legs routed to it.
 */
class ArrivalSource
{
  public:
    /** @return the next arrival instant (+inf when none is left). */
    virtual Seconds nextArrival() const = 0;
    /** Remove and return the next arrival (called only when one is
     *  due). */
    virtual TrackedRequest popArrival() = 0;
    /**
     * Gray-failure latch at @p t: every busy work quantum costs
     * @p scale× its nominal wall time (energy follows), and the scale
     * can change next at @p edge.  Sets both and @return true; a
     * source with no slowdown windows returns false, and the cycle
     * then never touches the executor's scale, which keeps the
     * bit-identical 1.0 path.  The scale is derived state (a pure
     * function of the clock): never serialized, and deliberately
     * invisible to the deadline-admission service estimates.
     */
    virtual bool slowdownAt(Seconds, double &, Seconds &) const
    {
        return false;
    }
    /**
     * Laziness hook (DESIGN.md §15): whatever the cycle changed since
     * it began, or since the previous call, happened at or after
     * @p at.  Called once the pre-decode part of the cycle is done
     * (with the cycle start) and after a decode segment (with the
     * start of its last step, less half a step of slack).
     */
    virtual void changedSince(Seconds) {}

  protected:
    ~ArrivalSource() = default;
};

/**
 * Batch executor: engine stepping, KV admission, and fault/derating
 * application for one serving run.  Borrowed engines and the fault
 * plan must outlive the executor.  Engines are used only through
 * their const query surface, so several executors (fleet nodes of one
 * spec) may share one.
 */
class BatchExecutor
{
  public:
    /**
     * @param engine  primary engine (cost model + KV geometry)
     * @param fallback  degraded-mode engine (Fallback mode only)
     * @param config  scheduler limits and degrade policy
     * @param faults  fault plan (inactive plan => legacy ideal path)
     * @param served  sink for per-request outcome records
     */
    BatchExecutor(const InferenceEngine &engine,
                  const InferenceEngine *fallback,
                  const ServerConfig &config, const FaultPlan &faults,
                  std::vector<ServedRequest> &served);

    /** @return the simulated wall clock. */
    Seconds clock() const { return acc_.clock; }

    /** @return the scalar integrators (journal/checkpoint snapshot). */
    const ExecAccumulators &accumulators() const { return acc_; }

    /**
     * Attach a write-ahead journal: every admission, step, preemption,
     * fault application, and retirement is recorded through it.
     * Observer-only — attaching a journal never changes the run's
     * arithmetic.  Borrowed; null detaches.
     */
    void setJournal(Journal *journal) { journal_ = journal; }

    /** Build the invariant auditor's snapshot (engine/auditor.hh). */
    AuditView auditView(const ServingState &st, std::size_t trace_size,
                        std::size_t next_arrival) const;

    /**
     * Checkpoint field list of the executor's mutable run state:
     * accumulators, thermal state, and (under an active fault plan)
     * the paged KV pool with its ballast handle; reading fatal()s on a
     * paged/scalar mode mismatch.  Memoization caches are skipped —
     * they rebuild from the engine's noiseless const query surface,
     * so a resumed run recomputes identical values.
     */
    template <class Ar>
    void io(Ar &a);

    /**
     * One serving cycle (DESIGN.md §8), the only one in the stack:
     * pull the arrivals due by the clock from @p src, apply due fault
     * events, idle to the next arrival when nothing is queued or in
     * flight, latch @p src's speed scale, shed expired queued
     * requests, admit through @p sched, then either sleep while the
     * queue is gated or run one prefill chunk, abort expired
     * prefills, and decode one step (exact mode) or one macro
     * segment.  The gated sleep and the segment stop at the next
     * arrival, @p target and the next slowdown edge, whichever comes
     * first.  @return false when the cycle ended at that bound with
     * nothing to do before it (the caller moves its target on), true
     * otherwise.
     */
    bool runCycle(ServingState &st, const Scheduler &sched,
                  ArrivalSource &src, Seconds target);

    /**
     * Non-committing peek at the cycle runCycle(@p st, ..., @p src,
     * target) would run now (DESIGN.md §15, lazy fleet sync).
     * @return the clock at the start of the last step of the decode
     * segment it runs: every request the segment retires, and
     * anything the cycle after it changes, happens at or after that
     * instant.  The segment is decodeSteps' own planSegment(), bounded
     * by the next arrival and slowdown edge but not the target (a
     * split there changes nothing a caller reads), and its step
     * additions are replayed in decodeSteps' order, so the value is
     * bit-exact.  An arrival or fault event due, an expired deadline
     * or a prefill in flight ends that plan at its first step, so the
     * peek reads clock() for them; it returns clock() up front only
     * for an admission into a free slot, an empty decode batch, or
     * thermal coupling (whose governor needs the real RC
     * integration).
     */
    Seconds peekCycle(const ServingState &st,
                      const ArrivalSource &src) const;

    /**
     * Cancel a live request by its trace index (fleet hedging and
     * failover): the request retires immediately with
     * RequestOutcome::Cancelled, releasing its KV reservation and
     * batch slot at the current clock.  @return false when no live
     * request carries @p trace_index (already retired — the benign
     * hedge race where both legs ran to completion).
     */
    bool cancelByTraceIndex(ServingState &st, std::int64_t trace_index);

    /** @return true while the thermal governor holds a derated mode
     *  (fleet health probes treat this as a degraded node). */
    bool throttled() const
    {
        return thermalOn_ && thermal_.throttled();
    }

    /** Snapshot the run's aggregate metrics. */
    ServingReport report(Seconds first_arrival,
                         SchedulerPolicy policy,
                         const ServingState &st) const;

  private:
    /** The cycle's stages, in runCycle's order. */
    void pullArrivals(ServingState &st, ArrivalSource &src);

    /** Jump the clock to @p t with the device idle (thermal cooling
     *  integrates on the way; exact assignment keeps idle jumps
     *  bit-stable). */
    void idleTo(Seconds t);

    /** Apply every fault event scheduled at or before the clock. */
    void pumpEvents(ServingState &st);

    /** Shed queued requests whose deadline has already passed
     *  (deadline admission control, part 1).  O(1) when the earliest
     *  live deadline is still in the future. */
    void shedExpiredQueued(ServingState &st);

    /**
     * Admission: ask @p sched for the next request while batch slots
     * and KV capacity allow.  Applies budget degradation, refuses
     * work that cannot meet its deadline even under an optimistic
     * service estimate (part 2 of admission control), and reserves
     * the full KV footprint up front.
     */
    void admit(ServingState &st, const Scheduler &sched);

    /** Process one prefill chunk (or the whole remaining prompt when
     *  chunking is disabled) of the front prefilling request. */
    void prefillStep(ServingState &st);

    /** Time out prefilling requests that blew their deadline waiting
     *  on (or doing) prefill work (mid-flight abort).  O(1) when the
     *  earliest live deadline is still in the future. */
    void abortExpiredPrefills(ServingState &st);

    /** One decode step for the whole batch; retires completed and
     *  timed-out sequences.  The --exact-steps oracle that
     *  decodeSteps() is checked against. */
    void decodeStep(ServingState &st);

    /** Credit every decoding sequence with @p gained tokens at the
     *  clock and retire the completed and timed-out ones (the retire
     *  loop of both decode paths). */
    void advanceDecoded(ServingState &st, Tokens gained);

    /** Where a decode segment from the clock stops (DESIGN.md §10). */
    struct SegmentPlan
    {
        int batch = 0;
        /** Context and generated-token sums over the batch. */
        double ctxSum = 0.0;
        double genSum = 0.0;
        /** Step cap: the earliest completion, capped by
         *  macroHorizonCap; 1 when admission could act between steps. */
        std::uint64_t kmax = 0;
        /** The segment ends once the clock reaches this instant (less
         *  kTimeSlack): the bound, next fault event or gate opening. */
        Seconds stop = 0.0;
        /** ...or passes this one: the earliest live deadline plus
         *  kDeadlineSlack. */
        Seconds dminSlack = 0.0;
    };

    /** Plan the segment decodeSteps(@p st, @p bound) would run now;
     *  peekCycle() replays the same plan. */
    SegmentPlan planSegment(const ServingState &st, Seconds bound) const;

    /**
     * Macro-stepping decode (DESIGN.md §10): fast-forward whole-batch
     * decode steps until the next scheduler-visible boundary — the
     * cycle's @p bound (next arrival, sync target or slowdown edge;
     * +inf when there is none), the next fault event, the earliest
     * completion or deadline expiry, a retry gate opening, a
     * thermal-latch flip, or ServerConfig::macroHorizonCap steps
     * (0 = unbounded).  Each fast-forwarded step performs the
     * same arithmetic in the same order as decodeStep(), so every
     * accumulator and report field is bit-identical to the exact
     * loop; what the segment skips is the per-step scheduler
     * machinery and journal traffic (one coalesced Step record per
     * segment).  Retirement happens at the horizon, where it is
     * equivalent: the horizon never extends past the earliest
     * completion or deadline expiry.  The horizon is planSegment();
     * its inputs (earliest deadline, next gate, eligible
     * deadline-carrying entries) come from the ServingState instant
     * sets in O(log n) instead of per-segment container scans.
     */
    void decodeSteps(ServingState &st, Seconds bound);

    /**
     * All in-flight work drained but the queue is gated (retry
     * backoff or a shrunken KV pool): sleep to the next wake-up
     * (fault event or backoff expiry), or to @p bound if sooner.
     */
    void sleepUntilWake(ServingState &st, Seconds bound);

    double speedNow() const;
    Seconds advanceWork(Seconds base_dt, Watts maxn_power);
    /** The decode step-cost bucket of context @p ctx: rounded up to
     *  a multiple of 64 tokens, at least 64.  Every decode path prices
     *  a step by this one rule (the engine's step-cost memo is the
     *  cache), which keeps macro, exact and peeked steps bit-identical. */
    static Tokens stepBucket(Tokens ctx)
    {
        return std::max<Tokens>(64, (ctx + 63) / 64 * 64);
    }
    /** Retire in-flight @p id in full: prefix donation, served
     *  record, deadline unindex, KV release and slot release.  The
     *  caller removes it from its container. */
    void record(ServingState &st, ReqId id, RequestOutcome outcome);
    /** Retire a waiting (never re-admitted) request and free its
     *  slot; @p id must already be out of the queue. */
    void shedWaiting(ServingState &st, ReqId id,
                     RequestOutcome outcome = RequestOutcome::Shed);
    /** The shared tail of both: fill @p s's request fields,
     *  preemptions, trace index and finish, mark @p id Done, journal
     *  and keep @p s, then unindex and free the slot. */
    void retire(ServingState &st, ReqId id, ServedRequest s);
    void releaseKv(const ServingState &st, ReqId id);
    /** Reserve KV for input+eff_out tokens; with the prefix index on,
     *  first attaches the longest cached prefix of @p hashes (capped
     *  at input-1 so at least one prompt token is recomputed) and
     *  returns its length via @p cached. */
    bool reserveKv(Tokens input, Tokens eff_out,
                   const std::vector<std::uint64_t> &hashes, SeqId &seq,
                   Tokens &cached);
    /** Donate a retiring request's fully-prefilled prompt blocks to
     *  the prefix index (no-op unless the index is on). */
    void maybeInsertPrefix(ServingState &st, ReqId id);
    /** Mirror KvCache eviction counters into the accumulators. */
    void syncPrefixEvictions();
    bool preemptOne(ServingState &st);
    void applyEvent(const FaultEvent &e, ServingState &st);

    const InferenceEngine &engine_;
    const InferenceEngine *fallback_ = nullptr;
    const ServerConfig &config_;
    const FaultPlan &faults_;
    std::vector<ServedRequest> &served_;
    Journal *journal_ = nullptr;

    bool faulty_ = false;
    bool thermalOn_ = false;
    /** Gray-failure scale latched by runCycle (ArrivalSource::
     *  slowdownAt); 1.0 is the legacy path. */
    double speedScale_ = 1.0;
    double kvBudget_ = 0.0;
    double kvPerToken_ = 0.0;
    Watts idleW_ = 0.0;

    /** Paged KV pool + ballast sequence (active fault plans only; see
     *  the KV-shrink notes in engine/faults.hh). */
    std::unique_ptr<KvCache> paged_;
    SeqId ballast_ = 0;
    hw::ThermalSimulator thermal_;

    // --- Per-cycle degrade latch (runCycle) ------------------------
    bool degradedNow_ = false;
    const InferenceEngine *costEng_ = nullptr;

    // --- Clocks and accumulators (one checkpointable unit) ---------
    ExecAccumulators acc_;
    /** Wall time of the last decode step (not serialized: read only
     *  right after the step that set it). */
    Seconds lastStepDt_ = 0.0;

    /** Primary-engine prefill cost of rebuilding the prefix block at
     *  depth i given blocks [0, i) — the cost-eviction score, grown on
     *  demand by maybeInsertPrefix. */
    std::vector<Seconds> rebuildCost_;
};

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_EXECUTOR_HH
