/**
 * @file
 * One fleet node: a complete single-node serving stack (scheduler ->
 * BatchExecutor -> InferenceEngine) wrapped behind a submit/advance
 * interface the fleet driver can compose.  Where ServingSimulator::run
 * pumps a fixed trace to completion, a FleetNode receives requests
 * incrementally from the router (arrival = dispatch time) and advances
 * its simulation on demand, up to a target instant, so the driver can
 * keep N nodes conservatively synchronized.
 *
 * The node's execution is a pure function of its submission sequence:
 * every request is identified by a node-local trace index (a monotone
 * submit counter) mapped to the fleet-global id, and the node runs the
 * single-node serving cycle (engine::BatchExecutor::runCycle) as the
 * arrival source of its own dispatched legs, so per-node arithmetic
 * is bit-identical however the driver chunks its advanceUntil() calls
 * and whatever thread advances it.
 *
 * Crash/reboot: crash() discards the executor, scheduling state, and
 * pending arrivals (the fleet driver fails the lost requests over);
 * lifetime accumulator totals are snapshotted first so energy spent by
 * dead incarnations still counts.  reboot() starts a fresh incarnation
 * — cold clock, cold thermal state — over the same engine and the
 * same served-record sink, so node tallies span incarnations.
 *
 * The engine is only read (its noiseless const query surface is a pure
 * function of the NodeSpec), so a fleet hands every node of one spec
 * the same engine and its step-cost memo warms once, not once per
 * node.
 */

#ifndef EDGEREASON_FLEET_NODE_HH
#define EDGEREASON_FLEET_NODE_HH

#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/executor.hh"
#include "engine/journal.hh"
#include "engine/server.hh"
#include "fleet/node_faults.hh"
#include "hw/gpu_spec.hh"
#include "model/model_id.hh"

namespace edgereason {
namespace fleet {

/** Identity and knobs of one node (heterogeneous fleets vary all
 *  three: model, quantization, power mode). */
struct NodeSpec
{
    model::ModelId model = model::ModelId::Dsr1Qwen1_5B;
    bool quantized = false;
    hw::PowerMode powerMode = hw::PowerMode::MaxN;

    bool operator==(const NodeSpec &) const = default;
};

/** @return a fresh engine for @p spec (the node's cost model). */
std::unique_ptr<engine::InferenceEngine>
makeNodeEngine(const NodeSpec &spec);

/** Lifetime totals of one node across all incarnations. */
struct NodeTotals
{
    Joules energy = 0.0;
    Seconds busy = 0.0;
    double generatedTokens = 0.0;
    std::uint64_t crashes = 0;
};

class FleetNode : private engine::ArrivalSource
{
  public:
    /**
     * Build the node's first executor incarnation over a borrowed
     * engine.
     *
     * @param id  fleet node index (display / tie-breaking)
     * @param spec  model, quantization level, and power mode
     * @param engine  cost model built for @p spec (makeNodeEngine);
     *   may be shared with other nodes of the same spec and must
     *   outlive the node
     * @param config  scheduler limits (spjf is not supported: nodes
     *   carry no fitted latency model)
     * @param behavioural  node-scoped behavioural fault plan
     * @param journal_dir  when non-empty, each incarnation writes a
     *   WAL to <dir>/node-<id>-inc<k>.bin — replayable with
     *   `edgereason replay`, and tail-verified on fleet resume
     */
    FleetNode(int id, const NodeSpec &spec,
              const engine::InferenceEngine &engine,
              const engine::ServerConfig &config,
              engine::FaultPlan behavioural,
              std::string journal_dir = {});

    /** Standalone node: builds a private engine for @p spec, then as
     *  above. */
    FleetNode(int id, const NodeSpec &spec,
              const engine::ServerConfig &config,
              engine::FaultPlan behavioural,
              std::string journal_dir = {});

    /**
     * Open the first incarnation's journal (no-op without a journal
     * directory).  Called by the fleet driver on a *fresh* run only —
     * a resuming driver instead reopens the pre-crash journal via
     * resumeJournal(), and opening it here first would truncate it.
     */
    void beginJournal();

    /**
     * Install the node's gray-failure schedule: inside a window every
     * unit of device work costs multiplier× its nominal time.  The
     * scale is latched once per scheduling cycle from the executor
     * clock (derived state: recomputed, never serialized), and every
     * macro segment and gated sleep stops at the next window edge, so
     * a new scale takes effect at the step that crosses the edge —
     * the step exact mode switches at.  Must be called before the
     * first advanceUntil.
     */
    void setSlowdowns(std::vector<SlowdownWindow> windows)
    {
        slowdowns_ = std::move(windows);
    }

    int id() const { return id_; }
    const NodeSpec &spec() const { return spec_; }
    /** @return the (possibly shared) engine the node costs steps on. */
    const engine::InferenceEngine &engine() const { return engine_; }
    bool up() const { return up_; }
    /** @return the node's simulated clock (0 while down). */
    Seconds clock() const { return exec_ ? exec_->clock() : 0.0; }
    /** @return true if the node has any work (pending, queued, or in
     *  flight); a down node is never busy. */
    bool busy() const
    {
        return up_ && (!pending_.empty() || !st_.queue.empty() ||
                       st_.hasInFlight());
    }
    /** @return dispatched-but-unqueued plus queued request count. */
    std::size_t backlog() const
    {
        return pending_.size() + st_.queue.size();
    }
    int inFlight() const { return st_.inFlight(); }
    /** @return true while the node's thermal governor is derated. */
    bool throttled() const { return exec_ && exec_->throttled(); }

    /**
     * Dispatch one request leg to this node.  @p req.arrival must be
     * the fleet dispatch time (>= every earlier submission); the
     * deadline field carries the remaining time budget the node may
     * spend (the node's own deadline machinery then sheds, aborts, or
     * times the leg out, which is how fleet-level per-try timeouts
     * work).  @return the node-local trace index of the leg.
     */
    std::int64_t submit(const engine::ServerRequest &req,
                        std::int64_t gid);

    /**
     * Run serving cycles (engine::BatchExecutor::runCycle, with
     * @p target as the cycle bound) until the clock reaches
     * @p target, the node runs out of work, a cycle ends at the
     * target with its queue gated, or (with @p stop_on_outcome) at
     * least one new served record was produced.  The clock may
     * overshoot @p target by up to one cycle (a prefill chunk or a
     * decode step is never split); the overshoot is deterministic.
     *
     * @p key is the node's lazy-sync key (nextVisibleChange() as of
     * its last state change): a change of visible() that happens
     * more than kTimeSlack before it is fatal, since the fleet would
     * have shown it to a router late.  The cycle dates its changes
     * through changedSince().
     */
    void advanceUntil(Seconds target, bool stop_on_outcome,
                      Seconds key =
                          -std::numeric_limits<Seconds>::infinity());

    /** Everything the fleet driver and the routers read of a node
     *  between advances. */
    struct Visible
    {
        std::size_t backlog = 0;
        int inFlight = 0;
        std::size_t records = 0; //!< servedEnd()
        bool operator==(const Visible &) const = default;
    };
    Visible visible() const
    {
        return {backlog(), inFlight(), servedEnd()};
    }

    /**
     * The node's lazy-sync key (DESIGN.md §15): a lower bound, exact
     * in the common case, on the instant the node next changes
     * visible() — the clock at the start of the cycle, or of the
     * decode step, that changes it — when advanced with no further
     * submissions, cancels or crashes.  +inf when the node is down or
     * idle; otherwise engine::BatchExecutor::peekCycle.  A pure
     * function of the node's state; commits nothing.
     */
    Seconds nextVisibleChange() const;

    /**
     * Cancel the live leg with node-local index @p local (hedge loser
     * or failover duplicate).  Pending legs vanish without a record;
     * queued and in-flight legs retire as RequestOutcome::Cancelled at
     * the node's current clock.  @return false when the leg already
     * retired (its outcome record is in flight to the driver).
     */
    bool cancel(std::int64_t local);

    /** Kill the node: snapshot lifetime totals, then discard the
     *  executor, scheduling state, and pending arrivals.  The caller
     *  owns failing over the lost requests. */
    void crash();

    /** Start a fresh incarnation (cold clock and thermal state). */
    void reboot();

    /** Absolute count of per-leg records produced over the node's
     *  lifetime, across all incarnations.  compactServed releases a
     *  prefix, so the driver's drain cursor addresses records by
     *  absolute index: resident records are
     *  [compacted prefix, servedEnd()). */
    std::size_t servedEnd() const
    {
        return servedBase_ + served_.size();
    }

    /** @return the record at absolute index @p abs (>= the compacted
     *  prefix). */
    const engine::ServedRequest &servedAt(std::size_t abs) const;

    /** Per-outcome record tallies across the node's lifetime,
     *  including records already released by compactServed (report
     *  building must not depend on the resident window). */
    struct OutcomeCounts
    {
        std::size_t served = 0;
        std::size_t timedOut = 0;
        std::size_t cancelled = 0;
    };
    OutcomeCounts outcomeCounts() const;

    /** Release every record below absolute index @p upto_abs,
     *  folding its outcome into the lifetime tallies first.  The
     *  driver calls this after each drain, keeping resident records
     *  O(in-flight) for arbitrarily long traces. */
    void compactServed(std::size_t upto_abs);

    /** @return the fleet-global id of node-local leg @p local and
     *  erase the mapping: each record is drained exactly once, so
     *  the map holds only legs whose record is not yet drained.
     *  Panics on unknown locals. */
    std::int64_t consumeLocal(std::int64_t local);

    /** Erase @p local's mapping without a lookup (cancelled legs,
     *  whose gid the driver already resolved). */
    void dropLocal(std::int64_t local);

    /** @return lifetime totals (dead incarnations + the live one). */
    NodeTotals totals() const;

    /**
     * Optimistic service-time estimate for @p r at the current batch
     * level, from the engine's noiseless query surface (deadline- and
     * cost-aware routing).
     */
    Seconds estimateServiceTime(const engine::ServerRequest &r) const
    {
        return estimateServiceTime(engine_, inFlight(), r);
    }

    /** The same estimate for any node on @p engine with @p in_flight
     *  legs running: a pure function of its three arguments, which
     *  is what lets the router score a whole load class at once. */
    static Seconds
    estimateServiceTime(const engine::InferenceEngine &engine,
                        int in_flight, const engine::ServerRequest &r);

    /**
     * Fleet checkpoint field list of the node's complete mutable state:
     * liveness, incarnation, submission bookkeeping (the local->gid
     * map in local order), pending arrivals, lifetime totals, the
     * compaction base and released tallies, resident records, and —
     * for a live node — the full serving stack (scheduler identity,
     * scheduling state, executor incl. thermal and KV state).  Reading
     * targets a freshly constructed node and leaves its journal
     * closed: resumeJournal() reopens it once the whole checkpoint has
     * been read and checked.
     */
    template <class Ar>
    void io(Ar &a);

    /**
     * After a restore: when a journal directory is configured and the
     * node is up, reopen the current incarnation's journal with
     * Journal::resumeAt at the fleet checkpoint mark @p event_mark —
     * the pre-crash tail is truncated and (with @p verify_tail)
     * byte-compared against the resumed run's re-emitted records.
     */
    void resumeJournal(std::uint64_t event_mark, bool verify_tail);

    /** Emit a CheckpointMark record covering fleet event
     *  @p event into this incarnation's journal (no-op when
     *  journaling is off or the node is down). */
    void journalCheckpointMark(std::uint64_t event);

  private:
    /** Standalone-constructor target: borrows *@p own, then keeps it. */
    FleetNode(int id, const NodeSpec &spec,
              std::unique_ptr<engine::InferenceEngine> own,
              const engine::ServerConfig &config,
              engine::FaultPlan behavioural, std::string journal_dir);

    struct Pending
    {
        engine::ServerRequest req;
        std::int64_t local = -1;
    };

    // --- The serving cycle's arrival source (engine::runCycle) -----
    /** @return the next dispatched leg's arrival (+inf if none). */
    Seconds nextArrival() const override;
    engine::TrackedRequest popArrival() override;
    /** The slowdown window in force at @p t and its next edge (the
     *  same `<` tests both ways); false on a zero-window node. */
    bool slowdownAt(Seconds t, double &scale,
                    Seconds &edge) const override;
    /** Laziness guard: fatal when visible() changed since the last
     *  snapshot more than kTimeSlack before the lazy-sync key. */
    void changedSince(Seconds at) override;

    void openJournal();
    std::string journalPath() const;
    std::uint64_t journalFingerprint() const;

    int id_;
    NodeSpec spec_;
    engine::ServerConfig cfg_;
    engine::FaultPlan faults_;
    std::string journalDir_;
    /** Set only on standalone nodes; engine_ then refers to it. */
    std::unique_ptr<engine::InferenceEngine> ownEngine_;
    const engine::InferenceEngine &engine_;
    std::unique_ptr<engine::Scheduler> scheduler_;
    std::vector<engine::ServedRequest> served_;
    engine::ServingState st_;
    std::unique_ptr<engine::BatchExecutor> exec_;
    engine::Journal journal_;

    std::deque<Pending> pending_;
    std::vector<SlowdownWindow> slowdowns_;
    /** The key and visible() snapshot the laziness guard checks
     *  against (set by advanceUntil, per call and per cycle). */
    Seconds lazyKey_ = -std::numeric_limits<Seconds>::infinity();
    Visible lazySeen_;
    std::int64_t submitted_ = 0;
    bool up_ = true;
    std::uint64_t incarnation_ = 0;

    // Compaction state: absolute index of served_[0] plus the outcome
    // tallies of released records.
    std::size_t servedBase_ = 0;
    OutcomeCounts releasedCounts_;
    /** local -> gid of every leg whose record is not yet drained. */
    std::unordered_map<std::int64_t, std::int64_t> gidOfLocal_;

    // Accumulator totals of dead incarnations (crash() snapshots).
    NodeTotals life_;
};

} // namespace fleet
} // namespace edgereason

#endif // EDGEREASON_FLEET_NODE_HH
