/**
 * @file
 * Fleet driver: N independent single-node serving stacks behind a
 * resilient router.  The driver owns the fleet event loop — arrivals,
 * node crash/reboot and degrade windows, request timeouts with capped
 * exponential-backoff retry, hedged duplicates for near-deadline
 * requests, failover of in-flight legs when a node crash-faults, and
 * an optional priced cloud-offload tier — and produces one
 * FleetReport.
 *
 * Determinism.  All routing and bookkeeping happens on the driver
 * thread against a (time, kind, seq) min-heap whose order is a pure
 * function of the configuration; nodes advance on the same thread, in
 * ascending id order, and each node's arithmetic is a pure function of
 * its own submission sequence.  Reports are therefore bit-identical at
 * any --threads value.
 *
 * Synchronization is conservative and lazy: before processing a heap
 * event at time T, every node whose next router-visible change comes
 * before T is advanced to T (found through the next-stop index,
 * fleet/stop_index.hh; in stop-on-first-outcome rounds, so outcomes
 * that happen before T are interleaved into the heap in global time
 * order).  The other busy nodes stay where they are until the fleet
 * submits to one, cancels a leg on it or crashes it, which first
 * brings it to where advancing it to every event would have left it.
 * A node may overshoot T by at most one prefill chunk or decode step
 * (the serving cycle bounds its segments and sleeps by T), which is
 * itself deterministic; the
 * documented consequence is that work a crashed node simulated past
 * the crash instant is discarded by the fleet (failover wins) while
 * the node's own energy tallies keep it.
 *
 * Conservation invariant: every arrival terminates exactly once —
 * served, timed out, shed, or offloaded.  FleetAuditor checks it (and
 * the leg-liveness bookkeeping behind it) after every event in
 * paranoid mode and always at end of run.
 */

#ifndef EDGEREASON_FLEET_FLEET_HH
#define EDGEREASON_FLEET_FLEET_HH

#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "engine/server.hh"
#include "engine/trace_stream.hh"
#include "fleet/node.hh"
#include "fleet/node_faults.hh"
#include "fleet/router.hh"
#include "fleet/stop_index.hh"

namespace edgereason {
namespace fleet {

/** Terminal state of one fleet request. */
enum class FleetOutcome {
    Served,    //!< an edge leg completed in time
    TimedOut,  //!< deadline expired with retries exhausted
    Shed,      //!< no destination would accept it (rejected)
    Offloaded, //!< completed by the cloud tier
};

struct FleetConfig
{
    /** One spec per node; size() is the fleet size. */
    std::vector<NodeSpec> nodes;
    /** Per-node scheduler/executor limits (shared by all nodes). */
    engine::ServerConfig server;
    RouterPolicy router = RouterPolicy::RoundRobin;

    /** Derived per-node fault schedules (ignored when
     *  explicitSchedules is non-empty). */
    NodeFaultConfig nodeFaults;
    /** Test hook: exact per-node schedules (size must match nodes). */
    std::vector<NodeFaultSchedule> explicitSchedules;

    /** Retry budget per request beyond the first attempt. */
    int maxRetries = 3;
    /** Base re-dispatch delay; doubles per failed attempt. */
    Seconds retryBackoff = 0.25;
    Seconds retryBackoffCap = 8.0;
    /** Per-try time budget cap (<= 0: the remaining deadline). */
    Seconds requestTimeout = 0.0;

    /**
     * Hedging: when a dispatched request's remaining slack falls below
     * hedgeFraction x its relative deadline, launch a duplicate leg on
     * another node; the first completion wins and the loser is
     * cancelled.  0 disables hedging.
     */
    double hedgeFraction = 0.0;

    /** Consecutive failures (timeout/shed/crash) that trip a node's
     *  breaker, draining it from routing for healthCooldown. */
    int healthFailureThreshold = 3;
    Seconds healthCooldown = 30.0;

    /**
     * Quantile-adaptive health: each node streams its completion
     * latencies through a P² estimator of healthQuantile; a node whose
     * estimate exceeds healthLatencyMultiple × the fleet median (over
     * nodes with ≥ healthMinSamples completions, kept sorted as each
     * completion moves one estimate, so reading it is O(1)) is ejected
     * into the standard breaker cooldown.  This is the only machinery that
     * catches *gray* failures — nodes that are up, responsive, and
     * merely slow never trip the consecutive-failure breaker because
     * their legs keep completing.  Off by default: the zero-window
     * fleet goldens are bit-identical with it off.
     */
    bool adaptiveHealth = false;
    double healthQuantile = 0.95;
    double healthLatencyMultiple = 3.0;
    int healthMinSamples = 8;
    /**
     * Adaptive per-try timeout: cap each leg's time budget at
     * adaptiveTimeoutMultiple × the fleet-median latency quantile (the
     * same median the ejection check reads), so per-try deadlines
     * track observed behaviour instead of the static requestTimeout.
     * Tightens only (never loosens a static timeout or deadline
     * budget); no cap while no node has healthMinSamples
     * completions; 0 disables.  Requires adaptiveHealth.
     */
    double adaptiveTimeoutMultiple = 0.0;

    CloudTier cloud;

    /** Audit the fleet invariants after every event (tests/chaos). */
    bool paranoid = false;
    /** When non-empty, per-node incarnation journals land here. */
    std::string journalDir;
};

/** Per-node slice of the fleet report. */
struct NodeSummary
{
    int id = 0;
    std::size_t served = 0;    //!< completed legs
    std::size_t timedOut = 0;  //!< legs shed/aborted/timed out on-node
    std::size_t cancelled = 0; //!< legs withdrawn by the driver
    std::uint64_t crashes = 0;
    Joules energy = 0.0;
    Seconds busy = 0.0;
    double generatedTokens = 0.0;
    bool up = true; //!< node state at end of run
};

struct FleetReport
{
    RouterPolicy router = RouterPolicy::RoundRobin;
    std::size_t arrivals = 0;
    std::size_t served = 0;
    std::size_t timedOut = 0;
    std::size_t shed = 0;
    std::size_t offloaded = 0;

    std::size_t retries = 0;        //!< re-dispatches after failure
    std::size_t failovers = 0;      //!< legs re-homed off a crash
    std::size_t hedgesLaunched = 0;
    std::size_t hedgeWins = 0;      //!< hedge leg finished first
    std::size_t hedgeWaste = 0;     //!< hedge cancelled without a win
    std::size_t cancelledLegs = 0;  //!< total withdrawn edge legs

    /** Quantile-adaptive health (report line printed only when on,
     *  so legacy goldens are unchanged). */
    bool adaptiveHealth = false;
    std::size_t adaptiveEjections = 0; //!< latency-quantile breaker trips

    Seconds makespan = 0.0;       //!< first arrival -> last fold
    double throughput = 0.0;      //!< finished (served+offloaded)/s
    double goodput = 0.0;         //!< deadline-met served/s
    double deadlineHitRate = 0.0; //!< deadline-met / arrivals

    Seconds meanLatency = 0.0;
    Seconds p50Latency = 0.0;
    Seconds p99Latency = 0.0;
    Seconds p999Latency = 0.0;

    Joules totalEnergy = 0.0;
    Joules energyPerQuery = 0.0; //!< per finished request
    double generatedTokens = 0.0;
    Dollars edgeDollars = 0.0;  //!< energy + amortized hardware
    Dollars cloudDollars = 0.0; //!< offload API charges
    Dollars dollarsPerQuery = 0.0;

    /** Fleet events processed over the run (not printed — the bench
     *  throughput denominator, so goldens are untouched). */
    std::uint64_t events = 0;

    std::vector<NodeSummary> nodes;
};

/** Render @p r as the canonical fleet report block (goldens diff this
 *  string; all doubles printed with %.17g so it is bit-exact). */
std::string formatFleetReport(const FleetReport &r);

/**
 * Crash-safety controls for one fleet run (all off by default).  A
 * fleet checkpoint is one versioned, checksummed container
 * (engine/checkpoint.hh format, fleet payload) snapshotting the
 * driver — event heap, trace cursor, live tracks and their legs,
 * folded report aggregates, router cursor, breaker and
 * latency-quantile state, tallies — plus every node's serving stack
 * and undrained records, so a killed fleet process resumes and
 * finishes bit-identically to an uninterrupted run at any thread
 * count.
 */
struct FleetDurabilityOptions
{
    /** Directory for ckpt-<event>.bin files; empty disables
     *  checkpointing (and crash injection, which needs it). */
    std::string checkpointDir;
    /** Write a checkpoint every N processed fleet events (0 = only
     *  the initial event-0 checkpoint). */
    std::uint64_t checkpointEvery = 0;
    /** Resume from the latest valid checkpoint in checkpointDir. */
    bool resume = false;
    /** On resume, byte-compare each node's re-emitted journal records
     *  against its pre-crash journal tail. */
    bool verifyTail = true;
    /** Throw FleetSimulatedCrash just before processing this fleet
     *  event (-1 disables). */
    std::int64_t crashAtEvent = -1;
    /** Throw FleetSimulatedCrash once fleet time reaches this instant
     *  (< 0 disables). */
    Seconds crashAtTime = -1.0;
};

/**
 * Thrown by FleetSimulator::run when crash injection fires.  Distinct
 * from engine::SimulatedCrash: a fleet crash kills the whole driver
 * process (every node at once), not one node — per-node crashes are
 * NodeFaultConfig business.
 */
struct FleetSimulatedCrash : public std::runtime_error
{
    FleetSimulatedCrash(std::uint64_t event_, Seconds time_)
        : std::runtime_error("simulated fleet crash at event " +
                             std::to_string(event_)),
          event(event_), time(time_)
    {
    }
    std::uint64_t event; //!< fleet events processed before the crash
    Seconds time;        //!< fleet clock at the crash
};

class FleetSimulator
{
  public:
    explicit FleetSimulator(FleetConfig cfg);

    /**
     * Run @p trace to completion and return the fleet report, under
     * crash-safety controls @p dur: checkpoint every
     * @p dur.checkpointEvery events, resume from the latest
     * checkpoint, and/or crash-inject.  A resumed run must present
     * the same configuration and trace (enforced by the fleet
     * fingerprint in the checkpoint header).  The trace is fed
     * through runStream()'s body, so both share one track store.
     */
    FleetReport run(const std::vector<engine::ServerRequest> &trace,
                    const FleetDurabilityOptions &dur = {});

    /**
     * Run a streaming trace (DESIGN.md §15): requests are drawn from
     * @p src one at a time, terminal tracks are folded as they finish
     * into the report aggregates and released, and drained node
     * records are compacted away — so memory is O(in-flight
     * requests) plus one latency (8 bytes) per finished request,
     * which the exact percentiles need.  The report is bit-identical
     * to run() on the materialized trace.
     *
     * A source cannot be checkpointed: the checkpoint fingerprint
     * hashes the whole trace, which only run() holds.
     */
    FleetReport runStream(engine::TraceSource &src);

    /** @return node @p i (inspection). */
    const FleetNode &node(std::size_t i) const { return *nodes_.at(i); }
    /** @return distinct engines built, one per distinct NodeSpec. */
    std::size_t engineCount() const { return engines_.size(); }
    /** @return node advances so far: sync laggards plus the touches
     *  before a cancel or crash (a resumed run counts from its
     *  restore). */
    std::uint64_t nodeAdvances() const { return nodeAdvances_; }
    /** @return sync rounds that advanced at least one node. */
    std::uint64_t syncRounds() const { return syncRounds_; }
    /** @return routes the router scored over load classes, and the
     *  classes they examined (Router::classRoutes/classVisits). */
    std::uint64_t classRoutes() const { return router_->classRoutes(); }
    std::uint64_t classVisits() const { return router_->classVisits(); }

  private:
    struct Leg
    {
        int node = -2; //!< node id; -2 = cloud leg
        std::int64_t local = -1;
        bool live = false;
    };

    /** One in-flight request.  A track lives in a recycled slot from
     *  its arrival until it reaches a terminal outcome, when it is
     *  folded into the report aggregates and its slot freed. */
    struct Track
    {
        engine::ServerRequest req;
        std::int64_t gid = -1;
        Seconds absDeadline = 0.0; //!< +inf when no deadline
        Leg legs[2];               //!< primary + hedge slot
        int hedgeSlot = -1;        //!< slot index of the hedge leg
        int attempts = 0;          //!< dispatches so far
        int pendingTimers = 0;     //!< scheduled retry timers
        bool hedgeScheduled = false;
    };

    struct Event
    {
        Seconds time = 0.0;
        int kind = 0; //!< EventKind rank (heap tie-break)
        std::uint64_t seq = 0;
        std::int64_t gid = -1;   //!< request events
        int node = -1;           //!< node events / outcome node
        Seconds aux = 0.0;       //!< reboot delay / window end

        // KOutcome payload, copied from the served record at drain
        // time: no handler reads a record after its drain, so nodes
        // release drained records.
        std::int64_t local = -1;   //!< node-local trace index
        Seconds latency = 0.0;     //!< queueDelay + serviceTime
        std::uint8_t legOutcome = 0; //!< engine::RequestOutcome

        bool operator>(const Event &o) const
        {
            if (time != o.time)
                return time > o.time;
            if (kind != o.kind)
                return kind > o.kind;
            return seq > o.seq;
        }
    };

    enum EventKind {
        KOutcome = 0,
        KCloudDone = 1,
        KCrash = 2,
        KReboot = 3,
        KDegradeStart = 4,
        KDegradeEnd = 5,
        KHedgeTimer = 6,
        KRetryTimer = 7,
        KArrival = 8,
    };

    void push(Seconds t, int kind, std::int64_t gid, int node,
              Seconds aux = 0.0);
    /** Advance, in stop-on-first-outcome rounds, every node whose
     *  key precedes @p target. */
    void syncNodesTo(Seconds target);
    /** Record a sync target (syncedSince's input). */
    void noteSyncTarget(Seconds target);
    /** @return the latest target among syncs number @p seq on (-inf
     *  when none ran). */
    Seconds syncedSince(std::uint64_t seq) const;
    /** Bring busy node @p i to where the syncs of its busy period left
     *  it, before the fleet submits to it, cancels a leg on it or
     *  crashes it; fatal if that changes anything visible. */
    void touchNode(std::size_t i);
    void drainNode(std::size_t i);
    /** Brute-force minimum key over all nodes: the paranoid auditor's
     *  reference for stopIndex_.minKey(). */
    Seconds nextNodeStopBrute() const;
    /** Re-key node @p i in the stop index and re-file it in the
     *  router's load classes after any state change. */
    void refreshNode(std::size_t i);
    /** Refresh the reusable router view buffer for dispatch at
     *  @p now (allocation-free; cached across a health-state-stable
     *  window). */
    void refreshViews(Seconds now);

    void dispatch(Track &t, Seconds now, int exclude, bool is_hedge);
    void scheduleRetry(Track &t, Seconds now, int failed_node);
    /** Fold @p t's terminal outcome into the report aggregates and
     *  free its slot (the reference stays valid until the next
     *  arrival reuses the slot). */
    void finishTrack(Track &t, FleetOutcome o, Seconds finish);
    void cancelLeg(Track &t, int slot);
    void noteFailure(int node, Seconds now);
    void noteSuccess(int node);
    void noteLatency(int node, Seconds latency, Seconds now);
    /** Median of medianSet_ (0 while it is empty); O(1). */
    double fleetMedianQuantile() const;
    /** Copy-and-sort of the eligible nodes' quantiles: the restore
     *  rebuild of medianSet_ and the paranoid auditor's reference. */
    std::vector<double> medianSetBrute() const;
    bool draining(int node, Seconds now) const;

    std::uint64_t
    fleetFingerprint(const std::vector<engine::ServerRequest> &trace)
        const;
    void writeCheckpoint(const FleetDurabilityOptions &dur,
                         std::uint64_t fingerprint);
    /** Checkpoint field list of the whole fleet state; a read checks
     *  every count, slot and mark, then rebuilds the derived indexes
     *  (the nodes' journals stay closed: see FleetNode::io). */
    template <class Ar>
    void io(Ar &a);

    void onOutcome(const Event &e);
    void onCloudDone(const Event &e);
    void onCrash(const Event &e);
    void onReboot(const Event &e);
    void onHedgeTimer(const Event &e);
    void onRetryTimer(const Event &e);
    void onArrival(const Event &e);

    /** Bind the run's request source (single-shot). */
    void attachSource(engine::TraceSource &src);
    /** Open journals, push every node's fault schedule and draw the
     *  first arrival (fresh runs). */
    void startFresh();
    /** Draw the next request from src_ and schedule its arrival. */
    void issueArrival();
    /** The event loop behind run() and runStream(). */
    void eventLoop(const FleetDurabilityOptions &dur, bool durable,
                   std::uint64_t fp, bool resumed,
                   std::uint64_t restored_event);
    /** Check conservation and build the report from the folded
     *  aggregates; sorts foldLat_ in place (a run is single-shot). */
    FleetReport finishRun();

    // Track addressing: live tracks sit in recycled slots of tracks_,
    // found through slotOf_; a folded track's gid resolves to nothing.
    Track *findTrack(std::int64_t gid);
    Track &trackAt(std::int64_t gid);
    Track &allocTrack(std::int64_t gid);

    void audit(Seconds now) const;
    void auditTrack(const Track &t, std::size_t &edge_legs) const;
    void auditStopIndex() const;
    /** Cross-check the router's load classes against a from-scratch
     *  grouping of viewsBuf_. */
    void auditRouteClasses() const;
    void auditMedianSet() const;

    FleetConfig cfg_;
    /** One engine per distinct NodeSpec, shared by every node of that
     *  spec.  Declared before nodes_ so the engines outlive the nodes;
     *  owned per simulator, so independent fleets share nothing. */
    std::vector<std::unique_ptr<const engine::InferenceEngine>> engines_;
    std::vector<std::unique_ptr<FleetNode>> nodes_;
    std::vector<NodeFaultSchedule> schedules_;
    std::unique_ptr<Router> router_;

    std::vector<Event> heap_; //!< min-heap via std::*_heap
    std::uint64_t seq_ = 0;
    Seconds now_ = 0.0;
    /** Fleet events processed so far: the checkpoint cadence unit and
     *  the crash-injection coordinate. */
    std::uint64_t eventCount_ = 0;
    /** Event count of the last checkpoint written (sentinel: none). */
    std::uint64_t lastCkptEvent_ = ~0ull;

    /** Next-stop-time index: one key per node — its next visible
     *  change while up and busy, +inf otherwise.  Drives node sync.
     *  Derived state; rebuilt on restore, cross-checked against
     *  from-scratch peeks by the paranoid auditor. */
    NodeStopIndex stopIndex_;
    /** Sync targets reduced to their suffix maxima: seq ascending,
     *  target strictly descending, so the latest target among syncs
     *  seq..now is the first mark at or after seq.  A node busy through
     *  a sync stands at that sync's target even when it was not due,
     *  and an outcome a sync raises can precede its target, so targets
     *  are not monotone. */
    struct SyncMark
    {
        std::uint64_t seq;
        Seconds target;
    };
    std::vector<SyncMark> syncMax_;
    std::uint64_t syncSeq_ = 0; //!< syncs so far
    /** Per node: the first sync of its current busy period. */
    std::vector<std::uint64_t> busySince_;
    /** advanceUntil calls (sync laggards plus touches) and sync rounds
     *  that advanced at least one node; telemetry, not serialized. */
    std::uint64_t nodeAdvances_ = 0;
    std::uint64_t syncRounds_ = 0;
    /** Reused lag buffer for syncNodesTo. */
    std::vector<int> lagBuf_;
    /** Reused router view buffer, valid for `now` in
     *  [viewsBuiltAt_, viewsValidUntil_) while no up/degrade/cooldown
     *  state changed (viewsDirty_). */
    std::vector<NodeView> viewsBuf_;
    bool viewsDirty_ = true;
    Seconds viewsBuiltAt_ = 0.0;
    Seconds viewsValidUntil_ = 0.0;
    /** Bumped on every views rebuild; lets the router keep its
     *  load-class index for the lifetime of one views window. */
    std::uint64_t viewsGen_ = 0;

    // Request source and track store.
    engine::TraceSource *src_ = nullptr;
    std::size_t streamTotal_ = 0;
    std::size_t streamIssued_ = 0; //!< arrivals drawn from src_
    /** The one outstanding KArrival event's request (at most one
     *  arrival is ever in the heap). */
    engine::ServerRequest streamPending_;
    /** Track slots; each is either live (in slotOf_) or free. */
    std::vector<Track> tracks_;
    std::unordered_map<std::int64_t, std::size_t> slotOf_;
    std::vector<std::size_t> freeSlots_;
    // Folded terminal-track aggregates (finishRun's report inputs),
    // updated as tracks finish.
    std::size_t foldServed_ = 0, foldTimedOut_ = 0, foldShed_ = 0,
                foldOffloaded_ = 0, foldDeadlineMet_ = 0;
    Seconds foldMakespan_ = 0.0;
    Seconds firstArrival_ = 0.0; //!< of the first request popped
    /** Latencies of finished requests in completion order,
     *  summarized by summarizeRun at report time. */
    std::vector<double> foldLat_;

    /** Per-node sets of live gids: the authority for leg liveness
     *  (stale outcome events are dropped against these). */
    std::vector<std::set<std::int64_t>> liveOnNode_;
    /** Per-node drain cursor: absolute index of the first record
     *  not yet turned into an outcome event. */
    std::vector<std::size_t> drained_;

    // Health breaker state.
    std::vector<int> consecFailures_;
    std::vector<Seconds> cooldownUntil_;
    // Degrade windows currently in force (count handles overlap from
    // explicit test schedules).
    std::vector<int> degradeDepth_;
    /** Streaming completion-latency quantile per node (adaptive
     *  health; serialized with the checkpoint). */
    std::vector<P2Quantile> latQ_;
    /** latQ_ values of the nodes with ≥ healthMinSamples completions,
     *  sorted ascending: the fleet median's input, kept in order as
     *  each completion moves one value.  Derived state; rebuilt on
     *  restore, cross-checked by the paranoid auditor. */
    std::vector<double> medianSet_;

    // Tallies.
    std::size_t retries_ = 0;
    std::size_t failovers_ = 0;
    std::size_t hedgesLaunched_ = 0;
    std::size_t hedgeWins_ = 0;
    std::size_t hedgeWaste_ = 0;
    std::size_t cancelledLegs_ = 0;
    std::size_t adaptiveEjections_ = 0;
    Dollars cloudDollars_ = 0.0;
};

} // namespace fleet
} // namespace edgereason

#endif // EDGEREASON_FLEET_FLEET_HH
