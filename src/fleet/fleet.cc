#include "fleet/fleet.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"
#include "cost/cost_model.hh"
#include "engine/checkpoint.hh"

namespace edgereason {
namespace fleet {

using engine::kDeadlineSlack;
using engine::kTimeSlack;

namespace {

constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();

/**
 * Forward-progress quantum for the heap-empty drain: when no fleet
 * event is scheduled but nodes still hold work, the laggard is
 * advanced by at most this much per round so gated queues reach their
 * shed deadlines in bounded, deterministic steps.
 */
constexpr Seconds kDrainQuantum = 1.0;

std::string
g17(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** run()'s in-memory trace as a request source; seek() moves the
 *  cursor to a restored checkpoint's draw count. */
class VectorTraceSource final : public engine::TraceSource
{
  public:
    explicit VectorTraceSource(
        const std::vector<engine::ServerRequest> &trace)
        : reqs_(trace)
    {
    }
    std::size_t totalRequests() const override { return reqs_.size(); }
    engine::ServerRequest next() override
    {
        panic_if(next_ >= reqs_.size(), "fleet trace exhausted");
        return reqs_[next_++];
    }
    void seek(std::size_t i) { next_ = i; }

  private:
    const std::vector<engine::ServerRequest> &reqs_;
    std::size_t next_ = 0;
};

} // namespace

FleetSimulator::FleetSimulator(FleetConfig cfg) : cfg_(std::move(cfg))
{
    fatal_if(cfg_.nodes.empty(), "fleet needs at least one node");
    fatal_if(cfg_.maxRetries < 0, "maxRetries must be non-negative");
    fatal_if(cfg_.retryBackoff <= 0.0 && cfg_.maxRetries > 0,
             "retry backoff must be positive");
    fatal_if(cfg_.hedgeFraction < 0.0 || cfg_.hedgeFraction > 1.0,
             "hedge fraction must be in [0, 1]");
    fatal_if(cfg_.healthFailureThreshold < 1,
             "health failure threshold must be at least 1");
    fatal_if(cfg_.adaptiveHealth &&
                 (cfg_.healthQuantile <= 0.0 ||
                  cfg_.healthQuantile >= 1.0),
             "health quantile must be in (0, 1)");
    fatal_if(cfg_.adaptiveHealth && cfg_.healthLatencyMultiple <= 1.0,
             "health latency multiple must exceed 1");
    fatal_if(cfg_.adaptiveHealth && cfg_.healthMinSamples < 1,
             "health min samples must be at least 1");
    fatal_if(cfg_.adaptiveTimeoutMultiple < 0.0,
             "adaptive timeout multiple must be non-negative");
    fatal_if(cfg_.adaptiveTimeoutMultiple > 0.0 && !cfg_.adaptiveHealth,
             "adaptive per-try timeouts need adaptiveHealth");
    fatal_if(!cfg_.explicitSchedules.empty() &&
                 cfg_.explicitSchedules.size() != cfg_.nodes.size(),
             "explicit fault schedules must match the node count");

    schedules_ = cfg_.explicitSchedules.empty()
        ? deriveNodeFaultPlans(cfg_.nodeFaults, cfg_.nodes.size())
        : cfg_.explicitSchedules;

    // Step costs are a pure function of the spec, so nodes of one
    // spec share an engine (and its warm step-cost memo).  Distinct
    // specs are few, so a linear search finds a node's engine.
    std::vector<std::size_t> first_of_engine;
    nodes_.reserve(cfg_.nodes.size());
    for (std::size_t i = 0; i < cfg_.nodes.size(); ++i) {
        const NodeSpec &spec = cfg_.nodes[i];
        std::size_t e = 0;
        while (e < engines_.size() &&
               cfg_.nodes[first_of_engine[e]] != spec)
            ++e;
        if (e == engines_.size()) {
            engines_.push_back(makeNodeEngine(spec));
            first_of_engine.push_back(i);
        }
        nodes_.push_back(std::make_unique<FleetNode>(
            static_cast<int>(i), spec, *engines_[e], cfg_.server,
            schedules_[i].behavioural, cfg_.journalDir));
        nodes_.back()->setSlowdowns(schedules_[i].slowdowns);
    }
    router_ = makeRouter(cfg_.router);

    liveOnNode_.resize(nodes_.size());
    drained_.assign(nodes_.size(), 0);
    consecFailures_.assign(nodes_.size(), 0);
    cooldownUntil_.assign(nodes_.size(), 0.0);
    degradeDepth_.assign(nodes_.size(), 0);
    latQ_.assign(nodes_.size(),
                 P2Quantile(cfg_.adaptiveHealth ? cfg_.healthQuantile
                                                : 0.95));
    medianSet_.reserve(nodes_.size());
    stopIndex_.reset(nodes_.size());
    busySince_.assign(nodes_.size(), 0);
    lagBuf_.reserve(nodes_.size());
    viewsBuf_.resize(nodes_.size());
}

void
FleetSimulator::push(Seconds t, int kind, std::int64_t gid, int node,
                     Seconds aux)
{
    heap_.push_back({t, kind, seq_++, gid, node, aux});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void
FleetSimulator::drainNode(std::size_t i)
{
    FleetNode &node = *nodes_[i];
    const std::size_t end = node.servedEnd();
    for (; drained_[i] < end; ++drained_[i]) {
        const auto &rec = node.servedAt(drained_[i]);
        // Cancelled records are the echo of a driver-side
        // withdrawal, already fully accounted for.
        if (rec.outcome == engine::RequestOutcome::Cancelled) {
            node.dropLocal(rec.traceIndex);
            continue;
        }
        Event e;
        e.time = rec.finish;
        e.kind = KOutcome;
        e.seq = seq_++;
        e.gid = node.consumeLocal(rec.traceIndex);
        e.node = static_cast<int>(i);
        // The record's driver-visible fields travel in the event, so
        // no handler reads the record again and it is released below.
        e.local = rec.traceIndex;
        e.latency = rec.latency();
        e.legOutcome = static_cast<std::uint8_t>(rec.outcome);
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    node.compactServed(drained_[i]);
}

void
FleetSimulator::syncNodesTo(Seconds target)
{
    noteSyncTarget(target);
    while (true) {
        lagBuf_.clear();
        // Index invariant: each up, busy node is keyed on its next
        // visible change (+inf otherwise), so this returns exactly the
        // nodes that change something a router or the driver reads
        // before the target, in ascending id order.
        stopIndex_.collectLagging(target, kTimeSlack, lagBuf_);
        if (lagBuf_.empty())
            break;
        ++syncRounds_;
        nodeAdvances_ += lagBuf_.size();
        // Serial on the driver thread: a round advances each laggard by
        // about a microsecond of work, far less than a pool fork/join.
        for (const int i : lagBuf_)
            nodes_[static_cast<std::size_t>(i)]->advanceUntil(
                target, true, stopIndex_.key(static_cast<std::size_t>(i)));
        // Only advanced nodes can hold new records: every earlier round
        // drained its own laggards, and the only records produced
        // outside advanceUntil are cancel echoes, which drainNode skips
        // whenever it does reach them.
        for (const int i : lagBuf_) {
            refreshNode(static_cast<std::size_t>(i));
            drainNode(static_cast<std::size_t>(i));
        }
    }
}

void
FleetSimulator::noteSyncTarget(Seconds target)
{
    while (!syncMax_.empty() && syncMax_.back().target <= target)
        syncMax_.pop_back();
    syncMax_.push_back({syncSeq_++, target});
}

Seconds
FleetSimulator::syncedSince(std::uint64_t seq) const
{
    const auto it = std::lower_bound(
        syncMax_.begin(), syncMax_.end(), seq,
        [](const SyncMark &m, std::uint64_t s) { return m.seq < s; });
    return it == syncMax_.end() ? -kInf : it->target;
}

void
FleetSimulator::touchNode(std::size_t i)
{
    // The fleet is about to act on the node.  Every sync since the
    // node last went busy would have carried it to that sync's target
    // had it been due, so that is where the node stands; its key lies
    // past each of those targets, so nothing visible may change on the
    // way.
    FleetNode &n = *nodes_[i];
    if (!n.busy())
        return;
    const Seconds to = syncedSince(busySince_[i]);
    if (!(n.clock() + kTimeSlack < to))
        return;
    const FleetNode::Visible seen = n.visible();
    ++nodeAdvances_;
    n.advanceUntil(to, false, stopIndex_.key(i));
    fatal_if(n.visible() != seen, "fleet node ", i,
             " changed visible state while touched to ", to,
             " (lazy-sync key ", stopIndex_.key(i), ")");
    refreshNode(i);
}

Seconds
FleetSimulator::nextNodeStopBrute() const
{
    Seconds lo = kInf;
    for (const auto &n : nodes_)
        lo = std::min(lo, n->nextVisibleChange());
    return lo;
}

void
FleetSimulator::refreshNode(std::size_t i)
{
    stopIndex_.update(i, nodes_[i]->nextVisibleChange());
    router_->loadChanged(static_cast<int>(i));
}

void
FleetSimulator::refreshViews(Seconds now)
{
    // The up/draining flags are a pure function of (crash, degrade,
    // breaker state, now); between state changes they can only flip
    // when `now` crosses the earliest pending cooldown expiry.  The
    // buffer is therefore reused across every dispatch inside that
    // window — the health/breaker half of a routing decision is
    // computed once per admission window, not once per request.  The
    // backlog-dependent policy inputs are read live through the node
    // pointers, so every decision sees current values.
    if (!viewsDirty_ && now >= viewsBuiltAt_ && now < viewsValidUntil_)
        return;
    Seconds until = kInf;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        viewsBuf_[i] = {nodes_[i].get(), nodes_[i]->up(),
                        draining(static_cast<int>(i), now)};
        if (cooldownUntil_[i] > now)
            until = std::min(until, cooldownUntil_[i]);
    }
    viewsDirty_ = false;
    viewsBuiltAt_ = now;
    viewsValidUntil_ = until;
    ++viewsGen_;
}

void
FleetSimulator::noteFailure(int node, Seconds now)
{
    if (++consecFailures_[static_cast<std::size_t>(node)] >=
        cfg_.healthFailureThreshold) {
        cooldownUntil_[static_cast<std::size_t>(node)] =
            now + cfg_.healthCooldown;
        consecFailures_[static_cast<std::size_t>(node)] = 0;
        viewsDirty_ = true;
    }
}

void
FleetSimulator::noteSuccess(int node)
{
    consecFailures_[static_cast<std::size_t>(node)] = 0;
}

double
FleetSimulator::fleetMedianQuantile() const
{
    return medianSet_.empty() ? 0.0 : sortedPercentile(medianSet_, 50.0);
}

std::vector<double>
FleetSimulator::medianSetBrute() const
{
    std::vector<double> vals;
    if (!cfg_.adaptiveHealth)
        return vals;
    for (const P2Quantile &q : latQ_)
        if (q.count() >=
            static_cast<std::size_t>(cfg_.healthMinSamples))
            vals.push_back(q.value());
    std::sort(vals.begin(), vals.end());
    return vals;
}

void
FleetSimulator::noteLatency(int node, Seconds latency, Seconds now)
{
    if (!cfg_.adaptiveHealth)
        return;
    P2Quantile &q = latQ_[static_cast<std::size_t>(node)];
    const auto min_samples =
        static_cast<std::size_t>(cfg_.healthMinSamples);
    // Move this node's value within the sorted median set: out at
    // its old estimate, back in at its new one.
    if (q.count() >= min_samples) {
        const auto it = std::lower_bound(medianSet_.begin(),
                                         medianSet_.end(), q.value());
        panic_if(it == medianSet_.end() || *it != q.value(),
                 "fleet median set lost node ", node, "'s quantile ",
                 q.value());
        medianSet_.erase(it);
    }
    q.add(latency);
    if (q.count() < min_samples)
        return;
    medianSet_.insert(std::lower_bound(medianSet_.begin(),
                                       medianSet_.end(), q.value()),
                      q.value());
    // Eject when this node's latency quantile stands out against the
    // fleet median — the gray-failure detector: a slowed node keeps
    // completing legs (the consecutive-failure breaker never fires)
    // but its quantile drifts up.  An already-cooling node is left
    // alone so ejections count distinct trips, not outcomes.
    const double med = fleetMedianQuantile();
    if (med > 0.0 && q.value() > cfg_.healthLatencyMultiple * med &&
        cooldownUntil_[static_cast<std::size_t>(node)] <= now) {
        cooldownUntil_[static_cast<std::size_t>(node)] =
            now + cfg_.healthCooldown;
        ++adaptiveEjections_;
        viewsDirty_ = true;
    }
}

bool
FleetSimulator::draining(int node, Seconds now) const
{
    return degradeDepth_[static_cast<std::size_t>(node)] > 0 ||
        cooldownUntil_[static_cast<std::size_t>(node)] > now;
}

void
FleetSimulator::cancelLeg(Track &t, int slot)
{
    Leg &leg = t.legs[slot];
    panic_if(!leg.live, "cancel of a dead leg");
    panic_if(leg.node < 0, "cloud legs cannot be cancelled");
    leg.live = false;
    liveOnNode_[static_cast<std::size_t>(leg.node)].erase(t.gid);
    touchNode(static_cast<std::size_t>(leg.node));
    // A false return means the leg already retired and its outcome
    // record is in flight; marking it dead above stale-drops it.
    if (nodes_[static_cast<std::size_t>(leg.node)]->cancel(leg.local))
        ++cancelledLegs_;
    refreshNode(static_cast<std::size_t>(leg.node));
    if (slot == t.hedgeSlot)
        ++hedgeWaste_;
}

void
FleetSimulator::finishTrack(Track &t, FleetOutcome o, Seconds finish)
{
    const auto it = slotOf_.find(t.gid);
    panic_if(it == slotOf_.end(), "double-terminal fleet track ", t.gid);
    panic_if(t.pendingTimers != 0, "fleet track ", t.gid,
             " folds with a pending retry timer");
    for (int slot = 0; slot < 2; ++slot)
        if (t.legs[slot].live)
            cancelLeg(t, slot);
    freeSlots_.push_back(it->second);
    slotOf_.erase(it);

    foldMakespan_ = std::max(foldMakespan_, finish);
    switch (o) {
      case FleetOutcome::Served:
        ++foldServed_;
        break;
      case FleetOutcome::TimedOut:
        ++foldTimedOut_;
        return;
      case FleetOutcome::Shed:
        ++foldShed_;
        return;
      case FleetOutcome::Offloaded:
        ++foldOffloaded_;
        break;
    }
    const double lat = finish - t.req.arrival;
    if (t.absDeadline == kInf || finish <= t.absDeadline + kDeadlineSlack)
        ++foldDeadlineMet_;
    foldLat_.push_back(lat);
}

FleetSimulator::Track *
FleetSimulator::findTrack(std::int64_t gid)
{
    const auto it = slotOf_.find(gid);
    return it == slotOf_.end() ? nullptr : &tracks_[it->second];
}

FleetSimulator::Track &
FleetSimulator::trackAt(std::int64_t gid)
{
    Track *t = findTrack(gid);
    panic_if(t == nullptr, "no live track for fleet request ", gid);
    return *t;
}

FleetSimulator::Track &
FleetSimulator::allocTrack(std::int64_t gid)
{
    std::size_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = tracks_.size();
        tracks_.emplace_back();
    }
    tracks_[slot] = Track{};
    tracks_[slot].gid = gid;
    slotOf_.emplace(gid, slot);
    return tracks_[slot];
}

void
FleetSimulator::dispatch(Track &t, Seconds now, int exclude,
                         bool is_hedge)
{
    refreshViews(now);
    const RouteDecision d = router_->route(t.req, now, t.absDeadline,
                                           viewsBuf_, viewsGen_,
                                           cfg_.cloud, exclude);
    if (is_hedge) {
        // Hedge legs only duplicate onto a *different* edge node;
        // anything else (cloud, reject, same node) skips the hedge.
        if (d.cloud || d.rejected() || d.node == exclude)
            return;
    } else if (d.rejected()) {
        finishTrack(t, FleetOutcome::Shed, now);
        return;
    } else if (d.cloud) {
        cloudDollars_ += cfg_.cloud.dollars(t.req);
        int slot = t.legs[0].live ? 1 : 0;
        panic_if(t.legs[slot].live, "no free leg slot");
        t.legs[slot] = {-2, -1, true};
        ++t.attempts;
        push(now + cfg_.cloud.latency(t.req), KCloudDone, t.gid, -1);
        return;
    }

    engine::ServerRequest leg = t.req;
    leg.arrival = now;
    Seconds budget = 0.0;
    if (t.absDeadline < kInf)
        budget = t.absDeadline - now;
    if (cfg_.requestTimeout > 0.0)
        budget = budget > 0.0 ? std::min(budget, cfg_.requestTimeout)
                              : cfg_.requestTimeout;
    if (cfg_.adaptiveTimeoutMultiple > 0.0) {
        // Adaptive per-try timeout: the budget tracks observed fleet
        // latency instead of a static guess.  Tightens only — it can
        // shrink a static timeout or deadline budget, never extend
        // one — and stays off until enough completions accumulate.
        const double med = fleetMedianQuantile();
        if (med > 0.0) {
            const Seconds cap = cfg_.adaptiveTimeoutMultiple * med;
            budget = budget > 0.0 ? std::min(budget, cap) : cap;
        }
    }
    leg.deadline = budget;

    const int slot = t.legs[0].live ? 1 : 0;
    panic_if(t.legs[slot].live, "no free leg slot");
    const auto target = static_cast<std::size_t>(d.node);
    if (nodes_[target]->busy())
        touchNode(target);
    else
        busySince_[target] = syncSeq_; // counts syncs from the next on
    const std::int64_t local = nodes_[target]->submit(leg, t.gid);
    t.legs[slot] = {d.node, local, true};
    liveOnNode_[static_cast<std::size_t>(d.node)].insert(t.gid);
    refreshNode(static_cast<std::size_t>(d.node));
    if (is_hedge) {
        t.hedgeSlot = slot;
        ++hedgesLaunched_;
    } else {
        ++t.attempts;
        // Arm the hedge once: duplicate this leg when the remaining
        // slack shrinks below hedgeFraction x the relative deadline.
        if (cfg_.hedgeFraction > 0.0 && !t.hedgeScheduled &&
            t.absDeadline < kInf) {
            const Seconds at = std::max(
                now,
                t.absDeadline - cfg_.hedgeFraction * t.req.deadline);
            push(at, KHedgeTimer, t.gid, -1);
            t.hedgeScheduled = true;
        }
    }
}

void
FleetSimulator::scheduleRetry(Track &t, Seconds now, int failed_node)
{
    if (t.attempts > cfg_.maxRetries) {
        finishTrack(t, FleetOutcome::TimedOut, now);
        return;
    }
    const Seconds backoff = std::min(
        cfg_.retryBackoffCap,
        cfg_.retryBackoff *
            static_cast<double>(1ull << std::min(t.attempts - 1, 40)));
    const Seconds at = now + backoff;
    if (at + kDeadlineSlack >= t.absDeadline) {
        finishTrack(t, FleetOutcome::TimedOut, now);
        return;
    }
    push(at, KRetryTimer, t.gid, failed_node);
    ++t.pendingTimers;
}

void
FleetSimulator::issueArrival()
{
    if (streamIssued_ == streamTotal_)
        return;
    const Seconds prev = streamPending_.arrival;
    streamPending_ = src_->next();
    fatal_if(streamIssued_ > 0 && streamPending_.arrival < prev,
             "fleet trace arrivals must be sorted (request ",
             streamIssued_, " arrives at ", streamPending_.arrival,
             ", before ", prev, ")");
    push(streamPending_.arrival, KArrival,
         static_cast<std::int64_t>(streamIssued_), -1);
    ++streamIssued_;
}

void
FleetSimulator::onArrival(const Event &e)
{
    Track &t = allocTrack(e.gid);
    t.req = streamPending_;
    if (e.gid == 0)
        firstArrival_ = t.req.arrival;
    t.absDeadline = t.req.deadline > 0.0
        ? t.req.arrival + t.req.deadline
        : kInf;
    dispatch(t, e.time, -1, false);
    issueArrival();
}

void
FleetSimulator::onOutcome(const Event &e)
{
    Track *tp = findTrack(e.gid);
    if (tp == nullptr)
        return; // stale: the track already folded
    Track &t = *tp;
    int slot = -1;
    for (int s = 0; s < 2; ++s)
        if (t.legs[s].live && t.legs[s].node == e.node &&
            t.legs[s].local == e.local)
            slot = s;
    if (slot < 0)
        return; // stale: the leg was cancelled or failed over

    t.legs[slot].live = false;
    liveOnNode_[static_cast<std::size_t>(e.node)].erase(t.gid);

    if (static_cast<engine::RequestOutcome>(e.legOutcome) ==
        engine::RequestOutcome::Completed) {
        noteSuccess(e.node);
        // Leg latency = dispatch -> finish (the leg's arrival is its
        // dispatch instant), the signal the quantile tracker streams.
        noteLatency(e.node, e.latency, e.time);
        if (slot == t.hedgeSlot)
            ++hedgeWins_;
        // e.time is the record's finish instant verbatim.
        finishTrack(t, FleetOutcome::Served, e.time);
        return;
    }

    // The node shed or aborted the leg (its time budget ran out).
    noteFailure(e.node, e.time);
    if (t.legs[0].live || t.legs[1].live)
        return; // a hedge partner is still running
    scheduleRetry(t, e.time, e.node);
}

void
FleetSimulator::onCloudDone(const Event &e)
{
    // Cloud legs are always a track's sole leg, so the track cannot
    // have reached a terminal state (and folded) before this event.
    Track &t = trackAt(e.gid);
    int slot = -1;
    for (int s = 0; s < 2; ++s)
        if (t.legs[s].live && t.legs[s].node == -2)
            slot = s;
    panic_if(slot < 0, "cloud completion without a live cloud leg");
    t.legs[slot].live = false;
    finishTrack(t, FleetOutcome::Offloaded, e.time);
}

void
FleetSimulator::onCrash(const Event &e)
{
    FleetNode &n = *nodes_[static_cast<std::size_t>(e.node)];
    if (!n.up())
        return; // overlapping explicit schedule; already down

    // Fail over every live leg in deterministic gid order.  The gid
    // set is the authority: outcome records the node simulated past
    // the crash instant are in the heap but their legs die here, so
    // they stale-drop — crash beats lookahead.
    const std::set<std::int64_t> lost =
        liveOnNode_[static_cast<std::size_t>(e.node)];
    liveOnNode_[static_cast<std::size_t>(e.node)].clear();
    // The crash snapshots the node's lifetime totals at its clock.
    touchNode(static_cast<std::size_t>(e.node));
    n.crash();
    refreshNode(static_cast<std::size_t>(e.node));
    viewsDirty_ = true;
    push(e.time + e.aux, KReboot, -1, e.node);

    for (const std::int64_t gid : lost) {
        // A live leg keeps its track from folding, so every lost gid
        // still has a track.
        Track &t = trackAt(gid);
        for (int s = 0; s < 2; ++s)
            if (t.legs[s].live && t.legs[s].node == e.node)
                t.legs[s].live = false;
        if (t.legs[0].live || t.legs[1].live)
            continue; // the hedge partner carries on
        if (e.time + kDeadlineSlack >= t.absDeadline) {
            finishTrack(t, FleetOutcome::TimedOut, e.time);
            continue;
        }
        ++failovers_;
        dispatch(t, e.time, e.node, false);
    }
}

void
FleetSimulator::onReboot(const Event &e)
{
    nodes_[static_cast<std::size_t>(e.node)]->reboot();
    consecFailures_[static_cast<std::size_t>(e.node)] = 0;
    cooldownUntil_[static_cast<std::size_t>(e.node)] = 0.0;
    refreshNode(static_cast<std::size_t>(e.node));
    viewsDirty_ = true;
}

void
FleetSimulator::onHedgeTimer(const Event &e)
{
    Track *tp = findTrack(e.gid);
    if (tp == nullptr)
        return; // folded away: terminal, nothing to hedge
    Track &t = *tp;
    const bool live0 = t.legs[0].live, live1 = t.legs[1].live;
    if (live0 == live1)
        return; // zero or two legs: nothing to duplicate
    const Leg &leg = live0 ? t.legs[0] : t.legs[1];
    if (leg.node < 0)
        return; // cloud legs are not hedged
    if (e.time + kDeadlineSlack >= t.absDeadline)
        return;
    dispatch(t, e.time, leg.node, true);
}

void
FleetSimulator::onRetryTimer(const Event &e)
{
    // A pending retry timer keeps its track from folding (legs are
    // all dead when one is scheduled, and every finishTrack path
    // requires a live leg or runs from this handler), so the track is
    // never folded away before its timer fires.
    Track &t = trackAt(e.gid);
    --t.pendingTimers;
    if (t.legs[0].live || t.legs[1].live)
        return;
    if (e.time + kDeadlineSlack >= t.absDeadline) {
        finishTrack(t, FleetOutcome::TimedOut, e.time);
        return;
    }
    ++retries_;
    dispatch(t, e.time, e.node, false);
}

void
FleetSimulator::auditTrack(const Track &t, std::size_t &edge_legs) const
{
    fatal_if(!t.legs[0].live && !t.legs[1].live && t.pendingTimers == 0,
             "fleet audit: track ", t.gid,
             " is lost (no live leg, no pending timer)");
    for (int s = 0; s < 2; ++s) {
        const Leg &leg = t.legs[s];
        if (!leg.live || leg.node < 0)
            continue;
        ++edge_legs;
        const auto &set =
            liveOnNode_[static_cast<std::size_t>(leg.node)];
        fatal_if(set.find(t.gid) == set.end(), "fleet audit: leg "
                 "of track ", t.gid, " missing from node ",
                 leg.node, "'s live set");
    }
}

void
FleetSimulator::auditStopIndex() const
{
    // The index is derived state; cross-check every key against a
    // from-scratch peek, and the minimum against a brute-force scan.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Seconds want = nodes_[i]->nextVisibleChange();
        fatal_if(std::bit_cast<std::uint64_t>(stopIndex_.key(i)) !=
                     std::bit_cast<std::uint64_t>(want),
                 "fleet audit: stop-index key of node ", i, " is ",
                 stopIndex_.key(i), " but its next visible change is ",
                 want);
    }
    fatal_if(stopIndex_.minKey() != nextNodeStopBrute(),
             "fleet audit: stop-index minimum ", stopIndex_.minKey(),
             " disagrees with the brute-force scan ",
             nextNodeStopBrute());
}

void
FleetSimulator::auditRouteClasses() const
{
    // The router's load classes are derived state, patched through
    // refreshNode between views rebuilds; cross-check them against a
    // from-scratch grouping of the same views.
    const auto got = router_->loadClasses(viewsBuf_, viewsGen_);
    if (!got)
        return; // not built for these views: the next route rebuilds
    const auto want = Router::loadClassesFromScratch(viewsBuf_);
    fatal_if(got->size() != want.size(), "fleet audit: router holds ",
             got->size(), " load classes but the views group into ",
             want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
        const auto &g = (*got)[k];
        const auto &w = want[k];
        fatal_if(!(g == w), "fleet audit: load class ", k,
                 " (by lowest member) is held as lowest ", g.lowest,
                 " with ", g.members.size(), " members at backlog ",
                 g.key.backlog, ", in flight ", g.key.inFlight,
                 ", but the views give lowest ", w.lowest, " with ",
                 w.members.size(), " members at backlog ", w.key.backlog,
                 ", in flight ", w.key.inFlight);
    }
}

void
FleetSimulator::auditMedianSet() const
{
    const std::vector<double> want = medianSetBrute();
    fatal_if(medianSet_.size() != want.size(), "fleet audit: median "
             "set holds ", medianSet_.size(), " quantiles but ",
             want.size(), " nodes are eligible");
    for (std::size_t i = 0; i < want.size(); ++i)
        fatal_if(std::bit_cast<std::uint64_t>(medianSet_[i]) !=
                     std::bit_cast<std::uint64_t>(want[i]),
                 "fleet audit: median set entry ", i, " is ",
                 medianSet_[i], " but the sorted quantiles hold ",
                 want[i]);
}

void
FleetSimulator::audit(Seconds now) const
{
    // Every live edge leg is in exactly one node set (hedges never
    // share a node, so gid sets count legs exactly).
    std::size_t edge_legs = 0;
    for (const auto &kv : slotOf_)
        auditTrack(tracks_[kv.second], edge_legs);
    std::size_t on_nodes = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        fatal_if(!nodes_[i]->up() && !liveOnNode_[i].empty(),
                 "fleet audit: down node ", i, " has live legs");
        on_nodes += liveOnNode_[i].size();
    }
    fatal_if(on_nodes != edge_legs, "fleet audit: node live sets (",
             on_nodes, ") disagree with live edge legs (", edge_legs,
             ")");
    fatal_if(now + kTimeSlack < now_,
             "fleet audit: time ran backwards");
    auditStopIndex();
    auditRouteClasses();
    auditMedianSet();
}

FleetReport
FleetSimulator::run(const std::vector<engine::ServerRequest> &trace,
                    const FleetDurabilityOptions &dur)
{
    const bool durable = !dur.checkpointDir.empty();
    fatal_if(dur.resume && !durable,
             "fleet resume needs a checkpoint directory");
    fatal_if((dur.crashAtEvent >= 0 || dur.crashAtTime >= 0.0) &&
                 !durable,
             "fleet crash injection without a checkpoint directory "
             "would lose the run");
    VectorTraceSource src(trace);
    attachSource(src);

    const std::uint64_t fp = durable ? fleetFingerprint(trace) : 0;
    std::uint64_t restoredEvent = 0;
    bool resumed = false;

    if (dur.resume) {
        const auto ckpts = engine::listCheckpoints(dur.checkpointDir);
        fatal_if(ckpts.empty(), "fleet resume: no checkpoints in ",
                 dur.checkpointDir);
        const std::string payload =
            engine::loadCheckpointFile(ckpts.back().second, fp);
        ByteReader r(payload);
        io(r);
        r.expectEnd("fleet checkpoint");
        fatal_if(eventCount_ != ckpts.back().first,
                 "fleet checkpoint ", ckpts.back().second,
                 " is named for event ", ckpts.back().first,
                 " but its state is at event ", eventCount_);
        // All or nothing: journals are truncated only once the whole
        // checkpoint has been read and checked.
        for (auto &n : nodes_)
            n->resumeJournal(eventCount_, dur.verifyTail);
        src.seek(streamIssued_);
        restoredEvent = eventCount_;
        resumed = true;
    } else {
        startFresh();
    }

    eventLoop(dur, durable, fp, resumed, restoredEvent);
    return finishRun();
}

FleetReport
FleetSimulator::runStream(engine::TraceSource &src)
{
    attachSource(src);
    startFresh();
    eventLoop(FleetDurabilityOptions{}, false, 0, false, 0);
    return finishRun();
}

void
FleetSimulator::attachSource(engine::TraceSource &src)
{
    fatal_if(src_ != nullptr, "FleetSimulator::run is single-shot");
    src_ = &src;
    streamTotal_ = src.totalRequests();
}

void
FleetSimulator::startFresh()
{
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        nodes_[i]->beginJournal();
        for (const auto &c : schedules_[i].crashes)
            push(c.time, KCrash, -1, static_cast<int>(i), c.rebootAfter);
        for (const auto &d : schedules_[i].degrades) {
            push(d.start, KDegradeStart, -1, static_cast<int>(i));
            push(d.start + d.duration, KDegradeEnd, -1,
                 static_cast<int>(i));
        }
        // Health flaps reuse the degrade-window event machinery:
        // a flapping node drains briefly and repeatedly, which is
        // exactly a train of short degrade windows.
        for (const auto &f : schedules_[i].flaps) {
            push(f.start, KDegradeStart, -1, static_cast<int>(i));
            push(f.start + f.duration, KDegradeEnd, -1,
                 static_cast<int>(i));
        }
    }
    issueArrival();
}

FleetReport
FleetSimulator::finishRun()
{
    audit(now_);
    fatal_if(!slotOf_.empty(), "fleet conservation violated: ",
             slotOf_.size(),
             " request(s) never reached a terminal state");
    const std::size_t folded =
        foldServed_ + foldTimedOut_ + foldShed_ + foldOffloaded_;
    fatal_if(folded != streamTotal_, "fleet conservation violated: ",
             folded, " folded outcomes for ", streamTotal_,
             " arrivals");

    FleetReport r;
    r.router = cfg_.router;
    r.served = foldServed_;
    r.timedOut = foldTimedOut_;
    r.shed = foldShed_;
    r.offloaded = foldOffloaded_;
    // Every arrival folded exactly once (checked above).
    r.arrivals = r.served + r.timedOut + r.shed + r.offloaded;
    r.retries = retries_;
    r.failovers = failovers_;
    r.hedgesLaunched = hedgesLaunched_;
    r.hedgeWins = hedgeWins_;
    r.hedgeWaste = hedgeWaste_;
    r.cancelledLegs = cancelledLegs_;
    r.adaptiveHealth = cfg_.adaptiveHealth;
    r.adaptiveEjections = adaptiveEjections_;
    const std::size_t finished = r.served + r.offloaded;
    if (r.arrivals > 0)
        r.deadlineHitRate = static_cast<double>(foldDeadlineMet_) /
            static_cast<double>(r.arrivals);
    // The single-node report's fold.  The mean folds in completion
    // order before the in-place sort; a run is single-shot, so
    // foldLat_ needs no copy.
    const RunSummary run = summarizeRun(firstArrival_, foldMakespan_,
                                        finished, foldDeadlineMet_,
                                        foldLat_);
    r.makespan = run.makespan;
    r.throughput = run.throughput;
    r.goodput = run.goodput;
    r.meanLatency = run.latency.mean;
    r.p50Latency = run.latency.p50;
    r.p99Latency = run.latency.p99;
    r.p999Latency = run.latency.p999;

    r.events = eventCount_;
    Seconds total_busy = 0.0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const NodeTotals tot = nodes_[i]->totals();
        const FleetNode::OutcomeCounts oc = nodes_[i]->outcomeCounts();
        NodeSummary s;
        s.id = static_cast<int>(i);
        s.served = oc.served;
        s.timedOut = oc.timedOut;
        s.cancelled = oc.cancelled;
        s.crashes = tot.crashes;
        s.energy = tot.energy;
        s.busy = tot.busy;
        s.generatedTokens = tot.generatedTokens;
        s.up = nodes_[i]->up();
        r.nodes.push_back(s);
        r.totalEnergy += tot.energy;
        r.generatedTokens += tot.generatedTokens;
        total_busy += tot.busy;
    }
    if (finished > 0)
        r.energyPerQuery = r.totalEnergy /
            static_cast<double>(finished);
    if (r.generatedTokens > 0.0)
        r.edgeDollars =
            cost::edgeCost(r.totalEnergy, total_busy,
                           r.generatedTokens)
                .totalPerMTok() *
            r.generatedTokens / 1e6;
    r.cloudDollars = cloudDollars_;
    if (finished > 0)
        r.dollarsPerQuery = (r.edgeDollars + r.cloudDollars) /
            static_cast<double>(finished);
    return r;
}


void
FleetSimulator::eventLoop(const FleetDurabilityOptions &dur,
                          bool durable, std::uint64_t fp, bool resumed,
                          std::uint64_t restored_event)
{
    while (true) {
        if (heap_.empty()) {
            if (stopIndex_.minKey() == kInf)
                break; // no events, no busy nodes: done
            // With no event to sync to, time moves in quanta from the
            // laggard's clock.  Bring each node to where the syncs so
            // far left it first, so the laggard is the real one.
            Seconds lo = kInf;
            for (std::size_t i = 0; i < nodes_.size(); ++i) {
                touchNode(i);
                if (nodes_[i]->busy())
                    lo = std::min(lo, nodes_[i]->clock());
            }
            syncNodesTo(lo + kDrainQuantum);
            continue;
        }

        if (durable) {
            // Checkpoint/crash gate, keyed on the processed-event
            // count: a deterministic coordinate both the crashed and
            // the uninterrupted run pass through in the same state.
            // The restored checkpoint itself is never rewritten (its
            // journal marks already exist).
            const bool due = eventCount_ == 0 ||
                (dur.checkpointEvery > 0 &&
                 eventCount_ % dur.checkpointEvery == 0);
            if (due && eventCount_ != lastCkptEvent_ &&
                !(resumed && eventCount_ == restored_event))
                writeCheckpoint(dur, fp);
            if ((dur.crashAtEvent >= 0 &&
                 eventCount_ ==
                     static_cast<std::uint64_t>(dur.crashAtEvent)) ||
                (dur.crashAtTime >= 0.0 && now_ >= dur.crashAtTime))
                throw FleetSimulatedCrash(eventCount_, now_);
        }

        // Advance every node whose next visible change precedes the
        // event; outcomes they produce before it enter the heap and
        // are popped in global time order.
        syncNodesTo(heap_.front().time);
        Event e = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        heap_.pop_back();
        now_ = std::max(now_, e.time);

        switch (e.kind) {
          case KOutcome:
            onOutcome(e);
            break;
          case KCloudDone:
            onCloudDone(e);
            break;
          case KCrash:
            onCrash(e);
            break;
          case KReboot:
            onReboot(e);
            break;
          case KDegradeStart:
            ++degradeDepth_[static_cast<std::size_t>(e.node)];
            viewsDirty_ = true;
            break;
          case KDegradeEnd:
            --degradeDepth_[static_cast<std::size_t>(e.node)];
            viewsDirty_ = true;
            break;
          case KHedgeTimer:
            onHedgeTimer(e);
            break;
          case KRetryTimer:
            onRetryTimer(e);
            break;
          case KArrival:
            onArrival(e);
            break;
          default:
            panic("unknown fleet event kind ", e.kind);
        }
        if (cfg_.paranoid)
            audit(now_);
        ++eventCount_;
    }
}

std::uint64_t
FleetSimulator::fleetFingerprint(
    const std::vector<engine::ServerRequest> &trace) const
{
    // Hash everything that determines the fleet's arithmetic: router
    // policy, node specs, per-node server knobs and behavioural fault
    // content (through the single-node fingerprint's own writers, so
    // the two cannot drift apart), fleet resilience knobs, the
    // materialized fault schedules (whatever their source), and the
    // full trace.  Deliberately excluded, following the
    // single-node checkpoint discipline: paranoid, journalDir, and
    // every crash-injection knob — resuming under a different (or no)
    // crash plan is the normal recovery flow.
    // v3: the payload holds live track slots, the trace cursor, the
    // folded aggregates and compacted node records.  v4: lazily synced
    // nodes, plus the sync-target marks that place them.  v5: the
    // first arrival, and folded latencies in completion order without
    // their gids.
    ByteWriter w;
    w.str("edgereason-fleet-ckpt-v5");
    w.u8(static_cast<std::uint8_t>(cfg_.router));
    w.u64(cfg_.nodes.size());
    for (const NodeSpec &s : cfg_.nodes) {
        w.u32(static_cast<std::uint32_t>(s.model));
        w.u8(s.quantized ? 1 : 0);
        w.u32(static_cast<std::uint32_t>(s.powerMode));
    }
    engine::fingerprintServerConfig(w, cfg_.server);
    w.i64(cfg_.maxRetries);
    w.f64(cfg_.retryBackoff);
    w.f64(cfg_.retryBackoffCap);
    w.f64(cfg_.requestTimeout);
    w.f64(cfg_.hedgeFraction);
    w.i64(cfg_.healthFailureThreshold);
    w.f64(cfg_.healthCooldown);
    w.u8(cfg_.adaptiveHealth ? 1 : 0);
    w.f64(cfg_.healthQuantile);
    w.f64(cfg_.healthLatencyMultiple);
    w.i64(cfg_.healthMinSamples);
    w.f64(cfg_.adaptiveTimeoutMultiple);
    w.u8(cfg_.cloud.enabled ? 1 : 0);
    w.f64(cfg_.cloud.rtt);
    w.u64(cfg_.cloud.saturationBacklog);
    w.f64(cfg_.cloud.price.inputPerMTok);
    w.f64(cfg_.cloud.price.outputPerMTok);
    w.f64(cfg_.cloud.price.userTps);
    for (const NodeFaultSchedule &s : schedules_) {
        w.u64(s.crashes.size());
        for (const auto &c : s.crashes) {
            w.f64(c.time);
            w.f64(c.rebootAfter);
        }
        w.u64(s.degrades.size());
        for (const auto &d : s.degrades) {
            w.f64(d.start);
            w.f64(d.duration);
        }
        w.u64(s.slowdowns.size());
        for (const auto &sd : s.slowdowns) {
            w.f64(sd.start);
            w.f64(sd.duration);
            w.f64(sd.multiplier);
        }
        w.u64(s.flaps.size());
        for (const auto &f : s.flaps) {
            w.f64(f.start);
            w.f64(f.duration);
        }
        engine::fingerprintFaultPlan(w, s.behavioural);
    }
    w.u64(trace.size());
    for (const auto &req : trace)
        put(w, req);
    return fnv1a(w.bytes());
}

void
FleetSimulator::writeCheckpoint(const FleetDurabilityOptions &dur,
                                std::uint64_t fingerprint)
{
    // Mark first: the journal record promises "a checkpoint covers
    // every record before me", so it must be durable before any
    // post-checkpoint emission; resume truncates each node's journal
    // just after its matching mark.
    for (auto &n : nodes_)
        n->journalCheckpointMark(eventCount_);
    std::error_code ec;
    std::filesystem::create_directories(dur.checkpointDir, ec);
    fatal_if(ec, "cannot create fleet checkpoint directory ",
             dur.checkpointDir, ": ", ec.message());
    ByteWriter w;
    io(w);
    engine::writeCheckpointFile(
        engine::checkpointPath(dur.checkpointDir, eventCount_),
        fingerprint, w);
    lastCkptEvent_ = eventCount_;
}

template <class Ar>
void
FleetSimulator::io(Ar &a)
{
    a.f64(now_);
    a.u64(seq_);
    a.u64(eventCount_);
    a.u64(streamIssued_);
    const auto refuse = [&](bool bad, const auto &...msg) {
        fatalAt(a, bad, "fleet checkpoint ", msg...);
    };
    refuse(streamIssued_ > streamTotal_, "drew ", streamIssued_,
           " requests from a trace of ", streamTotal_);
    engine::io(a, streamPending_);
    // The heap vector verbatim, in container order: the array layout
    // (not just the multiset of events) is part of the run's
    // determinism, and round-tripping it preserves the heap property
    // for free.
    a.seq(heap_, 58, [&](Event &e) {
        a.f64(e.time);
        a.enum8(e.kind, int{KArrival});
        a.u64(e.seq);
        a.i64(e.gid);
        a.i64(e.node);
        a.f64(e.aux);
        a.i64(e.local);
        a.f64(e.latency);
        a.enum8(e.legOutcome, static_cast<std::uint8_t>(
                                  engine::RequestOutcome::Cancelled));
        // Node events index nodes_; the others name a node or none.
        const bool on_node = e.kind == KOutcome ||
            (e.kind >= KCrash && e.kind <= KDegradeEnd);
        refuse(e.node < (on_node ? 0 : -1) ||
                   e.node >= static_cast<int>(nodes_.size()),
               "event of kind ", e.kind, " names node ", e.node);
    });
    // Live tracks in gid order with their slots, then the free-slot
    // stack in order: the slot layout round-trips exactly.  Every slot
    // was opened by a distinct arrival, and each slot is live or free
    // exactly once.
    std::uint64_t nslots = tracks_.size();
    a.u64(nslots);
    std::vector<bool> used;
    if constexpr (Ar::kReading) {
        refuse(nslots > streamIssued_, "holds ", nslots,
               " track slots for ", streamIssued_, " arrivals");
        tracks_.assign(static_cast<std::size_t>(nslots), Track{});
        slotOf_.clear();
        used.assign(tracks_.size(), false);
    }
    const auto claim = [&](std::size_t slot) {
        if constexpr (Ar::kReading) {
            refuse(slot >= nslots || used[slot], "slot ", slot,
                   " is out of range or claimed twice");
            used[slot] = true;
        }
    };
    std::vector<std::pair<std::int64_t, std::size_t>> live;
    if constexpr (!Ar::kReading) {
        live.assign(slotOf_.begin(), slotOf_.end());
        std::sort(live.begin(), live.end());
    }
    a.seq(live, 139, [&](std::pair<std::int64_t, std::size_t> &p) {
        a.u64(p.second);
        claim(p.second);
        Track &t = tracks_[p.second];
        engine::io(a, t.req);
        a.i64(t.gid);
        a.f64(t.absDeadline);
        for (Leg &leg : t.legs) {
            a.i64(leg.node);
            a.i64(leg.local);
            a.flag(leg.live);
        }
        a.i64(t.hedgeSlot);
        a.i64(t.attempts);
        a.i64(t.pendingTimers);
        a.flag(t.hedgeScheduled);
        if constexpr (Ar::kReading) {
            for (const Leg &leg : t.legs)
                refuse(leg.node != -2 &&
                           (leg.node < 0 ||
                            leg.node >= static_cast<int>(nodes_.size())),
                       "track ", t.gid, " has a leg on node ", leg.node);
            refuse(t.hedgeSlot < -1 || t.hedgeSlot > 1, "track ", t.gid,
                   " has hedge slot ", t.hedgeSlot);
            refuse(t.gid < 0 ||
                       static_cast<std::uint64_t>(t.gid) >= streamIssued_,
                   "track ", t.gid, " was never drawn (cursor ",
                   streamIssued_, ")");
            refuse(!slotOf_.emplace(t.gid, p.second).second,
                   "holds track ", t.gid, " twice");
        }
    });
    a.seq(freeSlots_, 8, [&](std::size_t &slot) {
        a.u64(slot);
        claim(slot);
    });
    refuse(live.size() + freeSlots_.size() != nslots, "has ", live.size(),
           " live and ", freeSlots_.size(), " free track slots of ", nslots);
    a.u64(foldServed_);
    a.u64(foldTimedOut_);
    a.u64(foldShed_);
    a.u64(foldOffloaded_);
    a.u64(foldDeadlineMet_);
    a.f64(foldMakespan_);
    a.f64(firstArrival_);
    a.seq(foldLat_, 8, [&](double &lat) { a.f64(lat); });
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        std::vector<std::int64_t> legs(liveOnNode_[i].begin(),
                                       liveOnNode_[i].end());
        a.seq(legs, 8, [&](std::int64_t &gid) { a.i64(gid); });
        if constexpr (Ar::kReading)
            liveOnNode_[i] = {legs.begin(), legs.end()};
        a.u64(drained_[i]);
        a.i64(consecFailures_[i]);
        a.f64(cooldownUntil_[i]);
        a.i64(degradeDepth_[i]);
    }
    // Lazy sync: the suffix maxima of the sync targets, and where each
    // node's busy period starts among them (touchNode's target).
    a.u64(syncSeq_);
    a.seq(syncMax_, 16, [&](SyncMark &m) {
        a.u64(m.seq);
        a.f64(m.target);
        refuse(m.seq >= syncSeq_, "sync mark ", m.seq,
               " is past the sync count ", syncSeq_);
    });
    for (std::uint64_t &seq : busySince_)
        a.u64(seq);
    a.u64(retries_);
    a.u64(failovers_);
    a.u64(hedgesLaunched_);
    a.u64(hedgeWins_);
    a.u64(hedgeWaste_);
    a.u64(cancelledLegs_);
    a.u64(adaptiveEjections_);
    a.f64(cloudDollars_);
    router_->io(a);
    for (P2Quantile &q : latQ_)
        q.io(a);
    for (auto &n : nodes_)
        n->io(a);
    if constexpr (Ar::kReading) {
        lastCkptEvent_ = eventCount_;
        // The stop index, median set and router views are derived
        // state: rebuild the first from the restored nodes, the second
        // from the restored quantiles, invalidate the last.
        for (std::size_t i = 0; i < nodes_.size(); ++i)
            refreshNode(i);
        medianSet_ = medianSetBrute();
        viewsDirty_ = true;
    }
}

std::string
formatFleetReport(const FleetReport &r)
{
    std::string out;
    out += "fleet report (router=";
    out += routerPolicyName(r.router);
    out += ")\n";
    out += "arrivals " + std::to_string(r.arrivals) + " served " +
        std::to_string(r.served) + " timed-out " +
        std::to_string(r.timedOut) + " shed " +
        std::to_string(r.shed) + " offloaded " +
        std::to_string(r.offloaded) + "\n";
    out += "retries " + std::to_string(r.retries) + " failovers " +
        std::to_string(r.failovers) + " hedges " +
        std::to_string(r.hedgesLaunched) + " (wins " +
        std::to_string(r.hedgeWins) + ", waste " +
        std::to_string(r.hedgeWaste) + ") cancelled-legs " +
        std::to_string(r.cancelledLegs) + "\n";
    // Printed only when the adaptive breaker ran, so the legacy
    // goldens (adaptiveHealth off) stay bit-identical.
    if (r.adaptiveHealth)
        out += "adaptive-health ejections " +
            std::to_string(r.adaptiveEjections) + "\n";
    out += "makespan " + g17(r.makespan) + " throughput " +
        g17(r.throughput) + " goodput " + g17(r.goodput) +
        " deadline-hit " + g17(r.deadlineHitRate) + "\n";
    out += "latency mean " + g17(r.meanLatency) + " p50 " +
        g17(r.p50Latency) + " p99 " + g17(r.p99Latency) + " p999 " +
        g17(r.p999Latency) + "\n";
    out += "energy " + g17(r.totalEnergy) + " J (" +
        g17(r.energyPerQuery) + " J/query) tokens " +
        g17(r.generatedTokens) + "\n";
    out += "dollars edge " + g17(r.edgeDollars) + " cloud " +
        g17(r.cloudDollars) + " (" + g17(r.dollarsPerQuery) +
        " $/query)\n";
    for (const NodeSummary &n : r.nodes) {
        out += "node " + std::to_string(n.id) + ": served " +
            std::to_string(n.served) + " timed-out " +
            std::to_string(n.timedOut) + " cancelled " +
            std::to_string(n.cancelled) + " crashes " +
            std::to_string(n.crashes) + " energy " + g17(n.energy) +
            " busy " + g17(n.busy) + " tokens " +
            g17(n.generatedTokens) + (n.up ? " up" : " down") + "\n";
    }
    return out;
}

} // namespace fleet
} // namespace edgereason
