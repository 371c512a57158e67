#include "fleet/node.hh"

#include <algorithm>
#include <filesystem>
#include <limits>

#include "common/logging.hh"
#include "model/calibration.hh"
#include "model/zoo.hh"

namespace edgereason {
namespace fleet {

using engine::kDeadlineSlack;
using engine::kTimeSlack;

std::unique_ptr<engine::InferenceEngine>
makeNodeEngine(const NodeSpec &spec)
{
    engine::EngineConfig ec;
    ec.powerMode = spec.powerMode;
    return std::make_unique<engine::InferenceEngine>(
        spec.quantized ? model::quantizedSpec(spec.model)
                       : model::spec(spec.model),
        model::calibration(spec.model, spec.quantized ? DType::W4A16
                                                      : DType::FP16),
        ec);
}

FleetNode::FleetNode(int id, const NodeSpec &spec,
                     const engine::InferenceEngine &engine,
                     const engine::ServerConfig &config,
                     engine::FaultPlan behavioural,
                     std::string journal_dir)
    : id_(id), spec_(spec), cfg_(config), faults_(std::move(behavioural)),
      journalDir_(std::move(journal_dir)), engine_(engine)
{
    fatal_if(cfg_.scheduler == engine::SchedulerPolicy::Spjf,
             "fleet nodes do not support the spjf scheduler (no "
             "fitted latency model)");
    fatal_if(cfg_.degrade.mode == engine::DegradeMode::Fallback,
             "fleet nodes do not support fallback degradation (no "
             "per-node fallback engine)");
    scheduler_ = engine::makeScheduler(cfg_.scheduler);
    exec_ = std::make_unique<engine::BatchExecutor>(
        engine_, nullptr, cfg_, faults_, served_);
}

FleetNode::FleetNode(int id, const NodeSpec &spec,
                     const engine::ServerConfig &config,
                     engine::FaultPlan behavioural,
                     std::string journal_dir)
    : FleetNode(id, spec, makeNodeEngine(spec), config,
                std::move(behavioural), std::move(journal_dir))
{
}

FleetNode::FleetNode(int id, const NodeSpec &spec,
                     std::unique_ptr<engine::InferenceEngine> own,
                     const engine::ServerConfig &config,
                     engine::FaultPlan behavioural,
                     std::string journal_dir)
    : FleetNode(id, spec, *own, config, std::move(behavioural),
                std::move(journal_dir))
{
    // The heap engine does not move, so engine_ stays valid.
    ownEngine_ = std::move(own);
}

void
FleetNode::beginJournal()
{
    openJournal();
}

std::string
FleetNode::journalPath() const
{
    return (std::filesystem::path(journalDir_) /
            ("node-" + std::to_string(id_) + "-inc" +
             std::to_string(incarnation_) + ".bin"))
        .string();
}

std::uint64_t
FleetNode::journalFingerprint() const
{
    // Keys the journal to (node, incarnation): a resume that would
    // mix up files is refused by the header check.
    return 0xF1EE70000000000ull ^
        (static_cast<std::uint64_t>(id_) << 32) ^ incarnation_;
}

void
FleetNode::openJournal()
{
    if (journalDir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(journalDir_, ec);
    fatal_if(ec, "cannot create fleet journal directory ", journalDir_,
             ": ", ec.message());
    // Fleet journals are full WALs: per-node crash artifacts that
    // `edgereason replay` re-derives reports from, and — under fleet
    // checkpointing — resumed with byte-for-byte tail verification
    // (restore() reopens them via Journal::resumeAt).
    journal_ =
        engine::Journal::createFresh(journalPath(), journalFingerprint());
    journal_.emitRunBegin(0, cfg_.scheduler, 0.0);
    exec_->setJournal(&journal_);
}

void
FleetNode::journalCheckpointMark(std::uint64_t event)
{
    if (journal_.active())
        journal_.emitCheckpointMark(event);
}

std::int64_t
FleetNode::submit(const engine::ServerRequest &req, std::int64_t gid)
{
    panic_if(!up_, "submit to down fleet node ", id_);
    panic_if(!pending_.empty() &&
                 req.arrival < pending_.back().req.arrival,
             "fleet node ", id_, ": dispatch times must be monotone");
    const std::int64_t local = submitted_++;
    gidOfLocal_.emplace(local, gid);
    pending_.push_back({req, local});
    return local;
}

void
FleetNode::pullArrivals()
{
    while (!pending_.empty() &&
           pending_.front().req.arrival <= exec_->clock() + kTimeSlack) {
        engine::TrackedRequest t;
        t.req = pending_.front().req;
        t.traceIndex = pending_.front().local;
        st_.haveDeadlines =
            st_.haveDeadlines || t.req.deadline > 0.0;
        const engine::ReqId id = st_.enqueueNew(t);
        (void)id;
        if (journal_.active())
            journal_.emitArrival(t, st_.queue.size());
        pending_.pop_front();
    }
}

Seconds
FleetNode::nextPendingArrival() const
{
    return pending_.empty()
        ? std::numeric_limits<Seconds>::infinity()
        : pending_.front().req.arrival;
}

double
FleetNode::slowdownScaleAt(Seconds t) const
{
    // Windows are sorted and non-overlapping.
    for (const SlowdownWindow &w : slowdowns_) {
        if (t < w.start)
            break;
        if (t < w.start + w.duration)
            return w.multiplier;
    }
    return 1.0;
}

Seconds
FleetNode::nextSlowdownEdge(Seconds t) const
{
    // The same `<` tests as slowdownScaleAt: the first instant past
    // @p t at which the latched scale can change.
    for (const SlowdownWindow &w : slowdowns_) {
        if (t < w.start)
            return w.start;
        if (t < w.start + w.duration)
            return w.start + w.duration;
    }
    return std::numeric_limits<Seconds>::infinity();
}

Seconds
FleetNode::nextVisibleChange() const
{
    if (!busy())
        return std::numeric_limits<Seconds>::infinity();
    // Keyed on the clock: the next cycle starts with something other
    // than a pure decode segment — an idle jump to a pending arrival
    // (admitted within that same cycle), an arrival it pulls, an
    // admission into a free slot, or an expired queued entry to shed.
    // A prefill, a fault event or thermal coupling is the executor
    // peek's to spot.
    const Seconds c = exec_->clock();
    const Seconds arrival = nextPendingArrival();
    if (arrival <= c + kTimeSlack ||
        (!st_.queue.empty() && st_.inFlight() < cfg_.maxBatch) ||
        (st_.haveDeadlines && c > st_.deadlines.min() + kDeadlineSlack))
        return c;
    // Otherwise the next cycle runs exactly the segment advanceUntil
    // would, minus the sync target: a split there changes nothing the
    // fleet reads.  Exact mode runs the same steps one per cycle, with
    // nothing visible between them.
    double scale = 1.0;
    Seconds edge = std::numeric_limits<Seconds>::infinity();
    if (!slowdowns_.empty()) {
        scale = slowdownScaleAt(c);
        edge = nextSlowdownEdge(c);
    }
    return exec_->peekSegmentLastStep(st_, std::min(arrival, edge),
                                      cfg_.macroHorizonCap, scale);
}

void
FleetNode::checkLazy(Seconds at, Seconds key) const
{
    fatal_if(at + kTimeSlack < key, "fleet node ", id_,
             ": router-visible change at ", at,
             " precedes its lazy-sync key ", key);
}

void
FleetNode::advanceUntil(Seconds target, bool stop_on_outcome,
                        Seconds key)
{
    if (!up_)
        return;
    while (busy() && exec_->clock() + kTimeSlack < target) {
        const std::size_t before = served_.size();
        // Laziness guard: whatever this cycle changes before decoding
        // happens at its start; a retirement in the decode segment at
        // the start of its last step (within half a step).
        const Seconds start = exec_->clock();
        const Visible seen = visible();

        pullArrivals();
        exec_->pumpEvents(st_);

        if (st_.queue.empty() && !st_.hasInFlight()) {
            // Idle until the next dispatched arrival.  busy() above
            // guarantees pending_ is non-empty here, and pullArrivals
            // left only strictly-future arrivals.
            exec_->idleTo(pending_.front().req.arrival);
            pullArrivals();
            exec_->pumpEvents(st_);
        }

        // Gray-failure latch: pick the slowdown scale for this cycle
        // from the post-idle-jump clock.  A zero-window node never
        // touches the executor (setSpeedScale(1.0) included), keeping
        // the legacy fast path and bit-identity untouched.  The decode
        // segment and the gated sleep stop at the next window edge, so
        // the next cycle re-latches at the step that crosses it — the
        // step the exact loop re-latches at — wherever the fleet
        // happens to split the run.
        Seconds edge = std::numeric_limits<Seconds>::infinity();
        if (!slowdowns_.empty()) {
            exec_->setSpeedScale(slowdownScaleAt(exec_->clock()));
            edge = nextSlowdownEdge(exec_->clock());
        }

        if (st_.haveDeadlines)
            exec_->shedExpiredQueued(st_);

        exec_->beginCycle();
        exec_->admit(st_, *scheduler_);

        if (!st_.hasInFlight()) {
            if (visible() != seen)
                checkLazy(start, key);
            if (st_.queue.empty()) {
                // Everything drained this cycle (e.g. expired-queue
                // shed); re-evaluate busy() at the top.
                if (stop_on_outcome && served_.size() > before)
                    return;
                continue;
            }
            // Queue fully gated (retry backoff / shrunken KV): sleep
            // to the next wake-up, never past the sync target or the
            // next window edge (one closer than the slack cannot be
            // slept to; the next cycle's latch is then already right).
            Seconds bound = std::min(nextPendingArrival(), target);
            if (edge > exec_->clock() + kTimeSlack)
                bound = std::min(bound, edge);
            if (bound <= exec_->clock() + kTimeSlack)
                return; // at the target; the driver re-syncs
            exec_->sleepUntilWake(st_, bound);
            if (stop_on_outcome && served_.size() > before)
                return;
            continue;
        }

        exec_->prefillStep(st_);
        if (st_.haveDeadlines)
            exec_->abortExpiredPrefills(st_);
        const Visible pre = visible();
        if (pre != seen)
            checkLazy(start, key);
        if (!st_.active.empty()) {
            if (cfg_.exactSteps)
                exec_->decodeStep(st_);
            else
                exec_->decodeSteps(
                    st_,
                    std::min({nextPendingArrival(), target, edge}),
                    cfg_.macroHorizonCap);
            if (visible() != pre)
                checkLazy(exec_->clock() - 0.5 * exec_->lastStepDt(),
                          key);
        }
        if (stop_on_outcome && served_.size() > before)
            return;
    }
}

bool
FleetNode::cancel(std::int64_t local)
{
    if (!up_)
        return false;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->local == local) {
            // A pending leg vanishes without a record, so no drain
            // will ever consume its mapping.
            gidOfLocal_.erase(local);
            pending_.erase(it);
            return true;
        }
    }
    return exec_->cancelByTraceIndex(st_, local);
}

void
FleetNode::crash()
{
    panic_if(!up_, "double crash of fleet node ", id_);
    const auto &acc = exec_->accumulators();
    life_.energy += acc.energy;
    life_.busy += acc.busy;
    life_.generatedTokens += acc.generatedTokens;
    ++life_.crashes;
    up_ = false;
    pending_.clear();
    // Resident records (cancel echoes retired since the last drain)
    // still need their local->gid mappings when the driver eventually
    // drains them; every other mapping on this incarnation — pending
    // or in flight — dies with the node (the driver fails those legs
    // over).
    std::unordered_map<std::int64_t, std::int64_t> keep;
    for (const auto &rec : served_) {
        const auto it = gidOfLocal_.find(rec.traceIndex);
        if (it != gidOfLocal_.end())
            keep.insert(*it);
    }
    gidOfLocal_.swap(keep);
    exec_->setJournal(nullptr);
    journal_ = engine::Journal();
    exec_.reset();
    st_ = engine::ServingState();
}

void
FleetNode::reboot()
{
    panic_if(up_, "reboot of a live fleet node ", id_);
    ++incarnation_;
    st_ = engine::ServingState();
    exec_ = std::make_unique<engine::BatchExecutor>(
        engine_, nullptr, cfg_, faults_, served_);
    up_ = true;
    openJournal();
}

const engine::ServedRequest &
FleetNode::servedAt(std::size_t abs) const
{
    panic_if(abs < servedBase_ || abs - servedBase_ >= served_.size(),
             "fleet node ", id_, ": served index ", abs,
             " outside resident window [", servedBase_, ", ",
             servedBase_ + served_.size(), ")");
    return served_[abs - servedBase_];
}

FleetNode::OutcomeCounts
FleetNode::outcomeCounts() const
{
    OutcomeCounts c = releasedCounts_;
    for (const auto &rec : served_) {
        switch (rec.outcome) {
        case engine::RequestOutcome::Completed:
            ++c.served;
            break;
        case engine::RequestOutcome::Cancelled:
            ++c.cancelled;
            break;
        default:
            ++c.timedOut;
            break;
        }
    }
    return c;
}

void
FleetNode::compactServed(std::size_t upto_abs)
{
    if (upto_abs <= servedBase_)
        return;
    panic_if(upto_abs > servedEnd(), "fleet node ", id_,
             ": compaction past the last record (", upto_abs, " > ",
             servedEnd(), ")");
    const std::size_t n = upto_abs - servedBase_;
    for (std::size_t k = 0; k < n; ++k) {
        switch (served_[k].outcome) {
        case engine::RequestOutcome::Completed:
            ++releasedCounts_.served;
            break;
        case engine::RequestOutcome::Cancelled:
            ++releasedCounts_.cancelled;
            break;
        default:
            ++releasedCounts_.timedOut;
            break;
        }
    }
    served_.erase(served_.begin(),
                  served_.begin() + static_cast<std::ptrdiff_t>(n));
    servedBase_ = upto_abs;
}

std::int64_t
FleetNode::consumeLocal(std::int64_t local)
{
    const auto it = gidOfLocal_.find(local);
    panic_if(it == gidOfLocal_.end(), "fleet node ", id_,
             ": unknown local index ", local);
    const std::int64_t gid = it->second;
    gidOfLocal_.erase(it);
    return gid;
}

void
FleetNode::dropLocal(std::int64_t local)
{
    gidOfLocal_.erase(local);
}

NodeTotals
FleetNode::totals() const
{
    NodeTotals t = life_;
    if (exec_) {
        const auto &acc = exec_->accumulators();
        t.energy += acc.energy;
        t.busy += acc.busy;
        t.generatedTokens += acc.generatedTokens;
    }
    return t;
}

void
FleetNode::serialize(ByteWriter &w) const
{
    w.u8(up_ ? 1 : 0);
    w.u64(incarnation_);
    w.i64(submitted_);
    std::vector<std::pair<std::int64_t, std::int64_t>> locals(
        gidOfLocal_.begin(), gidOfLocal_.end());
    std::sort(locals.begin(), locals.end());
    w.u64(locals.size());
    for (const auto &[local, gid] : locals) {
        w.i64(local);
        w.i64(gid);
    }
    w.u64(pending_.size());
    for (const Pending &p : pending_) {
        engine::serialize(w, p.req);
        w.i64(p.local);
    }
    w.f64(life_.energy);
    w.f64(life_.busy);
    w.f64(life_.generatedTokens);
    w.u64(life_.crashes);
    w.u64(servedBase_);
    w.u64(releasedCounts_.served);
    w.u64(releasedCounts_.timedOut);
    w.u64(releasedCounts_.cancelled);
    w.u64(served_.size());
    for (const auto &rec : served_)
        engine::serialize(w, rec);
    if (up_) {
        scheduler_->serialize(w);
        st_.serialize(w);
        exec_->serialize(w);
    }
}

void
FleetNode::restore(ByteReader &r, std::uint64_t event_mark,
                   bool verify_tail)
{
    up_ = r.u8() != 0;
    incarnation_ = r.u64();
    submitted_ = r.i64();
    gidOfLocal_.clear();
    const std::uint64_t nlocals = r.u64();
    for (std::uint64_t i = 0; i < nlocals; ++i) {
        const std::int64_t local = r.i64();
        gidOfLocal_.emplace(local, r.i64());
    }
    pending_.clear();
    const std::uint64_t npending = r.u64();
    for (std::uint64_t i = 0; i < npending; ++i) {
        Pending p;
        engine::restore(r, p.req);
        p.local = r.i64();
        pending_.push_back(std::move(p));
    }
    life_.energy = r.f64();
    life_.busy = r.f64();
    life_.generatedTokens = r.f64();
    life_.crashes = r.u64();
    servedBase_ = static_cast<std::size_t>(r.u64());
    releasedCounts_.served = static_cast<std::size_t>(r.u64());
    releasedCounts_.timedOut = static_cast<std::size_t>(r.u64());
    releasedCounts_.cancelled = static_cast<std::size_t>(r.u64());
    served_.clear();
    served_.resize(r.u64());
    for (auto &rec : served_)
        engine::restore(r, rec);
    if (up_) {
        scheduler_->verifyMatches(r);
        st_ = engine::ServingState();
        st_.restore(r);
        exec_ = std::make_unique<engine::BatchExecutor>(
            engine_, nullptr, cfg_, faults_, served_);
        exec_->restore(r);
        if (!journalDir_.empty()) {
            journal_ = engine::Journal::resumeAt(
                journalPath(), journalFingerprint(), event_mark,
                verify_tail);
            exec_->setJournal(&journal_);
        }
    } else {
        // Down at checkpoint time: no executor, no journal.  A later
        // reboot starts the next incarnation fresh; its journal file
        // is recreated and deterministically re-emitted.
        journal_ = engine::Journal();
        exec_.reset();
        st_ = engine::ServingState();
    }
}

Seconds
FleetNode::estimateServiceTime(const engine::InferenceEngine &engine,
                               int in_flight,
                               const engine::ServerRequest &r)
{
    const int batch = std::max(1, in_flight + 1);
    const Tokens mid_ctx = r.inputTokens + r.outputTokens / 2;
    return engine.prefillLatency(r.inputTokens) +
        static_cast<double>(r.outputTokens) *
        engine.decodeStepLatency(mid_ctx, batch);
}

} // namespace fleet
} // namespace edgereason
