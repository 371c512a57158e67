#include "fleet/node.hh"

#include <algorithm>
#include <filesystem>
#include <limits>

#include "common/logging.hh"
#include "model/calibration.hh"
#include "model/zoo.hh"

namespace edgereason {
namespace fleet {

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
    // (resumeJournal() reopens them via Journal::resumeAt).
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

Seconds
FleetNode::nextArrival() const
{
    return pending_.empty()
        ? std::numeric_limits<Seconds>::infinity()
        : pending_.front().req.arrival;
}

engine::TrackedRequest
FleetNode::popArrival()
{
    engine::TrackedRequest t;
    t.req = pending_.front().req;
    t.traceIndex = pending_.front().local;
    pending_.pop_front();
    return t;
}

bool
FleetNode::slowdownAt(Seconds t, double &scale, Seconds &edge) const
{
    if (slowdowns_.empty())
        return false;
    // Windows are sorted and non-overlapping.
    scale = 1.0;
    edge = std::numeric_limits<Seconds>::infinity();
    for (const SlowdownWindow &w : slowdowns_) {
        if (t < w.start) {
            edge = w.start;
            break;
        }
        if (t < w.start + w.duration) {
            scale = w.multiplier;
            edge = w.start + w.duration;
            break;
        }
    }
    return true;
}

void
FleetNode::changedSince(Seconds at)
{
    const Visible now = visible();
    fatal_if(now != lazySeen_ && at + kTimeSlack < lazyKey_,
             "fleet node ", id_, ": router-visible change at ", at,
             " precedes its lazy-sync key ", lazyKey_);
    lazySeen_ = now;
}

Seconds
FleetNode::nextVisibleChange() const
{
    return busy() ? exec_->peekCycle(st_, *this)
                  : std::numeric_limits<Seconds>::infinity();
}

void
FleetNode::advanceUntil(Seconds target, bool stop_on_outcome,
                        Seconds key)
{
    if (!up_)
        return;
    lazyKey_ = key;
    while (busy() && exec_->clock() + kTimeSlack < target) {
        const std::size_t before = served_.size();
        lazySeen_ = visible();
        if (!exec_->runCycle(st_, *scheduler_, *this, target))
            return; // at the target; the driver re-syncs
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

template <class Ar>
void
FleetNode::io(Ar &a)
{
    a.flag(up_);
    a.u64(incarnation_);
    a.i64(submitted_);
    // The local->gid map is a hash map: it goes out sorted by local.
    std::vector<std::pair<std::int64_t, std::int64_t>> locals;
    if constexpr (!Ar::kReading) {
        locals.assign(gidOfLocal_.begin(), gidOfLocal_.end());
        std::sort(locals.begin(), locals.end());
    }
    a.seq(locals, 16, [&](std::pair<std::int64_t, std::int64_t> &p) {
        a.i64(p.first);
        a.i64(p.second);
    });
    a.seq(pending_, engine::kServerRequestMinBytes + 8, [&](Pending &p) {
        engine::io(a, p.req);
        a.i64(p.local);
    });
    a.f64(life_.energy);
    a.f64(life_.busy);
    a.f64(life_.generatedTokens);
    a.u64(life_.crashes);
    a.u64(servedBase_);
    a.u64(releasedCounts_.served);
    a.u64(releasedCounts_.timedOut);
    a.u64(releasedCounts_.cancelled);
    a.seq(served_, engine::kServedRequestMinBytes,
          [&](engine::ServedRequest &rec) { engine::io(a, rec); });
    if constexpr (Ar::kReading) {
        gidOfLocal_.clear();
        gidOfLocal_.insert(locals.begin(), locals.end());
        // A node down at checkpoint time has no executor and no
        // journal; a later reboot starts the next incarnation fresh,
        // its journal recreated and deterministically re-emitted.
        journal_ = engine::Journal();
        st_ = engine::ServingState();
        exec_.reset();
        if (up_) {
            scheduler_->verifyMatches(a);
            exec_ = std::make_unique<engine::BatchExecutor>(
                engine_, nullptr, cfg_, faults_, served_);
        }
    } else if (up_) {
        scheduler_->serialize(a);
    }
    if (up_) {
        st_.io(a);
        exec_->io(a);
    }
}

template void FleetNode::io(ByteWriter &);
template void FleetNode::io(ByteReader &);

void
FleetNode::resumeJournal(std::uint64_t event_mark, bool verify_tail)
{
    if (!up_ || journalDir_.empty())
        return;
    journal_ = engine::Journal::resumeAt(
        journalPath(), journalFingerprint(), event_mark, verify_tail);
    exec_->setJournal(&journal_);
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
