#include "engine/executor.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "engine/journal.hh"

namespace edgereason {
namespace engine {

template <class Ar>
void
ServingState::io(Ar &a)
{
    // Writing materializes the queue, prefilling and active records in
    // container order; reading adopts them in that order and rebuilds
    // every index.
    std::vector<TrackedRequest> lists[3];
    if constexpr (!Ar::kReading) {
        for (std::size_t i = 0; i < queue.size(); ++i)
            lists[0].push_back(pool.materialize(queue[i]));
        for (const ReqId id : prefilling)
            lists[1].push_back(pool.materialize(id));
        for (const ReqId id : active)
            lists[2].push_back(pool.materialize(id));
    }
    for (auto &list : lists)
        a.seq(list, kTrackedRequestMinBytes,
              [&](TrackedRequest &t) { engine::io(a, t); });
    a.flag(haveDeadlines);
    a.u64(peakQueueDepth);
    if constexpr (Ar::kReading) {
        const std::size_t peak = peakQueueDepth;
        pool.clear();
        queue.clear();
        prefilling.clear();
        active.clear();
        retryGates.clear();
        deadlines.clear();
        queuedDeadlineGates.clear();
        for (const TrackedRequest &t : lists[0])
            enqueueNew(t);
        for (int k = 1; k < 3; ++k) {
            std::vector<ReqId> &ids = k == 1 ? prefilling : active;
            for (const TrackedRequest &t : lists[k]) {
                const ReqId id = pool.adopt(t);
                if (pool.hasDeadline(id))
                    deadlines.insert(pool.absoluteDeadline(id));
                ids.push_back(id);
            }
        }
        peakQueueDepth = peak;
    }
}

template void ServingState::io(ByteWriter &);
template void ServingState::io(ByteReader &);

BatchExecutor::BatchExecutor(const InferenceEngine &engine,
                             const InferenceEngine *fallback,
                             const ServerConfig &config,
                             const FaultPlan &faults,
                             std::vector<ServedRequest> &served)
    : engine_(engine), fallback_(fallback), config_(config),
      faults_(faults), served_(served),
      thermal_(faults.config().thermalSpec)
{
    faulty_ = faults_.active();
    thermalOn_ = faulty_ && faults_.config().thermal;
    fatal_if(faulty_ && config_.degrade.mode == DegradeMode::Fallback &&
                 fallback_ == nullptr,
             "Fallback degrade mode needs setFallbackEngine()");

    kvBudget_ = config_.kvWatermark *
        static_cast<double>(engine_.kvBudget());
    kvPerToken_ = engine_.spec().kvBytesPerToken();
    idleW_ = engine_.calib().power.idle;

    // Under an active fault plan, KV admission switches from the
    // legacy scalar reservation to a real paged KvCache so that
    // shrink events exercise the block-level preemption hook
    // (append() returning false).  A "ballast" sequence models the
    // unavailable fraction of the pool during a shrink window.  The
    // cross-request prefix index likewise needs physical blocks to
    // share, so enabling it forces paged accounting even on
    // zero-fault runs.
    if (faulty_ || config_.prefixCache.enabled) {
        paged_ = std::make_unique<KvCache>(
            std::max<Bytes>(static_cast<Bytes>(kvBudget_), 1),
            engine_.spec(), 16, config_.prefixCache);
        ballast_ = paged_->createSequence();
    }
}

void
BatchExecutor::syncPrefixEvictions()
{
    // Mirror the pool's eviction counter into the accumulator block at
    // every site that can evict (reservation appends, ballast growth)
    // so the journal's RunEnd snapshot — the replay source of truth —
    // always carries the final value.
    if (paged_ && paged_->prefixEnabled())
        acc_.prefixEvictions = paged_->prefixStats().evictions;
}

double
BatchExecutor::speedNow() const
{
    return thermalOn_ ? thermal_.speedFactor() : 1.0;
}

// Advance the clock over a busy work quantum whose MAXN-equivalent
// duration is base_dt at MAXN-equivalent power maxn_power.  With
// thermals off this is the exact legacy arithmetic; with thermals
// on, the governed mode stretches time and derates power, and the
// RC model integrates the heat.  @return the wall time spent.
Seconds
BatchExecutor::advanceWork(Seconds base_dt, Watts maxn_power)
{
    // Gray-failure stretch (fleet SlowdownWindow): the work quantum
    // simply takes longer.  Guarded so the 1.0 path stays the exact
    // legacy arithmetic, bit for bit.
    if (speedScale_ != 1.0)
        base_dt *= speedScale_;
    if (!thermalOn_) {
        acc_.clock += base_dt;
        acc_.busy += base_dt;
        acc_.energy += maxn_power * base_dt;
        return base_dt;
    }
    const double s = thermal_.speedFactor();
    const Seconds dt = base_dt / s;
    const auto sample = thermal_.step(maxn_power, dt, idleW_);
    acc_.clock += dt;
    acc_.busy += dt;
    acc_.energy += sample.power * dt;
    if (s < 1.0)
        acc_.throttledBusy += dt;
    return dt;
}

void
BatchExecutor::idleTo(Seconds t)
{
    // The thermal mass cools over arrival gaps, retry backoff, and
    // brownout recovery; integrate in bounded steps so the governor
    // can recover modes on the way.
    if (thermalOn_) {
        Seconds left = t - acc_.clock;
        while (left > kTimeSlack) {
            const Seconds d = std::min<Seconds>(left, 10.0);
            thermal_.step(idleW_, d, idleW_);
            left -= d;
        }
    }
    acc_.clock = t; // exact assignment keeps idle jumps bit-stable
}

void
BatchExecutor::record(ServingState &st, ReqId id,
                      RequestOutcome outcome)
{
    // Donate the fully prefilled prompt blocks to the prefix index
    // before the KV sequence is released (no-op when the index is off,
    // the workload supplied no hashes, or prefill never finished).
    maybeInsertPrefix(st, id);
    releaseKv(st, id);
    ServedRequest s;
    s.outcome = outcome;
    s.queueDelay = st.pool.prefillStart(id) - st.pool.arrival(id);
    s.serviceTime = acc_.clock - st.pool.prefillStart(id);
    s.generated = st.pool.generated(id);
    s.degraded = st.pool.degraded(id);
    s.cachedPrefix = st.pool.cachedPrefix(id);
    s.firstToken = st.pool.prefillEnd(id);
    retire(st, id, std::move(s));
}

void
BatchExecutor::shedWaiting(ServingState &st, ReqId id,
                           RequestOutcome outcome)
{
    ServedRequest s;
    s.outcome = outcome;
    s.queueDelay = acc_.clock - st.pool.arrival(id);
    retire(st, id, std::move(s));
}

void
BatchExecutor::retire(ServingState &st, ReqId id, ServedRequest s)
{
    s.request.arrival = st.pool.arrival(id);
    s.request.inputTokens = st.pool.inputTokens(id);
    s.request.outputTokens = st.pool.outputTokens(id);
    s.request.priority = st.pool.priority(id);
    s.request.deadline = st.pool.deadline(id);
    s.request.sessionId = st.pool.sessionId(id);
    s.finish = acc_.clock;
    s.preemptions = st.pool.preemptions(id);
    s.traceIndex = st.pool.traceIndex(id);
    st.pool.transition(id, RequestState::Done);
    if (journal_)
        journal_->emitRetire(s);
    served_.push_back(std::move(s));
    st.unindexDeadline(id);
    st.pool.release(id);
}

void
BatchExecutor::releaseKv(const ServingState &st, ReqId id)
{
    if (paged_) {
        paged_->release(st.pool.seq(id));
    } else {
        acc_.committedKv -= kvPerToken_ *
            static_cast<double>(st.pool.inputTokens(id) +
                                st.pool.effOut(id));
    }
}

// Reserve a request's full KV footprint, first attaching whatever
// prompt prefix the index already holds (at most input - 1 tokens, so
// at least one prompt token is always recomputed, vLLM-style).
// @return success; on success @p cached holds the attached prefix.
bool
BatchExecutor::reserveKv(Tokens input, Tokens eff_out,
                         const std::vector<std::uint64_t> &hashes,
                         SeqId &seq, Tokens &cached)
{
    cached = 0;
    if (paged_) {
        seq = paged_->createSequence();
        if (paged_->prefixEnabled() && !hashes.empty())
            cached = paged_->acquirePrefix(seq, hashes, input - 1);
        const bool ok = paged_->append(seq, input + eff_out - cached);
        syncPrefixEvictions();
        if (!ok) {
            paged_->release(seq);
            seq = 0;
            cached = 0;
            return false;
        }
        return true;
    }
    const double need = kvPerToken_ *
        static_cast<double>(input + eff_out);
    if (acc_.committedKv + need > kvBudget_)
        return false;
    acc_.committedKv += need;
    return true;
}

void
BatchExecutor::maybeInsertPrefix(ServingState &st, ReqId id)
{
    if (!paged_ || !paged_->prefixEnabled())
        return;
    const auto &hashes = st.pool.prefixHashes(id);
    if (hashes.empty())
        return;
    // Only a fully prefilled prompt has honest KV for every hashed
    // block (an aborted prefill's tail blocks were never computed).
    if (st.pool.prefillDone(id) < st.pool.inputTokens(id))
        return;
    // Only whole blocks of *prompt* tokens are content-addressable: a
    // tail block topped up by decode output must never be indexed
    // under a prompt hash.
    const Tokens bt = paged_->blockTokens();
    const std::size_t n = std::min(
        hashes.size(),
        static_cast<std::size_t>(st.pool.inputTokens(id) / bt));
    if (n == 0)
        return;
    // Cost-aware eviction score of block i: the prefill seconds needed
    // to rebuild it given blocks [0, i) — priced off the primary
    // engine, so scores are stable across degrade episodes.  The score
    // depends on the depth alone, so one table grown to the deepest
    // donated prompt serves every retire.
    while (rebuildCost_.size() < n)
        rebuildCost_.push_back(engine_.prefillSuffixLatency(
            static_cast<Tokens>(rebuildCost_.size()) * bt, bt));
    paged_->insertPrefix(st.pool.seq(id),
                         std::span(hashes).first(n),
                         std::span(rebuildCost_).first(n));
}

// Evict one in-flight request for recompute-on-resume.  Victim
// policy: lowest priority first, then the youngest request (least
// sunk work to discard); prefilling requests win ties over active
// ones.  Sheds the victim once its retries are exhausted.
// @return false if nothing is preemptible.
bool
BatchExecutor::preemptOne(ServingState &st)
{
    constexpr ReqId kNone = static_cast<ReqId>(-1);
    bool from_prefilling = false;
    std::size_t idx = 0;
    ReqId best = kNone;
    const auto consider = [&](ReqId id, bool pre, std::size_t i) {
        const bool better = best == kNone ||
            st.pool.priority(id) < st.pool.priority(best) ||
            (st.pool.priority(id) == st.pool.priority(best) &&
             st.pool.arrival(id) > st.pool.arrival(best));
        if (better) {
            best = id;
            from_prefilling = pre;
            idx = i;
        }
    };
    for (std::size_t i = 0; i < st.prefilling.size(); ++i)
        consider(st.prefilling[i], true, i);
    for (std::size_t i = 0; i < st.active.size(); ++i)
        consider(st.active[i], false, i);
    if (best == kNone)
        return false;
    // Shifting erase keeps admission order in both containers (the
    // front prefill owns the current chunk; decode scans sum in
    // container order).
    if (from_prefilling)
        st.prefilling.erase(st.prefilling.begin() +
                            static_cast<std::ptrdiff_t>(idx));
    else
        st.active.erase(st.active.begin() +
                        static_cast<std::ptrdiff_t>(idx));
    releaseKv(st, best);
    st.pool.transition(best, RequestState::Preempted);
    st.pool.bumpPreemptions(best);
    ++acc_.preemptions;
    if (st.pool.preemptions(best) > config_.degrade.maxRetries) {
        if (journal_)
            journal_->emitPreempt(st.pool.materialize(best), false,
                                  st.queue.size(), acc_.preemptions);
        shedWaiting(st, best);
    } else {
        st.pool.setNotBefore(
            best, acc_.clock + config_.degrade.retryBackoff *
                std::ldexp(1.0, st.pool.preemptions(best) - 1));
        st.requeue(best);
        if (journal_)
            journal_->emitPreempt(st.pool.materialize(best), true,
                                  st.queue.size(), acc_.preemptions);
    }
    return true;
}

void
BatchExecutor::applyEvent(const FaultEvent &e, ServingState &st)
{
    switch (e.kind) {
      case FaultKind::Brownout: {
        // The SoC stalls: no work retires, idle rails keep
        // drawing, in-flight requests hold their KV and wait.
        acc_.energy += idleW_ * e.duration;
        idleTo(acc_.clock + e.duration);
        break;
      }
      case FaultKind::KvShrink: {
        if (!paged_)
            break;
        Tokens want = static_cast<Tokens>(
            e.magnitude *
            static_cast<double>(paged_->tokenCapacity()));
        want = want / paged_->blockTokens() * paged_->blockTokens();
        while (paged_->sequenceTokens(ballast_) < want) {
            const Tokens missing =
                want - paged_->sequenceTokens(ballast_);
            if (paged_->append(ballast_, missing))
                break; // ballast resident, pool shrunk
            if (!preemptOne(st)) {
                // Nothing left to evict: occupy what remains and
                // run in the (partially) smaller pool.
                paged_->append(ballast_,
                               std::min(missing,
                                        paged_->freeTokenCapacity()));
                break;
            }
        }
        syncPrefixEvictions(); // ballast growth can reclaim index pages
        break;
      }
      case FaultKind::KvRestore:
        if (!paged_)
            break;
        paged_->release(ballast_);
        ballast_ = paged_->createSequence();
        break;
    }
    if (journal_)
        journal_->emitFault(e, acc_.clock);
}

void
BatchExecutor::pullArrivals(ServingState &st, ArrivalSource &src)
{
    while (src.nextArrival() <= acc_.clock + kTimeSlack) {
        const TrackedRequest t = src.popArrival();
        st.haveDeadlines = st.haveDeadlines || t.req.deadline > 0.0;
        st.enqueueNew(t);
        if (journal_)
            journal_->emitArrival(t, st.queue.size());
    }
}

void
BatchExecutor::pumpEvents(ServingState &st)
{
    const auto &events = faults_.events();
    while (acc_.nextEvent < events.size() &&
           events[acc_.nextEvent].time <= acc_.clock + kTimeSlack) {
        applyEvent(events[acc_.nextEvent], st);
        ++acc_.nextEvent;
    }
}

void
BatchExecutor::shedExpiredQueued(ServingState &st)
{
    // Deadline index guard: the min is over every live deadline (a
    // superset of the queued ones), so a future min proves no queued
    // entry has expired and the scan below would be a no-op.
    if (acc_.clock <= st.deadlines.min() + kDeadlineSlack)
        return;
    for (std::size_t i = 0; i < st.queue.size();) {
        const ReqId id = st.queue[i];
        if (st.pool.deadlineExpired(id, acc_.clock)) {
            st.onLeaveQueue(id);
            st.queue.eraseAt(i);
            shedWaiting(st, id);
        } else {
            ++i;
        }
    }
}

void
BatchExecutor::admit(ServingState &st, const Scheduler &sched)
{
    // Reserve KV and start prefilling while capacity allows
    // (prefilling sequences count against the batch cap).
    while (!st.queue.empty() && st.inFlight() < config_.maxBatch) {
        const std::size_t idx =
            sched.pickNext(st.pool, st.queue, acc_.clock);
        if (idx == st.queue.size())
            break; // every queued request is backing off

        const ReqId id = st.queue[idx];
        Tokens eff_out = st.pool.outputTokens(id);
        bool degraded = false;
        if (degradedNow_ &&
            config_.degrade.mode == DegradeMode::Budget) {
            eff_out = config_.degrade.budget.apply(eff_out);
            degraded = eff_out != st.pool.outputTokens(id);
        }

        // Deadline admission control, part 2: refuse work that
        // cannot meet its deadline even under an optimistic
        // (no-further-queueing) service estimate.  With the prefix
        // index on, the prefill estimate starts past the currently
        // matchable prefix (a peek — recency state is untouched until
        // the request actually reserves).
        if (st.pool.hasDeadline(id)) {
            const double s = speedNow();
            const int est_batch = st.inFlight() + 1;
            const Tokens input = st.pool.inputTokens(id);
            const Tokens mid_ctx = input + eff_out / 2;
            Tokens est_cached = 0;
            if (paged_ && paged_->prefixEnabled() &&
                !st.pool.prefixHashes(id).empty())
                est_cached = paged_->peekPrefix(st.pool.prefixHashes(id),
                                               input - 1);
            const Seconds est_prefill = costEng_->prefillSuffixLatency(
                est_cached, input - est_cached);
            const Seconds est_step = costEng_->decodeStepLatency(
                stepBucket(mid_ctx), est_batch);
            const Seconds est_finish = acc_.clock + est_prefill / s +
                static_cast<double>(eff_out) * est_step / s;
            if (est_finish >
                st.pool.arrival(id) + st.pool.deadline(id) +
                    kDeadlineSlack) {
                st.onLeaveQueue(id);
                st.queue.eraseAt(idx);
                shedWaiting(st, id);
                continue;
            }
        }

        SeqId seq = 0;
        Tokens cached = 0;
        if (!reserveKv(st.pool.inputTokens(id), eff_out,
                       st.pool.prefixHashes(id), seq, cached)) {
            const bool ballast_held = paged_ &&
                paged_->sequenceTokens(ballast_) > 0;
            fatal_if(!st.hasInFlight() && !ballast_held,
                     "request (", st.pool.inputTokens(id), "+", eff_out,
                     " tokens) can never fit the KV budget");
            break; // wait for completions (or a KV restore)
        }

        st.onLeaveQueue(id);
        st.pool.resetForAdmission(id, acc_.clock, eff_out, degraded,
                                  seq, cached);
        if (paged_ && paged_->prefixEnabled()) {
            const Tokens input = st.pool.inputTokens(id);
            acc_.admittedPromptTokens += static_cast<double>(input);
            acc_.cachedPrefixTokens += static_cast<double>(cached);
            // Prefill seconds avoided: full-prompt cost minus the
            // suffix cost the prefill path will actually charge
            // (prefillSuffixLatency over the cached prefix).
            if (cached > 0)
                acc_.prefillSecondsSaved +=
                    costEng_->prefillLatency(input) -
                    costEng_->prefillSuffixLatency(cached, input - cached);
        }
        if (journal_)
            journal_->emitAdmit(st.pool.materialize(id), acc_.clock);
        st.prefilling.push_back(id);
        st.queue.eraseAt(idx);
    }
}

void
BatchExecutor::prefillStep(ServingState &st)
{
    if (st.prefilling.empty())
        return;
    const ReqId id = st.prefilling.front();
    const Tokens remaining =
        st.pool.inputTokens(id) - st.pool.prefillDone(id);
    const Tokens chunk = config_.prefillChunk > 0
        ? std::min<Tokens>(config_.prefillChunk, remaining)
        : remaining;
    // A chunk is priced as a suffix prefill over the already-cached
    // prefix, so the attention-over-prefix work of later chunks is
    // accounted for.  A cached prefix (prefillDone starts past zero)
    // takes the same suffix pricing even when chunking is off — that
    // is precisely the prefix-hit discount.  An unchunked, uncached
    // prefill is the zero-prefix case: exactly the full prefill.
    const Seconds pf = costEng_->prefillSuffixLatency(
        st.pool.prefillDone(id), chunk);
    const Watts pw = costEng_->soc().power().prefill(
        costEng_->calib().power, st.pool.inputTokens(id));
    advanceWork(pf, pw);
    if (journal_)
        journal_->emitStep(0, 1, acc_);
    st.pool.setPrefillDone(id, st.pool.prefillDone(id) + chunk);
    if (st.pool.prefillDone(id) >= st.pool.inputTokens(id)) {
        st.pool.setPrefillEnd(id, acc_.clock); // TTFT marker
        st.pool.transition(id, RequestState::Decoding);
        st.active.push_back(id);
        st.prefilling.erase(st.prefilling.begin());
    }
}

void
BatchExecutor::abortExpiredPrefills(ServingState &st)
{
    // Same superset-min guard as shedExpiredQueued: prefilling
    // deadlines are covered by the live-deadline index.
    if (acc_.clock <= st.deadlines.min() + kDeadlineSlack)
        return;
    for (std::size_t i = 0; i < st.prefilling.size();) {
        const ReqId id = st.prefilling[i];
        if (st.pool.deadlineExpired(id, acc_.clock)) {
            record(st, id, RequestOutcome::TimedOut);
            st.prefilling.erase(st.prefilling.begin() +
                                static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

void
BatchExecutor::decodeStep(ServingState &st)
{
    // One decode step for the whole batch.
    const int batch = static_cast<int>(st.active.size());
    double ctx_sum = 0.0;
    double gen_sum = 0.0;
    for (const ReqId id : st.active) {
        ctx_sum += static_cast<double>(st.pool.inputTokens(id) +
                                       st.pool.generated(id));
        gen_sum += static_cast<double>(st.pool.generated(id));
    }
    const Tokens avg_ctx = static_cast<Tokens>(
        std::llround(ctx_sum / batch));
    const Seconds base_dt =
        costEng_->decodeStepLatency(stepBucket(avg_ctx), batch);
    const Tokens avg_o = std::max<Tokens>(
        1, static_cast<Tokens>(std::llround(gen_sum / batch)) + 1);
    const Watts pw = costEng_->soc().power().decode(
        costEng_->calib().power, avg_o, batch);
    const Seconds dt = advanceWork(base_dt, pw);
    lastStepDt_ = dt;
    acc_.batchTimeWeighted += batch * dt;
    acc_.generatedTokens += batch;
    ++acc_.decodeSteps;
    ++acc_.macroSegments;
    if (journal_)
        journal_->emitStep(1, 1, acc_);

    advanceDecoded(st, 1);
}

void
BatchExecutor::advanceDecoded(ServingState &st, Tokens gained)
{
    for (std::size_t i = 0; i < st.active.size();) {
        const ReqId id = st.active[i];
        const Tokens gen = st.pool.generated(id) + gained;
        st.pool.setGenerated(id, gen);
        const bool done = gen >= st.pool.effOut(id);
        const bool expired =
            !done && st.pool.deadlineExpired(id, acc_.clock);
        if (done || expired) {
            record(st, id, done ? RequestOutcome::Completed
                                : RequestOutcome::TimedOut);
            st.active[i] = st.active.back();
            st.active.pop_back();
        } else {
            ++i;
        }
    }
}

// Macro-stepping decode (DESIGN.md §10).  The segment's per-step
// inner loop performs the *same arithmetic in the same order* as
// decodeStep() — that, not a closed-form aggregate, is the exactness
// contract that keeps every accumulator bit-identical to the exact
// loop.  What the segment eliminates is the per-token overhead: the
// O(batch) container rescans (the sums advance incrementally — they
// hold integer values below 2^53, so "+= batch" is bitwise equal to
// a fresh scan), the memo lookups (refreshed only on a 64-token
// bucket crossing), the power model in its constant floor region,
// the journal record (one coalesced Step per segment), the
// retirement scan (done once at the horizon), and the whole
// admission/arrival/event machinery of the outer scheduling cycle.
namespace {

/**
 * Log partial sum: sum_{o=lo..hi} log o (== lgamma(hi + 1) -
 * lgamma(lo)), served from a lazily extended per-thread cumulative
 * table so a steady-state bucket-run costs two array reads instead
 * of two lgamma evaluations (~100ns each — a measurable slice of
 * the macro-path budget once the timing loop is down to a few adds
 * per step).  Requires 1 <= lo <= hi.
 */
double
logSumRange(Tokens lo, Tokens hi)
{
    thread_local std::vector<double> cum{0.0};
    while (cum.size() <= static_cast<std::size_t>(hi))
        cum.push_back(cum.back() +
                      std::log(static_cast<double>(cum.size())));
    return cum[static_cast<std::size_t>(hi)] -
        cum[static_cast<std::size_t>(lo - 1)];
}

/**
 * Sum of PowerModel::decode over output positions [lo, hi] at a fixed
 * batch, matching the per-element evaluation up to round-off.  Valid
 * only when finish() is the identity (MAXN scale, no quantization —
 * the caller checks): then the log-curve region collapses to a
 * log-gamma partial sum, sum log o = lgamma(hi + 1) - lgamma(lo),
 * and the floor region is a constant.  Runs straddling the floor
 * boundary or touching the envelope cap fall back to per-element
 * evaluation (at most once per segment).
 */
Watts
decodePowerSum(const hw::PowerModel &pm, const hw::PowerProfile &pp,
               Tokens lo, Tokens hi, int batch, Watts batch_term,
               Watts cap, Watts pw_floor)
{
    if (hi < lo)
        return 0.0;
    const double n = static_cast<double>(hi - lo + 1);
    if (hi < pp.decodeFloorTokens)
        return pw_floor * n;
    if (lo >= pp.decodeFloorTokens) {
        const double w_lo = pp.decodeLogAlpha *
                std::log(static_cast<double>(lo)) +
            pp.decodeLogBeta;
        const double w_hi = pp.decodeLogAlpha *
                std::log(static_cast<double>(hi)) +
            pp.decodeLogBeta;
        // The curve is monotone in log(o), so the endpoints bound it:
        // no floor max and no cap clip can bind mid-run.
        if (std::min(w_lo, w_hi) >= pp.decodeFloor &&
            std::max(w_lo, w_hi) + batch_term <= cap) {
            const double sum_log = logSumRange(lo, hi);
            return pp.decodeLogAlpha * sum_log +
                n * (pp.decodeLogBeta + batch_term);
        }
    }
    Watts sum = 0.0;
    for (Tokens o = lo; o <= hi; ++o)
        sum += o < pp.decodeFloorTokens ? pw_floor
                                        : pm.decode(pp, o, batch);
    return sum;
}

} // namespace

BatchExecutor::SegmentPlan
BatchExecutor::planSegment(const ServingState &st, Seconds bound) const
{
    constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();
    SegmentPlan p;
    p.batch = static_cast<int>(st.active.size());

    // Segment-start scan: the sums decodeStep() recomputes each step
    // (contiguous column gathers), plus the completion horizon.
    Tokens min_remaining = std::numeric_limits<Tokens>::max();
    for (const ReqId id : st.active) {
        const Tokens gen = st.pool.generated(id);
        p.ctxSum += static_cast<double>(st.pool.inputTokens(id) + gen);
        p.genSum += static_cast<double>(gen);
        min_remaining =
            std::min(min_remaining, st.pool.effOut(id) - gen);
    }

    // Event horizon.  Completions bound the step count; arrivals,
    // fault events, retry-gate openings and deadline expiries are
    // checked per step against the advancing clock (their instants are
    // fixed for the whole segment: nothing mid-segment can schedule
    // new ones).
    p.kmax = static_cast<std::uint64_t>(min_remaining);
    if (config_.macroHorizonCap > 0)
        p.kmax = std::min(p.kmax, config_.macroHorizonCap);

    // Fast-forwarding skips per-cycle admission, which is only safe
    // when admission is a provable no-op for every skipped cycle: no
    // prefill in flight, and no *eligible* queued request whose
    // clock-dependent deadline estimate admit() would re-evaluate.
    // Ineligible (gated) entries are covered by the gate stop; a
    // KV-blocked eligible entry without a deadline fails the same
    // reservation every cycle until a retirement or fault event ends
    // the segment anyway.  The gate index answers the eligibility
    // question in O(1): an eligible deadline-carrying entry exists
    // iff the smallest gate key is at or behind the clock.
    bool allow_multi = st.prefilling.empty();
    if (allow_multi && st.haveDeadlines &&
        st.inFlight() < config_.maxBatch)
        allow_multi =
            st.queuedDeadlineGates.min() > acc_.clock + kTimeSlack;
    if (!allow_multi)
        p.kmax = 1;

    const auto &events = faults_.events();
    const Seconds next_event = acc_.nextEvent < events.size()
        ? events[acc_.nextEvent].time
        : kInf;
    // A gate opening only matters while a batch slot is free.
    const Seconds next_gate =
        (!st.queue.empty() && st.inFlight() < config_.maxBatch)
            ? st.nextGateAfter(acc_.clock)
            : kInf;
    p.stop = std::min(bound, std::min(next_event, next_gate));

    // Earliest deadline the outer machinery could act on: an active
    // expiry retires at the step that crosses it, a queued expiry is
    // shed by shedExpiredQueued() at the next cycle boundary.  The
    // instant set serves the min over all live deadlines; the
    // superset (prefilling entries included) is behaviour-identical
    // because a non-empty prefill set forces kmax = 1 above, where
    // the deadline bound cannot alter any accumulator addition.
    p.dminSlack =
        (st.haveDeadlines ? st.deadlines.min() : kInf) + kDeadlineSlack;
    return p;
}

void
BatchExecutor::decodeSteps(ServingState &st, Seconds bound)
{
    const SegmentPlan plan = planSegment(st, bound);
    const int batch = plan.batch;
    double ctx_sum = plan.ctxSum;
    double gen_sum = plan.genSum;
    std::uint64_t kmax = plan.kmax;

    // The degrade latch samples the governor once per cycle
    // (runCycle); stop the segment when the governor flips so the
    // next cycle re-latches at the same step the exact loop would.
    const bool watch_latch = thermalOn_ &&
        config_.degrade.mode != DegradeMode::None;
    const bool start_throttled = thermal_.throttled();

    // Hoisted out of the per-step loop: the power model's operands.
    // Below the floor region boundary the decode draw is independent
    // of the output position, so one evaluation covers those steps.
    const auto &pm = costEng_->soc().power();
    const auto &pp = costEng_->calib().power;
    const Watts pw_floor = pm.decode(pp, 1, batch);

    std::uint64_t k = 0;
    // Fast-forward eligibility.  With thermal coupling off, every
    // timing quantity of a step is a pure function of the two batch
    // averages, which advance by exactly one token per step (integer
    // sums below 2^53 divided by the batch round identically whether
    // recomputed or incremented).  The energy integral additionally
    // needs PowerModel::finish to be the identity: MAXN scale (no
    // DVFS derating branch) and no state quantization.  Then clock /
    // busy / batch-time advance by the same per-step additions the
    // exact loop performs — same values, same order, bit-identical —
    // and only the deferred energy sum (log-gamma partial sums per
    // bucket-run) differs from sequential accumulation, within
    // ~1e-12 relative round-off (DESIGN.md §10).
    // A gray-failure speed scale forces the exact slow path: every
    // step must route through advanceWork so the stretch applies.
    const bool fast = !thermalOn_ && !pm.quantized() &&
        hw::powerModeScale(pm.powerMode()) >= 1.0 &&
        speedScale_ == 1.0;
    if (fast) {
        Tokens avg_ctx =
            static_cast<Tokens>(std::llround(ctx_sum / batch));
        Tokens avg_o = std::max<Tokens>(
            1,
            static_cast<Tokens>(std::llround(gen_sum / batch)) + 1);
        const Watts batch_term = batch > 1
            ? pp.batchLogCoef * std::log(static_cast<double>(batch))
            : 0.0;
        const Watts cap = hw::powerModeCap(pm.powerMode());
        // Latest clock that provably trips no stop check: the arrival
        // / event / gate check fires at clock >= stop - kTimeSlack,
        // the deadline check at clock > dminSlack.
        const Seconds free_lim =
            std::min(plan.stop - kTimeSlack, plan.dminSlack);
        bool stopped = false;
        while (k < kmax && !stopped) {
            // One bucket-run: constant step latency until the average
            // context crosses the next 64-token boundary.
            const Tokens b = stepBucket(avg_ctx);
            const Seconds dt = costEng_->decodeStepLatency(b, batch);
            const double bdt = batch * dt;
            const std::uint64_t n = std::min(
                kmax - k, static_cast<std::uint64_t>(b - avg_ctx + 1));
            std::uint64_t j = 0;
            while (j < n) {
                // Steps that provably cannot trip a stop run with no
                // per-step compare at all: a run is at most 64 steps,
                // so accumulated round-off in clock is orders below
                // the two-step margin kept against free_lim, and the
                // additions themselves are the exact per-step sequence
                // (same values, same order — bit-identical).
                const double room =
                    (free_lim - acc_.clock) / dt - 2.0;
                std::uint64_t n_free = 0;
                if (room >= static_cast<double>(n - j))
                    n_free = n - j;
                else if (room > 0.0)
                    n_free = static_cast<std::uint64_t>(room);
                for (std::uint64_t i = 0; i < n_free; ++i) {
                    acc_.clock += dt;
                    acc_.busy += dt;
                    acc_.batchTimeWeighted += bdt;
                }
                j += n_free;
                if (j >= n)
                    break;
                acc_.clock += dt;
                acc_.busy += dt;
                acc_.batchTimeWeighted += bdt;
                ++j;
                if (plan.stop <= acc_.clock + kTimeSlack ||
                    acc_.clock > plan.dminSlack) {
                    stopped = true;
                    break;
                }
            }
            lastStepDt_ = dt;
            acc_.energy += dt *
                decodePowerSum(pm, pp, avg_o,
                               avg_o + static_cast<Tokens>(j) - 1,
                               batch, batch_term, cap, pw_floor);
            acc_.generatedTokens += static_cast<double>(batch) *
                static_cast<double>(j);
            acc_.decodeSteps += j;
            k += j;
            avg_ctx += static_cast<Tokens>(j);
            avg_o += static_cast<Tokens>(j);
        }
    } else {
        Tokens bucket = 0; // current stepBucket (0 = none yet)
        Seconds base_dt = 0.0;
        while (true) {
            const Tokens avg_ctx = static_cast<Tokens>(
                std::llround(ctx_sum / batch));
            const Tokens b = stepBucket(avg_ctx);
            if (b != bucket) {
                bucket = b;
                base_dt = costEng_->decodeStepLatency(b, batch);
            }
            const Tokens avg_o = std::max<Tokens>(
                1,
                static_cast<Tokens>(std::llround(gen_sum / batch)) + 1);
            const Watts pw = avg_o < pp.decodeFloorTokens
                ? pw_floor
                : pm.decode(pp, avg_o, batch);
            const Seconds dt = advanceWork(base_dt, pw);
            lastStepDt_ = dt;
            acc_.batchTimeWeighted += batch * dt;
            acc_.generatedTokens += batch;
            ++acc_.decodeSteps;
            ++k;
            ctx_sum += batch;
            gen_sum += batch;

            if (k >= kmax || plan.stop <= acc_.clock + kTimeSlack ||
                acc_.clock > plan.dminSlack)
                break;
            if (watch_latch && thermal_.throttled() != start_throttled)
                break;

            // Advisory: with the latch armed, solve the RC model for the
            // step count to the next governor transition and align the
            // horizon with it.  The per-step latch check above remains
            // authoritative (power drifts with the output position, so
            // the closed form is a prediction, not a guarantee).
            if (k == 1 && watch_latch) {
                const std::uint64_t cross =
                    thermal_.stepsToThresholdCrossing(pw, dt, idleW_);
                if (cross != UINT64_MAX)
                    kmax = std::min(kmax, k + cross);
            }
        }
    }

    ++acc_.macroSegments;
    if (journal_)
        journal_->emitStep(1, static_cast<std::uint32_t>(k), acc_);

    // Retirement at the horizon: k never exceeds the earliest
    // completion, and the deadline stop breaks at the first step past
    // the earliest expiry, so retiring here visits the same requests
    // at the same clock as the per-step scan would.
    advanceDecoded(st, static_cast<Tokens>(k));
}

bool
BatchExecutor::runCycle(ServingState &st, const Scheduler &sched,
                        ArrivalSource &src, Seconds target)
{
    constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();
    const Seconds start = acc_.clock;
    pullArrivals(st, src);
    pumpEvents(st);
    if (st.queue.empty() && !st.hasInFlight() &&
        src.nextArrival() < kInf) {
        idleTo(src.nextArrival());
        pullArrivals(st, src);
        pumpEvents(st);
    }

    // Gray-failure latch, from the post-idle-jump clock.  The gated
    // sleep and the decode segment stop at the next window edge, so
    // the next cycle re-latches at the step that crosses it — the
    // step exact mode re-latches at — wherever the driver splits the
    // run.
    double scale = 1.0;
    Seconds edge = kInf;
    if (src.slowdownAt(acc_.clock, scale, edge))
        speedScale_ = scale;

    if (st.haveDeadlines)
        shedExpiredQueued(st);
    // Degrade latch: the governor is sampled once per cycle and the
    // decision holds for admission, prefill and decode.  Fallback
    // swaps the whole device's cost model (a model hot-swap serves
    // everyone from the smaller model); Budget only shrinks budgets
    // of new admissions.
    degradedNow_ = thermalOn_ &&
        config_.degrade.mode != DegradeMode::None &&
        thermal_.throttled();
    costEng_ = (degradedNow_ &&
                config_.degrade.mode == DegradeMode::Fallback)
        ? fallback_
        : &engine_;
    admit(st, sched);

    if (!st.hasInFlight()) {
        src.changedSince(start);
        if (st.queue.empty())
            return true; // drained this cycle (e.g. expired-queue shed)
        // Queue fully gated (retry backoff or a shrunken KV pool):
        // sleep to the next wake-up, never past the bound (an edge
        // closer than the slack cannot be slept to; the next cycle's
        // latch is then already right).
        Seconds bound = std::min(src.nextArrival(), target);
        if (edge > acc_.clock + kTimeSlack)
            bound = std::min(bound, edge);
        if (bound <= acc_.clock + kTimeSlack)
            return false;
        sleepUntilWake(st, bound);
        return true;
    }

    prefillStep(st);
    if (st.haveDeadlines)
        abortExpiredPrefills(st);
    src.changedSince(start);
    if (st.active.empty())
        return true;
    if (config_.exactSteps)
        decodeStep(st);
    else
        decodeSteps(st, std::min({src.nextArrival(), target, edge}));
    // A retirement in the segment happens at the start of its last
    // step (within half a step).
    src.changedSince(acc_.clock - 0.5 * lastStepDt_);
    return true;
}

Seconds
BatchExecutor::peekCycle(const ServingState &st,
                         const ArrivalSource &src) const
{
    // Keyed on the clock: the cycle admits into a free slot, has no
    // decode batch, or runs under thermal coupling, whose governor
    // needs the real RC integration.
    const Seconds now = acc_.clock;
    if ((!st.queue.empty() && st.inFlight() < config_.maxBatch) ||
        thermalOn_ || st.active.empty())
        return now;
    // Otherwise the cycle runs one decode segment, bounded by the next
    // arrival and slowdown edge but not the target: a split there
    // changes nothing a caller reads.  Exact mode runs the same steps
    // one per cycle, with nothing visible between them.  Whatever else
    // the cycle starts with (an arrival or fault event due, an expired
    // deadline, a prefill in flight) ends the plan at its first step.
    double scale = 1.0;
    Seconds edge = std::numeric_limits<Seconds>::infinity();
    src.slowdownAt(now, scale, edge);
    const SegmentPlan plan =
        planSegment(st, std::min(src.nextArrival(), edge));

    // Replay the step clock: the exact loop's per-step bucket (a fresh
    // llround of the context sum) and advanceWork's scaled addition.
    double ctx_sum = plan.ctxSum;
    Seconds clock = now, last = now;
    Tokens bucket = 0;
    Seconds dt = 0.0;
    for (std::uint64_t k = 1;; ++k) {
        const Tokens avg_ctx =
            static_cast<Tokens>(std::llround(ctx_sum / plan.batch));
        const Tokens b = stepBucket(avg_ctx);
        if (b != bucket) {
            bucket = b;
            dt = engine_.decodeStepLatency(b, plan.batch);
            if (scale != 1.0)
                dt *= scale;
        }
        last = clock;
        clock += dt;
        ctx_sum += plan.batch;
        if (k >= plan.kmax || plan.stop <= clock + kTimeSlack ||
            clock > plan.dminSlack)
            return last;
    }
}

bool
BatchExecutor::cancelByTraceIndex(ServingState &st,
                                  std::int64_t trace_index)
{
    // Queue side: the request never started service, so it retires on
    // the shed path (serviceTime 0) with the Cancelled outcome.
    for (std::size_t i = 0; i < st.queue.size(); ++i) {
        const ReqId id = st.queue[i];
        if (st.pool.traceIndex(id) != trace_index)
            continue;
        st.onLeaveQueue(id);
        st.queue.eraseAt(i);
        shedWaiting(st, id, RequestOutcome::Cancelled);
        return true;
    }
    // In-flight side: the retire sequence of a mid-flight abort, with
    // a shifting erase so the prefill front / decode scan order stays
    // canonical.
    const auto retireInFlight = [&](std::vector<ReqId> &ids) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const ReqId id = ids[i];
            if (st.pool.traceIndex(id) != trace_index)
                continue;
            record(st, id, RequestOutcome::Cancelled);
            ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(i));
            return true;
        }
        return false;
    };
    return retireInFlight(st.prefilling) || retireInFlight(st.active);
}

void
BatchExecutor::sleepUntilWake(ServingState &st, Seconds bound)
{
    Seconds wake = bound;
    const auto &events = faults_.events();
    if (acc_.nextEvent < events.size())
        wake = std::min(wake, events[acc_.nextEvent].time);
    // First retry gate strictly in the future; gates at or behind the
    // clock belong to already-eligible entries (blocked on KV, not on
    // time), which cannot be what this sleep is waiting for.
    wake = std::min(wake, st.nextGateAfter(acc_.clock));
    fatal_if(!std::isfinite(wake) || wake <= acc_.clock,
             "serving deadlock: ", st.queue.size(),
             " queued request(s) can never be admitted");
    idleTo(wake);
}

AuditView
BatchExecutor::auditView(const ServingState &st, std::size_t trace_size,
                         std::size_t next_arrival) const
{
    AuditView v;
    v.traceSize = trace_size;
    v.nextArrival = next_arrival;
    v.served = &served_;
    v.state = &st;
    v.acc = acc_;
    v.paged = paged_ != nullptr;
    v.kv = paged_.get();
    v.ballast = ballast_;
    v.kvBudget = kvBudget_;
    v.kvPerToken = kvPerToken_;
    return v;
}

template <class Ar>
void
BatchExecutor::io(Ar &a)
{
    engine::io(a, acc_);
    thermal_.io(a);
    bool paged = paged_ != nullptr;
    a.flag(paged);
    fatalAt(a, paged != (paged_ != nullptr),
            "checkpoint executor mode mismatch: checkpoint is ",
            paged ? "paged" : "scalar", "-KV but this run is ",
            paged_ ? "paged" : "scalar",
            "-KV (different fault plan?); refusing to restore");
    if (paged_) {
        a.u64(ballast_);
        paged_->io(a);
    }
    // rebuildCost_ is pure memoization over the engine's noiseless
    // const query surface: rebuilt identically on resume.
}

template void BatchExecutor::io(ByteWriter &);
template void BatchExecutor::io(ByteReader &);

ServingReport
BatchExecutor::report(Seconds first_arrival, SchedulerPolicy policy,
                      const ServingState &st) const
{
    return buildServingReport(served_, acc_, first_arrival, policy,
                              st.peakQueueDepth);
}

} // namespace engine
} // namespace edgereason
