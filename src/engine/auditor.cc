#include "engine/auditor.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "engine/executor.hh"

namespace edgereason {
namespace engine {

void
Auditor::check(const AuditView &v)
{
    panic_if(v.served == nullptr || v.state == nullptr,
             "auditor: incomplete view");
    const ServingState &st = *v.state;
    const RequestBatch &pool = st.pool;

    // 1. Request conservation.
    panic_if(v.nextArrival > v.traceSize,
             "auditor: arrival cursor ", v.nextArrival,
             " past trace size ", v.traceSize);
    const std::size_t accounted = v.served->size() + st.queue.size() +
        st.prefilling.size() + st.active.size() +
        (v.traceSize - v.nextArrival);
    panic_if(accounted != v.traceSize,
             "auditor: request conservation violated: ",
             v.served->size(), " retired + ", st.queue.size(),
             " queued + ", st.prefilling.size(), " prefilling + ",
             st.active.size(), " decoding + ",
             v.traceSize - v.nextArrival, " pending != trace size ",
             v.traceSize);
    panic_if(pool.liveCount() !=
                 st.queue.size() + st.prefilling.size() +
                     st.active.size(),
             "auditor: request pool holds ", pool.liveCount(),
             " live slots but the containers own ",
             st.queue.size() + st.prefilling.size() + st.active.size());

    // 2. State-machine legality per container.
    for (std::size_t i = 0; i < st.queue.size(); ++i) {
        const RequestState s = pool.state(st.queue[i]);
        panic_if(s != RequestState::Queued &&
                     s != RequestState::Preempted,
                 "auditor: wait queue holds a request in state ",
                 requestStateName(s));
    }
    for (const ReqId id : st.prefilling)
        panic_if(pool.state(id) != RequestState::Prefilling,
                 "auditor: prefill set holds a request in state ",
                 requestStateName(pool.state(id)));
    for (const ReqId id : st.active)
        panic_if(pool.state(id) != RequestState::Decoding,
                 "auditor: decode batch holds a request in state ",
                 requestStateName(pool.state(id)));

    // 3. Clock sanity.
    panic_if(!std::isfinite(v.acc.clock) || v.acc.clock < 0.0,
             "auditor: sim clock is ", v.acc.clock);
    panic_if(haveLast_ && v.acc.clock < lastClock_,
             "auditor: sim clock moved backwards: ", v.acc.clock,
             " after ", lastClock_);
    panic_if(v.acc.busy > v.acc.clock + kTimeSlack,
             "auditor: busy time ", v.acc.busy, " exceeds clock ",
             v.acc.clock);
    panic_if(v.acc.throttledBusy > v.acc.busy + kTimeSlack,
             "auditor: throttled busy ", v.acc.throttledBusy,
             " exceeds busy ", v.acc.busy);

    // 4. Non-negative integrators.
    panic_if(v.acc.busy < 0.0 || v.acc.throttledBusy < 0.0 ||
                 v.acc.energy < 0.0 || v.acc.batchTimeWeighted < 0.0 ||
                 v.acc.generatedTokens < 0.0,
             "auditor: negative integrator (busy ", v.acc.busy,
             ", throttled ", v.acc.throttledBusy, ", energy ",
             v.acc.energy, ", batch-time ", v.acc.batchTimeWeighted,
             ", generated ", v.acc.generatedTokens, ")");

    // Retired records must be terminal and in the past.
    for (const auto &s : *v.served)
        panic_if(s.finish > v.acc.clock + kTimeSlack,
                 "auditor: retired request finishes at ", s.finish,
                 " after the clock ", v.acc.clock);

    // 5. KV accounting.
    if (v.paged) {
        panic_if(v.kv == nullptr, "auditor: paged mode without cache");
        panic_if(v.kv->blocksInUse() > v.kv->blockCapacity(),
                 "auditor: ", v.kv->blocksInUse(),
                 " KV blocks in use exceed capacity ",
                 v.kv->blockCapacity());
        std::size_t blocks = v.kv->sequenceBlocks(v.ballast);
        Tokens tokens = v.kv->sequenceTokens(v.ballast);
        std::size_t live = 1; // ballast
        const auto audit_seq = [&](ReqId id) {
            const Tokens expect =
                pool.inputTokens(id) + pool.effOut(id);
            panic_if(v.kv->sequenceTokens(pool.seq(id)) != expect,
                     "auditor: sequence ", pool.seq(id), " holds ",
                     v.kv->sequenceTokens(pool.seq(id)),
                     " KV tokens but its admitted footprint is ",
                     expect);
            blocks += v.kv->sequenceBlocks(pool.seq(id));
            tokens += v.kv->sequenceTokens(pool.seq(id));
            ++live;
        };
        for (const ReqId id : st.prefilling)
            audit_seq(id);
        for (const ReqId id : st.active)
            audit_seq(id);
        panic_if(v.kv->sequenceCount() != live,
                 "auditor: ", v.kv->sequenceCount(),
                 " live KV sequences but ", live, " owners");
        if (!v.kv->prefixEnabled()) {
            // Without the prefix index serving never forks, so
            // physical blocks are unshared and per-sequence block
            // counts must reconcile exactly.
            panic_if(blocks != v.kv->blocksInUse(),
                     "auditor: KV page accounting broken: sequences "
                     "hold ", blocks, " blocks but the pool reports ",
                     v.kv->blocksInUse(), " in use");
            panic_if(tokens > v.kv->tokenCapacity(),
                     "auditor: resident KV tokens ", tokens,
                     " exceed tokenCapacity() ", v.kv->tokenCapacity());
        } else {
            // 9. Prefix-index conservation.  Blocks are shared between
            // sequences and the index, so the unshared reconciliation
            // above does not apply; instead every block's refcount
            // must equal its sequence owners plus its index entry, and
            // the index structure itself must be self-consistent.
            v.kv->auditConservation();
        }
    } else {
        double expect = 0.0;
        for (const ReqId id : st.prefilling)
            expect += v.kvPerToken *
                static_cast<double>(pool.inputTokens(id) +
                                    pool.effOut(id));
        for (const ReqId id : st.active)
            expect += v.kvPerToken *
                static_cast<double>(pool.inputTokens(id) +
                                    pool.effOut(id));
        const double eps =
            1e-6 * std::max(1.0, std::max(expect, v.acc.committedKv));
        panic_if(std::abs(v.acc.committedKv - expect) > eps,
                 "auditor: scalar KV accounting broken: committed ",
                 v.acc.committedKv, " bytes vs in-flight footprint ",
                 expect);
        panic_if(v.acc.committedKv > v.kvBudget + eps,
                 "auditor: committed KV ", v.acc.committedKv,
                 " exceeds the watermark budget ", v.kvBudget);
    }

    // 6. Queue observability.
    panic_if(st.peakQueueDepth < st.queue.size(),
             "auditor: peak queue depth ", st.peakQueueDepth,
             " below current depth ", st.queue.size());

    // 7. Macro-stepping bookkeeping.  Every decode step generates one
    // token per active sequence (>= 1), and every journaled segment
    // coalesces >= 1 step.
    panic_if(v.acc.macroSegments > v.acc.decodeSteps,
             "auditor: ", v.acc.macroSegments,
             " macro segments exceed ", v.acc.decodeSteps,
             " decode steps");
    panic_if(v.acc.generatedTokens <
                 static_cast<double>(v.acc.decodeSteps),
             "auditor: ", v.acc.generatedTokens,
             " generated tokens below ", v.acc.decodeSteps,
             " decode steps");

    // 8. Time indexes.  All three are derived state; drift would
    // make sleepUntilWake, the macro horizon stops, and the
    // shed/abort guards silently wrong.  Rebuild each key multiset
    // brute-force from the containers and compare as sorted vectors.
    const auto check_index = [](const InstantSet &index,
                                std::vector<Seconds> expect,
                                const char *what) {
        std::sort(expect.begin(), expect.end());
        panic_if(index.sortedKeys() != expect, "auditor: ", what,
                 " index out of sync: ", index.size(),
                 " indexed keys vs ", expect.size(),
                 " rebuilt from the containers");
    };
    std::vector<Seconds> gates;
    std::vector<Seconds> queuedGates;
    for (std::size_t i = 0; i < st.queue.size(); ++i) {
        const ReqId id = st.queue[i];
        if (pool.notBefore(id) > 0.0)
            gates.push_back(pool.notBefore(id));
        if (pool.hasDeadline(id))
            queuedGates.push_back(pool.notBefore(id));
    }
    check_index(st.retryGates, std::move(gates), "retry-gate");
    check_index(st.queuedDeadlineGates, std::move(queuedGates),
                "queued-deadline-gate");
    std::vector<Seconds> dls;
    const auto collect_deadline = [&](ReqId id) {
        if (pool.hasDeadline(id))
            dls.push_back(pool.absoluteDeadline(id));
    };
    for (std::size_t i = 0; i < st.queue.size(); ++i)
        collect_deadline(st.queue[i]);
    for (const ReqId id : st.prefilling)
        collect_deadline(id);
    for (const ReqId id : st.active)
        collect_deadline(id);
    check_index(st.deadlines, std::move(dls), "live-deadline");

    lastClock_ = v.acc.clock;
    haveLast_ = true;
    ++checks_;
}

} // namespace engine
} // namespace edgereason
