/**
 * @file
 * Invariant auditor for the serving simulator (DESIGN.md §9).  Under
 * the paranoid flag (and in every chaos test) the serving loop builds
 * an AuditView at each batch-step boundary and hands it to an Auditor,
 * which panic()s on the first violated invariant — turning silent
 * accounting corruption into an immediate, attributable failure.
 *
 * Checked invariants:
 *  1. Request conservation: retired + queued + prefilling + decoding +
 *     not-yet-arrived == trace size.  No request is ever lost or
 *     double-counted.
 *  2. State-machine legality: every container holds only the lifecycle
 *     states it may hold (queue: Queued/Preempted; prefilling:
 *     Prefilling; active: Decoding; served: Done outcomes), per
 *     request_state.hh's transition table.
 *  3. Clock sanity: the sim clock is finite and never moves backwards
 *     across boundaries; busy/throttled-busy time never exceeds it.
 *  4. Non-negative integrators: busy, throttled busy, energy,
 *     batch-time, generated tokens, preemptions only grow.
 *  5. KV accounting: paged mode — per-sequence token counts match the
 *     admitted footprint, block counts reconcile with blocksInUse()
 *     and tokenCapacity(); scalar mode — committed bytes equal the sum
 *     of in-flight footprints and respect the watermark budget.
 *  6. Queue observability: the recorded peak depth is an upper bound
 *     of the current depth.
 *  7. Macro-stepping bookkeeping: segments never exceed steps, tokens
 *     never fall below steps.
 *  8. Time indexes: the retry-gate, live-deadline, and
 *     queued-deadline-gate instant sets (engine/instant_set.hh) match
 *     brute-force rebuilds from the containers — derived-state drift
 *     panics instead of silently corrupting the macro horizon.
 *  9. Prefix-index conservation (prefix cache only): every paged
 *     block's refcount equals its sequence owners plus its index
 *     entry, index pages are full blocks, and the radix structure
 *     (hash map, parent links, child counts, free-list) is
 *     self-consistent — delegated to KvCache::auditConservation().
 */

#ifndef EDGEREASON_ENGINE_AUDITOR_HH
#define EDGEREASON_ENGINE_AUDITOR_HH

#include <cstddef>
#include <vector>

#include "engine/kv_cache.hh"
#include "engine/server.hh"

namespace edgereason {
namespace engine {

struct ServingState;

/**
 * Read-only snapshot of everything the auditor checks.  Built by
 * BatchExecutor::auditView(); pointers borrow from the live run and
 * are valid only for the duration of the check.
 */
struct AuditView
{
    std::size_t traceSize = 0;
    std::size_t nextArrival = 0; //!< trace requests already pulled
    const std::vector<ServedRequest> *served = nullptr;
    const ServingState *state = nullptr;
    ExecAccumulators acc;

    // --- KV accounting ---------------------------------------------
    bool paged = false;
    const KvCache *kv = nullptr; //!< paged mode only
    SeqId ballast = 0;           //!< shrink-window ballast sequence
    double kvBudget = 0.0;       //!< scalar-mode byte budget
    double kvPerToken = 0.0;     //!< scalar-mode bytes per token
};

/**
 * Stateful invariant checker (remembers the previous boundary's clock
 * for monotonicity).  One Auditor audits one run.
 */
class Auditor
{
  public:
    /** Verify every invariant; panic() with specifics on a violation. */
    void check(const AuditView &v);

    /** @return number of successful checks so far. */
    std::uint64_t checksPassed() const { return checks_; }

  private:
    Seconds lastClock_ = 0.0;
    bool haveLast_ = false;
    std::uint64_t checks_ = 0;
};

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_AUDITOR_HH
