/**
 * @file
 * Pluggable fleet routing policies.  The router decides, per dispatch
 * (initial, retry, hedge, or failover), which node — or the cloud
 * tier — runs a request leg.  All policies are deterministic pure
 * functions of the visible fleet state, so a fleet run is
 * bit-reproducible at any thread count.
 *
 * Candidate filtering is shared across policies and encodes the
 * resilience semantics:
 *  - down nodes are never candidates;
 *  - draining nodes (degrade window, or tripped failure breaker in
 *    its cooldown) are skipped while an alternative exists — graceful
 *    drain, not a hard stop;
 *  - the excluded node (where the previous leg just failed) is
 *    avoided while an alternative exists, so retries and failovers
 *    actually move the request.
 *
 * Policies:
 *  - round-robin: rotating cursor over the candidates;
 *  - least-loaded: minimum backlog + in-flight, ties to the lowest
 *    node id;
 *  - deadline-aware: minimum predicted finish (optimistic service
 *    estimate from the node engine's noiseless query surface, scaled
 *    by the node's backlog); offloads to the cloud when no edge
 *    candidate is predicted to meet the deadline but the cloud is;
 *  - cost-aware: cheapest deadline-feasible edge candidate (service
 *    time x the node's power cap as the energy proxy); falls back to
 *    deadline order when nothing is feasible, and offloads to the
 *    cloud on edge saturation or edge-infeasible deadlines.
 *
 * The service estimate is a pure function of (engine, in-flight legs),
 * so the deadline- and cost-aware policies compute it once per
 * distinct pair per route(), not once per node.
 */

#ifndef EDGEREASON_FLEET_ROUTER_HH
#define EDGEREASON_FLEET_ROUTER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/binio.hh"
#include "cost/cost_model.hh"
#include "engine/request_state.hh"

namespace edgereason {
namespace engine {
class InferenceEngine;
}
namespace fleet {

class FleetNode;

/** Routing policy selector. */
enum class RouterPolicy {
    RoundRobin,
    LeastLoaded,
    DeadlineAware,
    CostAware,
};

/** @return short policy name ("rr", "least", "deadline", "cost"). */
const char *routerPolicyName(RouterPolicy p);

/** Parse a policy name; nullopt on an unknown name. */
std::optional<RouterPolicy>
routerPolicyFromName(const std::string &name);

/** Router-visible health snapshot of one node (driver-maintained). */
struct NodeView
{
    const FleetNode *node = nullptr;
    bool up = true;
    /** Degrade window in force, or failure breaker in cooldown. */
    bool draining = false;
};

/** Cloud offload tier (paper Table III pricing). */
struct CloudTier
{
    bool enabled = false;
    cost::CloudPrice price;
    /** Round-trip network latency added to every offload. */
    Seconds rtt = 0.15;
    /** Edge backlog (per candidate node) at which the cost-aware
     *  policy prefers the cloud even for feasible requests. */
    std::size_t saturationBacklog = 64;

    /** @return completion latency of one offloaded request. */
    Seconds latency(const engine::ServerRequest &r) const
    {
        return rtt + (price.userTps > 0.0
                          ? static_cast<double>(r.outputTokens) /
                              price.userTps
                          : 0.0);
    }

    /** @return dollars charged for one offloaded request. */
    Dollars dollars(const engine::ServerRequest &r) const
    {
        return (static_cast<double>(r.inputTokens) *
                    price.inputPerMTok +
                static_cast<double>(r.outputTokens) *
                    price.outputPerMTok) /
            1e6;
    }
};

/** One routing decision: a node index, the cloud, or a rejection
 *  (no destination can take the request right now). */
struct RouteDecision
{
    int node = -1;
    bool cloud = false;

    bool rejected() const { return node < 0 && !cloud; }

    static RouteDecision toNode(int i) { return {i, false}; }
    static RouteDecision toCloud() { return {-1, true}; }
    static RouteDecision reject() { return {}; }
};

class Router
{
  public:
    virtual ~Router() = default;

    virtual RouterPolicy policy() const = 0;

    /**
     * Pick a destination for one dispatch at fleet time @p now.
     *
     * @param req  the original request (arrival = trace arrival)
     * @param abs_deadline  absolute deadline instant (+inf when none)
     * @param views  per-node health snapshots, indexed by node id
     * @param views_gen  generation stamp of @p views — the driver
     *        bumps it whenever the up/draining flags are rebuilt, so
     *        equal stamps guarantee identical flags and the shared
     *        candidate filter can be reused across dispatches
     * @param cloud  offload tier (ignored when not enabled)
     * @param exclude  node of the leg that just failed (-1 none)
     */
    virtual RouteDecision route(const engine::ServerRequest &req,
                                Seconds now, Seconds abs_deadline,
                                const std::vector<NodeView> &views,
                                std::uint64_t views_gen,
                                const CloudTier &cloud,
                                int exclude) = 0;

    /**
     * Checkpoint the router's mutable decision state.  Only the
     * round-robin policy carries any (its rotating cursor); the other
     * built-in policies are pure functions of the visible fleet state,
     * so the defaults are no-ops.  Fleet checkpoint/restore calls
     * these so a resumed run routes bit-identically.
     */
    virtual void serialize(ByteWriter &w) const { (void)w; }
    /** Restore serialize() output (same policy guaranteed by the
     *  fleet fingerprint). */
    virtual void restore(ByteReader &r) { (void)r; }

  protected:
    /**
     * Shared candidate filter: up nodes first without draining or the
     * excluded node, then progressively relaxed (draining allowed,
     * then the excluded node) so a lone surviving node still serves.
     *
     * The result is a pure function of (up/draining flags, exclude),
     * so the common exclude-free list is cached per @p views_gen: the
     * O(nodes) filter runs once per admission window, not once per
     * dispatch.  Retry/failover dispatches (exclude >= 0) are rare
     * and rebuild into a scratch buffer every time.
     *
     * @return candidate node ids in ascending order; empty when every
     * node is down.  The reference is valid until the next call.
     */
    const std::vector<int> &
    candidates(const std::vector<NodeView> &views,
               std::uint64_t views_gen, int exclude);

    /** Open a route() call's service-estimate memo, sized for
     *  @p candidates nodes; earlier calls' entries are dropped in
     *  O(1). */
    void beginEstimates(std::size_t candidates);

    /**
     * FleetNode::estimateServiceTime of @p req on @p node, memoized
     * since the last beginEstimates() on (engine, inFlight) — the
     * estimate's only node-dependent inputs, so a hit is bit-identical
     * to recomputing.  Hashed, so a lookup stays O(1) even when every
     * node has its own engine.
     */
    Seconds serviceEstimate(const engine::ServerRequest &req,
                            const FleetNode &node);

  private:
    /** Unconditional filter pass behind the candidates() cache. */
    static void buildCandidates(const std::vector<NodeView> &views,
                                int exclude, std::vector<int> *out);

    std::vector<int> candBuf_;    //!< cached exclude == -1 list
    std::vector<int> excludeBuf_; //!< scratch for exclude >= 0
    std::uint64_t candGen_ = 0;   //!< views_gen candBuf_ was built at
    bool candPrimed_ = false;     //!< candBuf_ holds a real build

    /** Open-addressed estimate memo slot; live iff gen == estGen_. */
    struct EstimateSlot
    {
        const engine::InferenceEngine *engine = nullptr;
        int inFlight = 0;
        std::uint64_t gen = 0;
        Seconds value = 0.0;
    };
    std::vector<EstimateSlot> estSlots_; //!< power-of-two size
    std::uint64_t estGen_ = 0;
};

/** Policy factory. */
std::unique_ptr<Router> makeRouter(RouterPolicy p);

} // namespace fleet
} // namespace edgereason

#endif // EDGEREASON_FLEET_ROUTER_HH
