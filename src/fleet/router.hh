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
 *  - round-robin: the first candidate at or after a rotating cursor,
 *    in cyclic node-id order;
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
 * The least-loaded, deadline and cost policies read nothing of a node
 * but its engine, power mode, in-flight legs, backlog and draining
 * flag, so the router keeps the up nodes grouped into load classes —
 * nodes equal in all five — and scores each class once per route(),
 * on its lowest eligible node id.  Ties between classes go to the
 * lower id, which is the node a per-node scan in id order picks.  A
 * fleet of identical boxes holds a handful of classes however many
 * nodes it has.
 *
 * Index contract: the index is rebuilt from the views whenever
 * views_gen changes, and patched in between by loadChanged().  A
 * caller that changes a node's backlog() or inFlight() must therefore
 * either bump views_gen before the next route() or call
 * loadChanged(node) after the change.
 */

#ifndef EDGEREASON_FLEET_ROUTER_HH
#define EDGEREASON_FLEET_ROUTER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/binio.hh"
#include "common/open_hash.hh"
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
     *        bumps it whenever the views are rebuilt, so equal stamps
     *        guarantee identical up/draining flags and the load-class
     *        index (see the index contract above) can be reused
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
     * Checkpoint field list of the router's mutable decision state:
     * the cursor() when the policy has one.  Only round-robin does
     * (its rotation); the other built-in policies are pure functions
     * of the visible fleet state.  The fleet checkpoint carries it so
     * a resumed run routes bit-identically (same policy guaranteed by
     * the fleet fingerprint).
     */
    template <class Ar>
    void io(Ar &a)
    {
        if (int *c = cursor())
            a.i64(*c);
    }
    /** @return the rotating cursor, or null for stateless policies. */
    virtual int *cursor() { return nullptr; }

    /**
     * Re-file @p node under its current load after its backlog() or
     * inFlight() changed (the index contract above).  O(1) when the
     * node's class did not move, and O(nodes / 64) at worst when it
     * did; a no-op before the first class-scored route().
     */
    void loadChanged(int node);

    /** @return route() calls scored over load classes so far (every
     *  call of the least-loaded, deadline and cost policies that found
     *  a candidate). */
    std::uint64_t classRoutes() const { return classRoutes_; }
    /** @return load classes those calls examined in total. */
    std::uint64_t classVisits() const { return classVisits_; }

    /** What the nodes of one load class share: every node input the
     *  least-loaded, deadline and cost policies read. */
    struct LoadClassKey
    {
        const engine::InferenceEngine *engine = nullptr;
        std::size_t backlog = 0;
        std::int32_t inFlight = 0;
        std::uint16_t mode = 0; //!< hw::PowerMode
        std::uint16_t draining = 0;

        bool operator==(const LoadClassKey &) const = default;
    };
    /** One live class as the paranoid auditor compares it. */
    struct LoadClassState
    {
        LoadClassKey key;
        int lowest = -1;          //!< the index's cached lowest member
        std::vector<int> members; //!< ascending node ids
        bool operator==(const LoadClassState &) const = default;
    };
    /** @return the live classes ordered by lowest member, if the index
     *  was last rebuilt from @p views at @p views_gen (nullopt
     *  otherwise: the next route() rebuilds it anyway). */
    std::optional<std::vector<LoadClassState>>
    loadClasses(const std::vector<NodeView> &views,
                std::uint64_t views_gen) const;
    /** @return what loadClasses() must return for @p views, computed
     *  from scratch by a per-node scan. */
    static std::vector<LoadClassState>
    loadClassesFromScratch(const std::vector<NodeView> &views);

  protected:
    /** One candidate load class: its key and its lowest eligible node
     *  id, the node a per-node scan in id order would pick from it. */
    struct ClassCandidate
    {
        const LoadClassKey *key;
        int node;
    };

    /**
     * The candidate filter over load classes: the classes holding a
     * candidate node (the relaxation above), each with its lowest
     * candidate id, in no particular order (policies break ties on
     * the lower id).
     * Rebuilds the index when @p views or @p views_gen changed.  The
     * reference is valid until the next call.
     */
    const std::vector<ClassCandidate> &
    candidateClasses(const std::vector<NodeView> &views,
                     std::uint64_t views_gen, int exclude);

  private:
    /** A live load class.  Its members are the set bits of its row
     *  of bits_. */
    struct LoadClass
    {
        LoadClassKey key;
        int lowest = -1;
        int count = 0;
        int pos = -1; //!< index in live_
    };

    static LoadClassKey classKeyOf(const NodeView &v);
    void rebuildClasses(const std::vector<NodeView> &views,
                        std::uint64_t views_gen);
    void joinClass(int node, const LoadClassKey &key);
    void leaveClass(int node);
    /** @return the lowest member of class @p c above @p from, or -1. */
    int nextMember(int c, int from) const;
    std::uint64_t *row(int c)
    {
        return bits_.data() + static_cast<std::size_t>(c) * words_;
    }
    const std::uint64_t *row(int c) const
    {
        return bits_.data() + static_cast<std::size_t>(c) * words_;
    }

    const std::vector<NodeView> *indexViews_ = nullptr;
    std::uint64_t indexGen_ = 0;
    std::vector<LoadClass> classes_; //!< slots, recycled via freeSlots_
    std::vector<int> freeSlots_;
    std::vector<int> live_;          //!< live class slots
    std::vector<int> classOf_;       //!< per node; -1 when not indexed
    std::vector<std::uint64_t> bits_; //!< words_ member bits per slot
    std::size_t words_ = 0;
    OpenHashMap<LoadClassKey, int> slotOf_;
    std::vector<ClassCandidate> classCands_;
    std::uint64_t classRoutes_ = 0;
    std::uint64_t classVisits_ = 0;
};

/** Policy factory. */
std::unique_ptr<Router> makeRouter(RouterPolicy p);

} // namespace fleet
} // namespace edgereason

#endif // EDGEREASON_FLEET_ROUTER_HH
