#include "fleet/router.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "fleet/node.hh"
#include "hw/gpu_spec.hh"

namespace edgereason {
namespace fleet {

const char *
routerPolicyName(RouterPolicy p)
{
    switch (p) {
      case RouterPolicy::RoundRobin:
        return "rr";
      case RouterPolicy::LeastLoaded:
        return "least";
      case RouterPolicy::DeadlineAware:
        return "deadline";
      case RouterPolicy::CostAware:
        return "cost";
    }
    panic("unknown router policy");
}

std::optional<RouterPolicy>
routerPolicyFromName(const std::string &name)
{
    if (name == "rr" || name == "round-robin")
        return RouterPolicy::RoundRobin;
    if (name == "least" || name == "least-loaded")
        return RouterPolicy::LeastLoaded;
    if (name == "deadline" || name == "deadline-aware")
        return RouterPolicy::DeadlineAware;
    if (name == "cost" || name == "cost-aware")
        return RouterPolicy::CostAware;
    return std::nullopt;
}

void
Router::buildCandidates(const std::vector<NodeView> &views, int exclude,
                        std::vector<int> *out)
{
    const auto collect = [&](bool allow_draining, bool allow_excluded) {
        out->clear();
        for (std::size_t i = 0; i < views.size(); ++i) {
            if (!views[i].up)
                continue;
            if (!allow_draining && views[i].draining)
                continue;
            if (!allow_excluded && static_cast<int>(i) == exclude)
                continue;
            out->push_back(static_cast<int>(i));
        }
    };
    // Progressive relaxation: drain and failure-avoidance are
    // preferences, not availability losses.
    collect(false, false);
    if (out->empty())
        collect(true, false);
    if (out->empty())
        collect(true, true);
}

const std::vector<int> &
Router::candidates(const std::vector<NodeView> &views,
                   std::uint64_t views_gen, int exclude)
{
    if (exclude >= 0) {
        // Retry/failover path: the excluded node perturbs the filter,
        // so build fresh — these are a tiny fraction of dispatches.
        buildCandidates(views, exclude, &excludeBuf_);
        return excludeBuf_;
    }
    if (!candPrimed_ || candGen_ != views_gen) {
        buildCandidates(views, -1, &candBuf_);
        candGen_ = views_gen;
        candPrimed_ = true;
    }
    return candBuf_;
}

void
Router::beginEstimates(std::size_t candidates)
{
    std::size_t cap = 16;
    while (cap < 2 * candidates)
        cap *= 2;
    if (cap > estSlots_.size())
        estSlots_.assign(cap, EstimateSlot{});
    ++estGen_; // fresh slots carry gen 0, which is never current
}

Seconds
Router::serviceEstimate(const engine::ServerRequest &req,
                        const FleetNode &node)
{
    const engine::InferenceEngine *eng = &node.engine();
    const int load = node.inFlight();
    std::uint64_t h = reinterpret_cast<std::uintptr_t>(eng) ^
        static_cast<std::uint64_t>(load) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    const std::size_t mask = estSlots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        EstimateSlot &slot = estSlots_[i];
        if (slot.gen != estGen_) {
            slot = {eng, load, estGen_,
                    FleetNode::estimateServiceTime(*eng, load, req)};
            return slot.value;
        }
        if (slot.engine == eng && slot.inFlight == load)
            return slot.value;
    }
}

namespace {

/** Backlog-scaled predicted finish on @p node: the optimistic service
 *  estimate @p est stretched by the queue ahead of it. */
Seconds
predictedFinish(Seconds est, Seconds now, const FleetNode &node)
{
    return now + est * (1.0 + static_cast<double>(node.backlog()));
}

class RoundRobinRouter final : public Router
{
  public:
    RouterPolicy policy() const override
    {
        return RouterPolicy::RoundRobin;
    }

    RouteDecision route(const engine::ServerRequest &req, Seconds now,
                        Seconds abs_deadline,
                        const std::vector<NodeView> &views,
                        std::uint64_t views_gen,
                        const CloudTier &cloud, int exclude) override
    {
        (void)req;
        (void)now;
        (void)abs_deadline;
        const auto &ids = candidates(views, views_gen, exclude);
        if (ids.empty())
            return cloud.enabled ? RouteDecision::toCloud()
                                 : RouteDecision::reject();
        // First candidate at/after the cursor in cyclic id order; the
        // ids are ascending, so that is a binary search (same pick as
        // the linear scan it replaces).
        const auto it =
            std::lower_bound(ids.begin(), ids.end(), cursor_);
        const int pick = it == ids.end() ? ids.front() : *it;
        cursor_ = (pick + 1) % static_cast<int>(views.size());
        return RouteDecision::toNode(pick);
    }

    void serialize(ByteWriter &w) const override { w.i64(cursor_); }
    void restore(ByteReader &r) override
    {
        cursor_ = static_cast<int>(r.i64());
    }

  private:
    int cursor_ = 0;
};

class LeastLoadedRouter final : public Router
{
  public:
    RouterPolicy policy() const override
    {
        return RouterPolicy::LeastLoaded;
    }

    RouteDecision route(const engine::ServerRequest &req, Seconds now,
                        Seconds abs_deadline,
                        const std::vector<NodeView> &views,
                        std::uint64_t views_gen,
                        const CloudTier &cloud, int exclude) override
    {
        (void)req;
        (void)now;
        (void)abs_deadline;
        const auto &ids = candidates(views, views_gen, exclude);
        if (ids.empty())
            return cloud.enabled ? RouteDecision::toCloud()
                                 : RouteDecision::reject();
        int best = ids.front();
        std::size_t best_load =
            views[static_cast<std::size_t>(best)].node->backlog() +
            static_cast<std::size_t>(
                views[static_cast<std::size_t>(best)].node->inFlight());
        for (const int i : ids) {
            const auto &v = views[static_cast<std::size_t>(i)];
            const std::size_t load = v.node->backlog() +
                static_cast<std::size_t>(v.node->inFlight());
            if (load < best_load) {
                best = i;
                best_load = load;
            }
        }
        return RouteDecision::toNode(best);
    }
};

class DeadlineAwareRouter final : public Router
{
  public:
    RouterPolicy policy() const override
    {
        return RouterPolicy::DeadlineAware;
    }

    RouteDecision route(const engine::ServerRequest &req, Seconds now,
                        Seconds abs_deadline,
                        const std::vector<NodeView> &views,
                        std::uint64_t views_gen,
                        const CloudTier &cloud, int exclude) override
    {
        const auto &ids = candidates(views, views_gen, exclude);
        if (ids.empty())
            return cloud.enabled ? RouteDecision::toCloud()
                                 : RouteDecision::reject();
        beginEstimates(ids.size());
        int best = -1;
        Seconds best_finish =
            std::numeric_limits<Seconds>::infinity();
        for (const int i : ids) {
            const FleetNode &node = *views[static_cast<std::size_t>(i)].node;
            const Seconds f =
                predictedFinish(serviceEstimate(req, node), now, node);
            if (f < best_finish) {
                best = i;
                best_finish = f;
            }
        }
        // Edge-infeasible deadline the cloud can still make: offload.
        if (cloud.enabled &&
            abs_deadline <
                std::numeric_limits<Seconds>::infinity() &&
            best_finish > abs_deadline + engine::kDeadlineSlack &&
            now + cloud.latency(req) <=
                abs_deadline + engine::kDeadlineSlack)
            return RouteDecision::toCloud();
        return RouteDecision::toNode(best);
    }
};

class CostAwareRouter final : public Router
{
  public:
    RouterPolicy policy() const override
    {
        return RouterPolicy::CostAware;
    }

    RouteDecision route(const engine::ServerRequest &req, Seconds now,
                        Seconds abs_deadline,
                        const std::vector<NodeView> &views,
                        std::uint64_t views_gen,
                        const CloudTier &cloud, int exclude) override
    {
        const auto &ids = candidates(views, views_gen, exclude);
        if (ids.empty())
            return cloud.enabled ? RouteDecision::toCloud()
                                 : RouteDecision::reject();

        const bool cloud_feasible = cloud.enabled &&
            now + cloud.latency(req) <=
                abs_deadline + engine::kDeadlineSlack;

        // Cheapest deadline-feasible edge candidate; energy proxy =
        // optimistic service time x the node's power-mode cap.
        beginEstimates(ids.size());
        int best_feasible = -1;
        double best_cost =
            std::numeric_limits<double>::infinity();
        int best_any = -1;
        Seconds best_finish =
            std::numeric_limits<Seconds>::infinity();
        std::size_t min_backlog =
            std::numeric_limits<std::size_t>::max();
        for (const int i : ids) {
            const FleetNode &node = *views[static_cast<std::size_t>(i)].node;
            const Seconds est = serviceEstimate(req, node);
            const Seconds f = predictedFinish(est, now, node);
            if (f < best_finish) {
                best_any = i;
                best_finish = f;
            }
            min_backlog = std::min(min_backlog, node.backlog());
            if (f <= abs_deadline + engine::kDeadlineSlack) {
                const double cost =
                    est * hw::powerModeCap(node.spec().powerMode);
                if (cost < best_cost) {
                    best_feasible = i;
                    best_cost = cost;
                }
            }
        }
        // Saturated edge: every candidate is buried; pay the cloud.
        if (cloud.enabled && min_backlog >= cloud.saturationBacklog)
            return RouteDecision::toCloud();
        if (best_feasible >= 0)
            return RouteDecision::toNode(best_feasible);
        if (cloud_feasible &&
            abs_deadline < std::numeric_limits<Seconds>::infinity())
            return RouteDecision::toCloud();
        return RouteDecision::toNode(best_any);
    }
};

} // namespace

std::unique_ptr<Router>
makeRouter(RouterPolicy p)
{
    switch (p) {
      case RouterPolicy::RoundRobin:
        return std::make_unique<RoundRobinRouter>();
      case RouterPolicy::LeastLoaded:
        return std::make_unique<LeastLoadedRouter>();
      case RouterPolicy::DeadlineAware:
        return std::make_unique<DeadlineAwareRouter>();
      case RouterPolicy::CostAware:
        return std::make_unique<CostAwareRouter>();
    }
    panic("unknown router policy");
}

} // namespace fleet
} // namespace edgereason
