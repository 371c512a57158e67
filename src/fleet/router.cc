#include "fleet/router.hh"

#include <algorithm>
#include <bit>
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

Router::LoadClassKey
Router::classKeyOf(const NodeView &v)
{
    LoadClassKey k;
    k.engine = &v.node->engine();
    k.backlog = v.node->backlog();
    k.inFlight = v.node->inFlight();
    k.mode = static_cast<std::uint16_t>(v.node->spec().powerMode);
    k.draining = v.draining;
    return k;
}

void
Router::joinClass(int node, const LoadClassKey &key)
{
    int c;
    if (const int *found = slotOf_.find(key)) {
        c = *found;
    } else {
        if (freeSlots_.empty()) {
            c = static_cast<int>(classes_.size());
            classes_.emplace_back();
            bits_.resize(bits_.size() + words_, 0);
        } else {
            c = freeSlots_.back();
            freeSlots_.pop_back();
        }
        classes_[static_cast<std::size_t>(c)] = {
            key, node, 0, static_cast<int>(live_.size())};
        live_.push_back(c);
        slotOf_.insert(key, c);
    }
    LoadClass &cls = classes_[static_cast<std::size_t>(c)];
    const auto n = static_cast<std::size_t>(node);
    row(c)[n / 64] |= std::uint64_t{1} << (n % 64);
    cls.lowest = std::min(cls.lowest, node);
    ++cls.count;
    classOf_[n] = c;
}

void
Router::leaveClass(int node)
{
    const auto n = static_cast<std::size_t>(node);
    const int c = classOf_[n];
    LoadClass &cls = classes_[static_cast<std::size_t>(c)];
    row(c)[n / 64] &= ~(std::uint64_t{1} << (n % 64));
    classOf_[n] = -1;
    if (--cls.count > 0) {
        if (cls.lowest == node)
            cls.lowest = nextMember(c, node);
        return;
    }
    // Emptied: unlink from live_ (swap-remove) and recycle the slot;
    // its row is all zero again.
    const int moved = live_.back();
    live_[static_cast<std::size_t>(cls.pos)] = moved;
    classes_[static_cast<std::size_t>(moved)].pos = cls.pos;
    live_.pop_back();
    slotOf_.erase(cls.key);
    freeSlots_.push_back(c);
}

int
Router::nextMember(int c, int from) const
{
    const std::uint64_t *bits = row(c);
    std::size_t w = static_cast<std::size_t>(from + 1) / 64;
    const unsigned shift = static_cast<unsigned>(from + 1) % 64;
    if (w >= words_)
        return -1;
    std::uint64_t word = bits[w] & (~std::uint64_t{0} << shift);
    while (word == 0) {
        if (++w == words_)
            return -1;
        word = bits[w];
    }
    return static_cast<int>(w * 64) + std::countr_zero(word);
}

void
Router::rebuildClasses(const std::vector<NodeView> &views,
                       std::uint64_t views_gen)
{
    for (const int c : live_)
        slotOf_.erase(classes_[static_cast<std::size_t>(c)].key);
    classes_.clear();
    freeSlots_.clear();
    live_.clear();
    bits_.clear();
    words_ = (views.size() + 63) / 64;
    classOf_.assign(views.size(), -1);
    for (std::size_t i = 0; i < views.size(); ++i)
        if (views[i].up)
            joinClass(static_cast<int>(i), classKeyOf(views[i]));
    indexViews_ = &views;
    indexGen_ = views_gen;
}

void
Router::loadChanged(int node)
{
    if (indexViews_ == nullptr)
        return;
    const auto n = static_cast<std::size_t>(node);
    const int c = classOf_[n];
    if (c < 0)
        return; // down in the indexed views: in no class
    const FleetNode &fn = *(*indexViews_)[n].node;
    const LoadClassKey &old = classes_[static_cast<std::size_t>(c)].key;
    if (old.backlog == fn.backlog() && old.inFlight == fn.inFlight())
        return;
    LoadClassKey key = old;
    key.backlog = fn.backlog();
    key.inFlight = fn.inFlight();
    leaveClass(node);
    joinClass(node, key);
}

const std::vector<Router::ClassCandidate> &
Router::candidateClasses(const std::vector<NodeView> &views,
                         std::uint64_t views_gen, int exclude)
{
    if (indexViews_ != &views || indexGen_ != views_gen)
        rebuildClasses(views, views_gen);
    // Progressive relaxation: drain and failure-avoidance are
    // preferences, not availability losses.
    const auto collect = [&](bool allow_draining, bool allow_excluded) {
        classCands_.clear();
        classVisits_ += live_.size();
        for (const int c : live_) {
            const LoadClass &cls = classes_[static_cast<std::size_t>(c)];
            if (!allow_draining && cls.key.draining)
                continue;
            int pick = cls.lowest;
            if (!allow_excluded && pick == exclude)
                pick = nextMember(c, pick);
            if (pick >= 0)
                classCands_.push_back({&cls.key, pick});
        }
    };
    collect(false, false);
    if (classCands_.empty())
        collect(true, false);
    if (classCands_.empty())
        collect(true, true);
    if (!classCands_.empty())
        ++classRoutes_;
    return classCands_;
}

std::optional<std::vector<Router::LoadClassState>>
Router::loadClasses(const std::vector<NodeView> &views,
                    std::uint64_t views_gen) const
{
    if (indexViews_ != &views || indexGen_ != views_gen)
        return std::nullopt;
    std::vector<LoadClassState> out;
    for (const int c : live_) {
        const LoadClass &cls = classes_[static_cast<std::size_t>(c)];
        LoadClassState st{cls.key, cls.lowest, {}};
        for (int i = nextMember(c, -1); i >= 0; i = nextMember(c, i)) {
            panic_if(classOf_[static_cast<std::size_t>(i)] != c,
                     "node ", i, " is a member of load class ", c,
                     " but filed under ",
                     classOf_[static_cast<std::size_t>(i)]);
            st.members.push_back(i);
        }
        panic_if(st.members.size() != static_cast<std::size_t>(cls.count),
                 "load class ", c, " counts ", cls.count, " members but ",
                 "holds ", st.members.size());
        out.push_back(std::move(st));
    }
    std::sort(out.begin(), out.end(),
              [](const LoadClassState &a, const LoadClassState &b) {
                  return a.lowest < b.lowest;
              });
    return out;
}

std::vector<Router::LoadClassState>
Router::loadClassesFromScratch(const std::vector<NodeView> &views)
{
    std::vector<LoadClassState> out;
    for (std::size_t i = 0; i < views.size(); ++i) {
        if (!views[i].up)
            continue;
        const LoadClassKey key = classKeyOf(views[i]);
        auto it = std::find_if(
            out.begin(), out.end(),
            [&](const LoadClassState &st) { return st.key == key; });
        if (it == out.end()) {
            out.push_back({key, static_cast<int>(i), {}});
            it = out.end() - 1;
        }
        it->members.push_back(static_cast<int>(i));
    }
    // Classes open in ascending order of their lowest member.
    return out;
}

namespace {

/** Backlog-scaled predicted finish on a class: the optimistic service
 *  estimate @p est stretched by the queue ahead of it. */
Seconds
predictedFinish(Seconds est, Seconds now, std::size_t backlog)
{
    return now + est * (1.0 + static_cast<double>(backlog));
}

/** FleetNode::estimateServiceTime of @p req on a node of class @p k. */
Seconds
serviceEstimate(const engine::ServerRequest &req,
                const Router::LoadClassKey &k)
{
    return FleetNode::estimateServiceTime(*k.engine, k.inFlight, req);
}

/** @return true if a class scoring @p v on lowest id @p id beats the
 *  best so far (@p best_v on @p best; best < 0 = none yet): strictly
 *  lower, or equal on a lower id — the node a scan in id order keeps.
 *  A score that never compares below +inf is never picked. */
bool
beats(double v, int id, double best_v, int best)
{
    return v < best_v || (v == best_v && best >= 0 && id < best);
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
        (void)views_gen;
        // First node at/after the cursor in cyclic id order, under the
        // progressive relaxation: up and neither draining nor
        // excluded, then draining allowed, then the excluded node too.
        // Unsigned, so a cursor restored out of range still indexes
        // in bounds.
        const std::size_t n = views.size();
        const auto start = static_cast<std::size_t>(cursor_);
        for (int pass = 0; pass < 3; ++pass) {
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t i = (start + k) % n;
                if (!views[i].up || (pass < 1 && views[i].draining) ||
                    (pass < 2 && static_cast<int>(i) == exclude))
                    continue;
                cursor_ = static_cast<int>((i + 1) % n);
                return RouteDecision::toNode(static_cast<int>(i));
            }
        }
        return cloud.enabled ? RouteDecision::toCloud()
                             : RouteDecision::reject();
    }

    int *cursor() override { return &cursor_; }

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
        const auto &cands = candidateClasses(views, views_gen, exclude);
        if (cands.empty())
            return cloud.enabled ? RouteDecision::toCloud()
                                 : RouteDecision::reject();
        int best = -1;
        std::size_t best_load = 0;
        for (const auto &c : cands) {
            const std::size_t load = c.key->backlog +
                static_cast<std::size_t>(c.key->inFlight);
            if (best < 0 || load < best_load ||
                (load == best_load && c.node < best)) {
                best = c.node;
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
        const auto &cands = candidateClasses(views, views_gen, exclude);
        if (cands.empty())
            return cloud.enabled ? RouteDecision::toCloud()
                                 : RouteDecision::reject();
        int best = -1;
        Seconds best_finish =
            std::numeric_limits<Seconds>::infinity();
        for (const auto &c : cands) {
            const Seconds f = predictedFinish(serviceEstimate(req, *c.key),
                                              now, c.key->backlog);
            if (beats(f, c.node, best_finish, best)) {
                best = c.node;
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
        const auto &cands = candidateClasses(views, views_gen, exclude);
        if (cands.empty())
            return cloud.enabled ? RouteDecision::toCloud()
                                 : RouteDecision::reject();

        const bool cloud_feasible = cloud.enabled &&
            now + cloud.latency(req) <=
                abs_deadline + engine::kDeadlineSlack;

        // Cheapest deadline-feasible edge candidate; energy proxy =
        // optimistic service time x the node's power-mode cap.
        int best_feasible = -1;
        double best_cost =
            std::numeric_limits<double>::infinity();
        int best_any = -1;
        Seconds best_finish =
            std::numeric_limits<Seconds>::infinity();
        std::size_t min_backlog =
            std::numeric_limits<std::size_t>::max();
        for (const auto &c : cands) {
            const Seconds est = serviceEstimate(req, *c.key);
            const Seconds f = predictedFinish(est, now, c.key->backlog);
            if (beats(f, c.node, best_finish, best_any)) {
                best_any = c.node;
                best_finish = f;
            }
            min_backlog = std::min(min_backlog, c.key->backlog);
            if (f <= abs_deadline + engine::kDeadlineSlack) {
                const double cost = est *
                    hw::powerModeCap(static_cast<hw::PowerMode>(c.key->mode));
                if (beats(cost, c.node, best_cost, best_feasible)) {
                    best_feasible = c.node;
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
