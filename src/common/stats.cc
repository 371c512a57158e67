#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace edgereason {

void
RunningStats::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    n_ += other.n_;
}

double
RunningStats::variance() const
{
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

P2Quantile::P2Quantile(double p) : p_(p)
{
    panic_if(p <= 0.0 || p >= 1.0, "P2Quantile: p out of (0,1): ", p);
}

void
P2Quantile::add(double x)
{
    if (n_ < 5) {
        // Seed phase: collect the first five samples sorted in q_.
        std::size_t i = n_;
        while (i > 0 && q_[i - 1] > x) {
            q_[i] = q_[i - 1];
            --i;
        }
        q_[i] = x;
        ++n_;
        if (n_ == 5) {
            for (int k = 0; k < 5; ++k)
                pos_[k] = static_cast<double>(k + 1);
            want_[0] = 1.0;
            want_[1] = 1.0 + 2.0 * p_;
            want_[2] = 1.0 + 4.0 * p_;
            want_[3] = 3.0 + 2.0 * p_;
            want_[4] = 5.0;
        }
        return;
    }

    // Locate the cell k with q_[k] <= x < q_[k+1], clamping the
    // extreme markers to the observed min/max.
    int k;
    if (x < q_[0]) {
        q_[0] = x;
        k = 0;
    } else if (x >= q_[4]) {
        q_[4] = x;
        k = 3;
    } else {
        k = 0;
        while (k < 3 && x >= q_[k + 1])
            ++k;
    }
    for (int i = k + 1; i < 5; ++i)
        pos_[i] += 1.0;
    const double dwant[5] = {0.0, p_ / 2.0, p_, (1.0 + p_) / 2.0, 1.0};
    for (int i = 0; i < 5; ++i)
        want_[i] += dwant[i];
    ++n_;

    // Adjust the three inner markers toward their desired positions
    // with the piecewise-parabolic (P²) update, falling back to linear
    // interpolation when the parabola would cross a neighbour.
    for (int i = 1; i <= 3; ++i) {
        const double d = want_[i] - pos_[i];
        if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
            (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
            const double s = d >= 1.0 ? 1.0 : -1.0;
            const double np = pos_[i] + s;
            // Parabolic prediction of the marker height at np.
            const double qp =
                q_[i] +
                s / (pos_[i + 1] - pos_[i - 1]) *
                    ((pos_[i] - pos_[i - 1] + s) * (q_[i + 1] - q_[i]) /
                         (pos_[i + 1] - pos_[i]) +
                     (pos_[i + 1] - pos_[i] - s) * (q_[i] - q_[i - 1]) /
                         (pos_[i] - pos_[i - 1]));
            if (q_[i - 1] < qp && qp < q_[i + 1]) {
                q_[i] = qp;
            } else {
                const int j = d >= 1.0 ? i + 1 : i - 1;
                q_[i] += s * (q_[j] - q_[i]) /
                         (pos_[j] - pos_[i]);
            }
            pos_[i] = np;
        }
    }
}

double
P2Quantile::value() const
{
    if (n_ == 0)
        return 0.0;
    if (n_ < 5) {
        // Exact order statistic over the sorted seed samples.
        const double rank =
            p_ * static_cast<double>(n_ - 1);
        const auto lo = static_cast<std::size_t>(rank);
        const auto hi = std::min(lo + 1, n_ - 1);
        const double frac = rank - static_cast<double>(lo);
        return q_[lo] * (1.0 - frac) + q_[hi] * frac;
    }
    return q_[2];
}

double
mape(const std::vector<double> &predicted, const std::vector<double> &actual,
     double eps)
{
    panic_if(predicted.size() != actual.size(),
             "mape: size mismatch ", predicted.size(), " vs ",
             actual.size());
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (std::abs(actual[i]) < eps)
            continue;
        acc += std::abs((predicted[i] - actual[i]) / actual[i]);
        ++n;
    }
    return n == 0 ? 0.0 : 100.0 * acc / static_cast<double>(n);
}

double
mean(const std::vector<double> &xs)
{
    RunningStats s;
    for (double x : xs)
        s.add(x);
    return s.mean();
}

double
percentile(std::vector<double> xs, double p)
{
    std::sort(xs.begin(), xs.end());
    return sortedPercentile(xs, p);
}

double
sortedPercentile(const std::vector<double> &sorted, double p)
{
    panic_if(sorted.empty(), "percentile of empty vector");
    panic_if(p < 0.0 || p > 100.0, "percentile out of range: ", p);
    if (sorted.size() == 1)
        return sorted.front();
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

SampleSummary
summarizeSamples(std::vector<double> &xs)
{
    SampleSummary s;
    if (xs.empty())
        return s;
    s.mean = mean(xs);
    std::sort(xs.begin(), xs.end());
    s.p50 = sortedPercentile(xs, 50.0);
    s.p95 = sortedPercentile(xs, 95.0);
    s.p99 = sortedPercentile(xs, 99.0);
    s.p999 = sortedPercentile(xs, 99.9);
    return s;
}

RunSummary
summarizeRun(double first_arrival, double end, std::size_t finished,
             std::size_t met, std::vector<double> &latencies)
{
    RunSummary r;
    r.makespan = end - first_arrival;
    if (r.makespan > 0.0) {
        r.throughput = static_cast<double>(finished) / r.makespan;
        r.goodput = static_cast<double>(met) / r.makespan;
    }
    r.latency = summarizeSamples(latencies);
    return r;
}

} // namespace edgereason
