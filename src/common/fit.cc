#include "common/fit.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/linalg.hh"
#include "common/logging.hh"

namespace edgereason {

double
LogFit::operator()(double x) const
{
    panic_if(x <= 0.0, "LogFit evaluated at non-positive x");
    return alpha * std::log(x) + beta;
}

LogFit
logFit(const std::vector<double> &x, const std::vector<double> &y)
{
    panic_if(x.size() != y.size(), "logFit: size mismatch");
    fatal_if(x.size() < 2, "logFit: need >= 2 points");
    Matrix design(x.size(), 2);
    for (std::size_t r = 0; r < x.size(); ++r) {
        fatal_if(x[r] <= 0.0, "logFit: non-positive abscissa");
        design.at(r, 0) = std::log(x[r]);
        design.at(r, 1) = 1.0;
    }
    const auto beta = leastSquares(design, y);
    return LogFit{beta[0], beta[1]};
}

double
ExpDecayFit::operator()(double x) const
{
    return a * std::exp(-lambda * x) + c;
}

ExpDecayFit
expDecayFit(const std::vector<double> &x, const std::vector<double> &y,
            double lambda_min, double lambda_max, std::size_t grid)
{
    panic_if(x.size() != y.size(), "expDecayFit: size mismatch");
    fatal_if(x.size() < 3, "expDecayFit: need >= 3 points");
    fatal_if(lambda_min <= 0.0 || lambda_max <= lambda_min,
             "expDecayFit: bad lambda range");

    ExpDecayFit best;
    double best_err = std::numeric_limits<double>::infinity();
    const double log_lo = std::log(lambda_min);
    const double log_hi = std::log(lambda_max);

    for (std::size_t g = 0; g < grid; ++g) {
        const double lambda = std::exp(
            log_lo + (log_hi - log_lo) * static_cast<double>(g) /
                static_cast<double>(grid - 1));
        // With lambda fixed, [A, C] is a linear LS problem.
        Matrix design(x.size(), 2);
        for (std::size_t r = 0; r < x.size(); ++r) {
            design.at(r, 0) = std::exp(-lambda * x[r]);
            design.at(r, 1) = 1.0;
        }
        std::vector<double> beta;
        try {
            beta = leastSquares(design, y);
        } catch (const std::exception &) {
            continue; // Degenerate design at extreme lambda; skip.
        }
        double err = 0.0;
        for (std::size_t r = 0; r < x.size(); ++r) {
            const double pred = beta[0] * design.at(r, 0) + beta[1];
            err += (pred - y[r]) * (pred - y[r]);
        }
        if (err < best_err) {
            best_err = err;
            best = ExpDecayFit{beta[0], lambda, beta[1]};
        }
    }
    fatal_if(!std::isfinite(best_err), "expDecayFit failed to converge");
    return best;
}

double
PiecewiseLogFit::operator()(double x) const
{
    if (x <= breakpoint)
        return head_is_exp ? head_exp(x) : head_const;
    return tail(x);
}

PiecewiseLogFit
piecewiseLogFit(const std::vector<double> &x, const std::vector<double> &y,
                bool exp_head)
{
    panic_if(x.size() != y.size(), "piecewiseLogFit: size mismatch");
    fatal_if(x.size() < 6, "piecewiseLogFit: need >= 6 points");

    // Work on sorted copies.
    std::vector<std::size_t> order(x.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return x[a] < x[b]; });
    std::vector<double> xs(x.size()), ys(x.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        xs[i] = x[order[i]];
        ys[i] = y[order[i]];
    }

    const std::size_t min_side = 3;
    PiecewiseLogFit best;
    double best_err = std::numeric_limits<double>::infinity();

    for (std::size_t split = min_side; split + min_side <= xs.size();
         ++split) {
        const std::vector<double> hx(xs.begin(), xs.begin() + split);
        const std::vector<double> hy(ys.begin(), ys.begin() + split);
        const std::vector<double> tx(xs.begin() + split, xs.end());
        const std::vector<double> ty(ys.begin() + split, ys.end());

        PiecewiseLogFit cand;
        cand.breakpoint = xs[split - 1];
        cand.head_is_exp = exp_head;
        double err = 0.0;
        try {
            if (exp_head) {
                cand.head_exp = expDecayFit(hx, hy);
                for (std::size_t i = 0; i < hx.size(); ++i) {
                    const double d = cand.head_exp(hx[i]) - hy[i];
                    err += d * d;
                }
            } else {
                double m = 0.0;
                for (double v : hy)
                    m += v;
                m /= static_cast<double>(hy.size());
                cand.head_const = m;
                for (double v : hy)
                    err += (v - m) * (v - m);
            }
            cand.tail = logFit(tx, ty);
            for (std::size_t i = 0; i < tx.size(); ++i) {
                const double d = cand.tail(tx[i]) - ty[i];
                err += d * d;
            }
        } catch (const std::exception &) {
            continue;
        }
        if (err < best_err) {
            best_err = err;
            best = cand;
        }
    }
    fatal_if(!std::isfinite(best_err), "piecewiseLogFit failed");
    return best;
}

} // namespace edgereason
