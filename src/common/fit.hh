/**
 * @file
 * Generic 1-D curve fitters used by the analytical performance models
 * (Section IV): logarithmic, exponential-decay and piecewise families.  Nonlinear parameters (decay rates, breakpoints) are resolved
 * by profile search: the nonlinear parameter is scanned over a grid and
 * the remaining linear parameters are solved in closed form, picking the
 * combination with minimum squared error.
 */

#ifndef EDGEREASON_COMMON_FIT_HH
#define EDGEREASON_COMMON_FIT_HH

#include <cstddef>
#include <vector>

namespace edgereason {

/** Result of a logarithmic fit y = alpha * ln(x) + beta. */
struct LogFit
{
    double alpha = 0.0; //!< slope on ln(x)
    double beta = 0.0;  //!< intercept

    /** Evaluate the fitted curve at x (> 0). */
    double operator()(double x) const;
};

/** Fit y = alpha ln(x) + beta by least squares (x must be positive). */
LogFit logFit(const std::vector<double> &x, const std::vector<double> &y);

/** Result of an exponential-decay fit y = A exp(-lambda x) + C. */
struct ExpDecayFit
{
    double a = 0.0;      //!< amplitude A
    double lambda = 0.0; //!< decay rate
    double c = 0.0;      //!< asymptote C

    /** Evaluate the fitted curve at x. */
    double operator()(double x) const;
};

/**
 * Fit y = A exp(-lambda x) + C.  lambda is found by golden-grid profile
 * search over [lambdaMin, lambdaMax]; A and C are then linear.
 */
ExpDecayFit expDecayFit(const std::vector<double> &x,
                        const std::vector<double> &y,
                        double lambda_min = 1e-5, double lambda_max = 1.0,
                        std::size_t grid = 400);

/**
 * Piecewise model used for prefill/decode power and energy (Eqns. 4-6):
 * a constant or exponential-decay head below a breakpoint v, and a
 * logarithmic tail above it.
 */
struct PiecewiseLogFit
{
    double breakpoint = 0.0; //!< transition point v
    bool head_is_exp = false; //!< true: exp-decay head, false: constant
    double head_const = 0.0;  //!< u for the constant head
    ExpDecayFit head_exp;     //!< parameters for the exp-decay head
    LogFit tail;              //!< log tail parameters

    /** Evaluate at x. */
    double operator()(double x) const;
};

/**
 * Fit the piecewise const/exp + log model.  The breakpoint is profiled
 * over the candidate x values; for each candidate the head and tail are
 * fitted independently, and the split with minimum total squared error
 * wins.  Requires at least three points on each side.
 *
 * @param exp_head  fit an exponential-decay head instead of a constant
 */
PiecewiseLogFit piecewiseLogFit(const std::vector<double> &x,
                                const std::vector<double> &y,
                                bool exp_head);

} // namespace edgereason

#endif // EDGEREASON_COMMON_FIT_HH
