#include "common/distributions.hh"

#include <cmath>

#include "common/logging.hh"

namespace edgereason {

double
normCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double
normInv(double p)
{
    fatal_if(p <= 0.0 || p >= 1.0, "normInv domain error: ", p);

    // Acklam's approximation.
    static const double a[] = {-3.969683028665376e+01,
        2.209460984245205e+02, -2.759285104469687e+02,
        1.383577518672690e+02, -3.066479806614716e+01,
        2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01,
        1.615858368580409e+02, -1.556989798598866e+02,
        6.680131188771972e+01, -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03,
        -3.223964580411365e-01, -2.400758277161838e+00,
        -2.549732539343734e+00, 4.374664141464968e+00,
        2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03,
        3.224671290700398e-01, 2.445134137142996e+00,
        3.754408661907416e+00};

    const double plow = 0.02425;
    double x;
    if (p < plow) {
        const double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) *
                 q + c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= 1.0 - plow) {
        const double q = p - 0.5;
        const double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) *
                 r + a[5]) * q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) *
                 r + 1.0);
    } else {
        const double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) *
                  q + c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }

    // One Halley refinement step.
    const double e = normCdf(x) - p;
    const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
    x -= u / (1.0 + x * u / 2.0);
    return x;
}

double
logistic(double x)
{
    return 1.0 / (1.0 + std::exp(-x));
}

double
cappedLogNormalMean(double mean, double cv, double cap)
{
    fatal_if(mean <= 0.0 || cap <= 0.0, "capped mean domain error");
    if (cv <= 0.0)
        return std::min(mean, cap);
    const double sigma2 = std::log1p(cv * cv);
    const double sigma = std::sqrt(sigma2);
    const double mu = std::log(mean) - 0.5 * sigma2;
    const double lc = std::log(cap);
    // E[X; X < c] = mean * Phi((ln c - mu - sigma^2)/sigma)
    const double below = mean * normCdf((lc - mu - sigma2) / sigma);
    const double above = cap * (1.0 - normCdf((lc - mu) / sigma));
    return below + above;
}

double
solveLogNormalMeanForCap(double target_mean, double cv, double cap)
{
    fatal_if(target_mean <= 0.0, "target mean must be positive");
    fatal_if(target_mean > cap, "target mean ", target_mean,
             " exceeds cap ", cap);
    double lo = target_mean;
    double hi = target_mean;
    while (cappedLogNormalMean(hi, cv, cap) < target_mean) {
        hi *= 1.5;
        if (hi > 1e9) {
            // Cap prevents reaching the target mean; saturate.
            return hi;
        }
    }
    for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (cappedLogNormalMean(mid, cv, cap) < target_mean)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

} // namespace edgereason
