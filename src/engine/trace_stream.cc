#include "engine/trace_stream.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace edgereason {
namespace engine {

PoissonTraceStream::PoissonTraceStream(Rng &rng, std::size_t n,
                                       double qps, double mean_in,
                                       double mean_out, double cv)
    : rng_(&rng), n_(n), qps_(qps), meanIn_(mean_in),
      meanOut_(mean_out), cv_(cv)
{
    fatal_if(qps_ <= 0.0, "qps must be positive");
}

PoissonTraceStream::PoissonTraceStream(std::uint64_t seed,
                                       std::string_view name,
                                       std::size_t n, double qps,
                                       double mean_in, double mean_out,
                                       double cv)
    : own_(seed, name), rng_(&own_), n_(n), qps_(qps),
      meanIn_(mean_in), meanOut_(mean_out), cv_(cv)
{
    fatal_if(qps_ <= 0.0, "qps must be positive");
}

namespace {

/** A sampled request length as a token count (at least 8).  A sample
 *  at or past 2^63 has no long long to round to, so it is an error
 *  naming the mean it came from rather than an unspecified length. */
Tokens
sampledLength(double x, const char *mean_name, double mean)
{
    fatal_if(!(x < 0x1p63), "sampled request length ", x,
             " tokens is past the token range (", mean_name, " ", mean,
             ")");
    return std::max<Tokens>(8, static_cast<Tokens>(std::llround(x)));
}

} // namespace

ServerRequest
PoissonTraceStream::next()
{
    panic_if(drawn_ >= n_, "trace stream exhausted after ", n_,
             " requests");
    // The draw sequence below is poissonTrace's, verbatim: one
    // uniform for the inter-arrival gap, then the two log-normal
    // length draws, per request.
    t_ += -std::log(1.0 - rng_->uniform()) / qps_;
    ServerRequest r;
    r.arrival = t_;
    const double in = rng_->logNormalMeanStd(meanIn_, cv_ * meanIn_);
    const double out = rng_->logNormalMeanStd(meanOut_, cv_ * meanOut_);
    r.inputTokens = sampledLength(in, "mean-in", meanIn_);
    r.outputTokens = sampledLength(out, "mean-out", meanOut_);
    if (deadline_ > 0.0)
        r.deadline = deadline_;
    ++drawn_;
    return r;
}

} // namespace engine
} // namespace edgereason
