#include "common/rng.hh"

#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace edgereason {

namespace {

/** splitmix64 finalizer, used to spread seed entropy. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed) : gen_(mix64(seed)), seed_(seed)
{
}

Rng::Rng(std::uint64_t seed, std::string_view stream)
    : Rng(mix64(seed ^ hashString(stream)))
{
}

double
Rng::uniform()
{
    return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
}

double
Rng::uniform(double lo, double hi)
{
    panic_if(hi < lo, "uniform bounds inverted");
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    panic_if(hi < lo, "uniformInt bounds inverted");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
}

double
Rng::gaussian(double mean, double stddev)
{
    return std::normal_distribution<double>(mean, stddev)(gen_);
}

double
Rng::logNormalMeanStd(double mean, double stddev)
{
    panic_if(mean <= 0.0, "log-normal mean must be positive");
    // Convert the distribution's own mean/stddev to the underlying
    // normal's (mu, sigma).
    const double cv2 = (stddev / mean) * (stddev / mean);
    const double sigma2 = std::log1p(cv2);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::lognormal_distribution<double>(mu, std::sqrt(sigma2))(gen_);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

Rng
Rng::fork(std::string_view stream)
{
    return Rng(seed_ ^ mix64(hashString(stream)));
}

std::string
Rng::saveState() const
{
    // mt19937_64's operator<< emits the full state as decimal words
    // separated by spaces; prepend the fork seed so fork() keeps working
    // after a restore.
    std::ostringstream os;
    os << seed_ << ' ' << gen_;
    return os.str();
}

void
Rng::loadState(const std::string &state)
{
    std::istringstream is(state);
    std::uint64_t seed = 0;
    std::mt19937_64 gen;
    is >> seed >> gen;
    fatal_if(is.fail(), "Rng::loadState: malformed generator state");
    seed_ = seed;
    gen_ = gen;
}

RngBank::RngBank(std::uint64_t rootSeed) : rootSeed_(rootSeed)
{
}

Rng &
RngBank::create(std::string_view name)
{
    panic_if(streams_.count(name) != 0,
             "RngBank: duplicate named-stream creation: \"", name,
             "\" (two consumers would silently share one stream)");
    auto [it, inserted] =
        streams_.emplace(std::string(name), Rng(rootSeed_, name));
    (void)inserted;
    return it->second;
}

Rng &
RngBank::get(std::string_view name)
{
    auto it = streams_.find(name);
    panic_if(it == streams_.end(),
             "RngBank: unknown stream \"", name, "\"");
    return it->second;
}

bool
RngBank::has(std::string_view name) const
{
    return streams_.count(name) != 0;
}

std::vector<std::string>
RngBank::streamNames() const
{
    std::vector<std::string> names;
    names.reserve(streams_.size());
    for (const auto &[name, rng] : streams_)
        names.push_back(name);
    return names; // std::map iteration order is already sorted
}

std::map<std::string, std::string>
RngBank::serialize() const
{
    std::map<std::string, std::string> states;
    for (const auto &[name, rng] : streams_)
        states[name] = rng.saveState();
    return states;
}

void
RngBank::restore(const std::map<std::string, std::string> &states)
{
    for (const auto &[name, rng] : streams_) {
        fatal_if(states.count(name) == 0,
                 "RngBank::restore: live stream \"", name,
                 "\" missing from checkpoint; refusing partial restore");
    }
    for (const auto &[name, state] : states) {
        auto it = streams_.find(name);
        if (it == streams_.end())
            it = streams_.emplace(name, Rng(rootSeed_, name)).first;
        it->second.loadState(state);
    }
}

} // namespace edgereason
