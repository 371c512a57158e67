/**
 * @file
 * Deterministic random number generation.  Every stochastic component of
 * the simulator draws from an Rng derived from a named stream so that runs
 * are bit-reproducible regardless of evaluation order, and so that adding a
 * new consumer does not perturb existing streams.
 */

#ifndef EDGEREASON_COMMON_RNG_HH
#define EDGEREASON_COMMON_RNG_HH

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace edgereason {

/**
 * Seeded pseudo-random stream.  Thin wrapper over std::mt19937_64 with the
 * distributions the simulator needs.  Copyable; copies continue the
 * sequence independently.
 */
class Rng
{
  public:
    /** Construct from a raw 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /**
     * Construct a named sub-stream.  The stream name is hashed (FNV-1a)
     * and mixed into the parent seed, giving stable decorrelated streams.
     *
     * @param seed  root seed shared by the whole experiment
     * @param stream  stable stream name, e.g. "decode-noise/DSR1-8B"
     */
    Rng(std::uint64_t seed, std::string_view stream);

    /** @return uniform double in [0, 1). */
    double uniform();
    /** @return uniform double in [lo, hi). */
    double uniform(double lo, double hi);
    /** @return uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);
    /** @return normal deviate with the given mean and stddev. */
    double gaussian(double mean, double stddev);
    /** @return log-normal deviate parameterized by its own mean/stddev. */
    double logNormalMeanStd(double mean, double stddev);
    /** @return true with probability p. */
    bool bernoulli(double p);

    /** Derive a decorrelated child stream. */
    Rng fork(std::string_view stream);

    /** @return stable 64-bit FNV-1a hash of a string.  Passing the
     *  hash of a prefix as @p state continues it, so
     *  hashString(b, hashString(a)) == hashString(a + b). */
    static std::uint64_t
    hashString(std::string_view s,
               std::uint64_t state = 0xCBF29CE484222325ULL)
    {
        for (unsigned char c : s) {
            state ^= c;
            state *= 0x100000001B3ULL;
        }
        return state;
    }

    /**
     * Serialize the full generator state (mt19937_64 state words plus the
     * fork seed) into a portable text form.  loadState() on any host
     * restores the exact point in the sequence, which checkpoint/restore
     * relies on for bit-identical resumed runs.
     */
    std::string saveState() const;
    /** Restore a state produced by saveState(); fatal() on garbage. */
    void loadState(const std::string &state);

  private:
    std::mt19937_64 gen_;
    std::uint64_t seed_;
};

/**
 * Registry of named Rng streams for one run.  Components that need a
 * persistent (checkpointable) stream obtain it through a bank instead of
 * constructing ad-hoc Rngs:
 *
 *  - creating the same stream name twice in one run is a panic() — two
 *    consumers silently sharing (or worse, shadowing) a stream is exactly
 *    the kind of determinism bug that is otherwise invisible;
 *  - streamNames() enumerates live streams so checkpoint serialization
 *    can capture every generator without knowing who created it.
 */
class RngBank
{
  public:
    explicit RngBank(std::uint64_t rootSeed = 0x9E3779B97F4A7C15ULL);

    /** Create a named stream; panic() if @p name already exists. */
    Rng &create(std::string_view name);
    /** @return the existing stream; panic() if it was never created. */
    Rng &get(std::string_view name);
    /** @return true if the stream exists. */
    bool has(std::string_view name) const;
    /** @return sorted names of all live streams. */
    std::vector<std::string> streamNames() const;
    std::uint64_t rootSeed() const { return rootSeed_; }

    /** Capture every stream's state, keyed by name (sorted). */
    std::map<std::string, std::string> serialize() const;
    /**
     * Restore stream states from serialize() output.  Streams present in
     * @p states but not yet created are created first; fatal() if a live
     * stream is missing from @p states (partial restore is forbidden).
     */
    void restore(const std::map<std::string, std::string> &states);

  private:
    std::uint64_t rootSeed_;
    std::map<std::string, Rng, std::less<>> streams_;
};

} // namespace edgereason

#endif // EDGEREASON_COMMON_RNG_HH
