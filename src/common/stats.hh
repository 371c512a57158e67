/**
 * @file
 * Descriptive statistics used throughout characterization: running
 * mean/variance accumulators, MAPE (the paper's validation metric for its
 * analytical models, Tables VI and VIII), and percentile helpers.
 */

#ifndef EDGEREASON_COMMON_STATS_HH
#define EDGEREASON_COMMON_STATS_HH

#include <cstddef>
#include <vector>

#include "common/binio.hh"

namespace edgereason {

/**
 * Welford running accumulator for mean / variance / extrema.
 * Numerically stable for long measurement series.
 */
class RunningStats
{
  public:
    /** Add one sample. */
    void add(double x);
    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    /** @return number of samples added. */
    std::size_t count() const { return n_; }
    /** @return sample mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }
    /** @return unbiased sample variance (0 when n < 2). */
    double variance() const;
    /** @return unbiased sample standard deviation. */
    double stddev() const;
    /** @return smallest sample seen. */
    double min() const { return min_; }
    /** @return largest sample seen. */
    double max() const { return max_; }
    /** @return sum of all samples. */
    double sum() const { return mean_ * static_cast<double>(n_); }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * P² (piecewise-parabolic) streaming quantile estimator (Jain &
 * Chambers 1985): tracks one quantile of an unbounded sample stream in
 * O(1) space with five markers, no sample buffer.  The fleet's
 * adaptive health breaker keeps one per node for the completion-
 * latency p95, so the estimator state checkpoints with the fleet —
 * its io() field list round-trips every marker bit-exactly, which is
 * what keeps crash-resumed adaptive runs bit-identical.
 *
 * The first five samples are held verbatim (value() then computes the
 * exact order statistic); from the sixth sample on, the five markers
 * move by the parabolic update.  Fully deterministic: the estimate is
 * a pure function of the sample sequence.
 */
class P2Quantile
{
  public:
    /** @param p  quantile in (0, 1), e.g. 0.95 for the p95. */
    explicit P2Quantile(double p = 0.95);

    /** Add one sample. */
    void add(double x);

    /** @return the current quantile estimate (0 when empty; the exact
     *  order statistic while fewer than five samples are in). */
    double value() const;

    /** @return number of samples added. */
    std::size_t count() const { return n_; }

    /** @return the tracked quantile in (0, 1). */
    double quantile() const { return p_; }

    /** Checkpoint field list: every marker height/position plus the
     *  sample count, bit-exact through binio's f64. */
    template <class Ar>
    void io(Ar &a)
    {
        a.f64(p_);
        a.u64(n_);
        for (double *m : {q_, pos_, want_})
            for (int i = 0; i < 5; ++i)
                a.f64(m[i]);
    }

  private:
    double p_;
    std::size_t n_ = 0;
    double q_[5] = {0, 0, 0, 0, 0};    //!< marker heights
    double pos_[5] = {0, 0, 0, 0, 0};  //!< marker positions (1-based)
    double want_[5] = {0, 0, 0, 0, 0}; //!< desired positions
};

/**
 * Mean absolute percentage error between predictions and measurements,
 * in percent.  Entries with |actual| below @p eps are skipped to avoid
 * division blow-up.
 */
double mape(const std::vector<double> &predicted,
            const std::vector<double> &actual, double eps = 1e-12);

/** Arithmetic mean of a vector, a RunningStats in order (0 when empty). */
double mean(const std::vector<double> &xs);

/**
 * Linear-interpolated percentile.
 * @param xs  samples (copied and sorted internally)
 * @param p  percentile in [0, 100]
 */
double percentile(std::vector<double> xs, double p);

/**
 * percentile() over samples already sorted ascending: the same
 * interpolation without the copy and sort.
 * @param sorted  non-empty samples in ascending order
 * @param p  percentile in [0, 100]
 */
double sortedPercentile(const std::vector<double> &sorted, double p);

/** Mean and percentiles of one sample set (all 0 when empty). */
struct SampleSummary
{
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
};

/** mean(@p xs) in the order given, then every percentile from one
 *  in-place sort through sortedPercentile(). */
SampleSummary summarizeSamples(std::vector<double> &xs);

/** Makespan, rates and latency statistics of one serving run. */
struct RunSummary
{
    double makespan = 0.0;   //!< first arrival -> end of the run
    double throughput = 0.0; //!< finished requests per second
    double goodput = 0.0;    //!< deadline-met requests per second
    SampleSummary latency;   //!< over the finished requests
};

/** The report fold the server and the fleet share: rates over
 *  @p end - @p first_arrival (0 unless positive), @p latencies in
 *  completion order summarized (and sorted) by summarizeSamples(). */
RunSummary summarizeRun(double first_arrival, double end,
                        std::size_t finished, std::size_t met,
                        std::vector<double> &latencies);

} // namespace edgereason

#endif // EDGEREASON_COMMON_STATS_HH
