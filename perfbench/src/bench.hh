/**
 * @file
 * Shared types of the repository benchmark: the span tracer, the metric
 * records it prints, and the workload interface.  See perfbench/README.md
 * for what each workload loads and why.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** @return user+sys CPU seconds of the whole process (all threads). */
double processCpuSeconds();

/** FNV-1a of @p s, as 16 hex digits. */
std::string hexDigest(const std::string &s);

/**
 * In-memory span recorder for the traced run.  Spans are opened and
 * closed only by the benchmark's own thread, around its calls into the
 * library's public functions; each span's parent is the innermost span
 * open when it started.  Nothing is written until writeChromeTrace().
 * A disabled tracer records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Tag spans opened from now on with @p workload. */
    void setWorkload(const std::string &workload) { workload_ = workload; }

    /** Open a span named `<layer>.<call>`.  @return its id (-1 when
     *  disabled). */
    int open(const std::string &name);
    void close(int id);

    /** Write every span as Chrome trace-event JSON (opens in Perfetto);
     *  @p meta_json is stored under "metadata".  @return false on an
     *  I/O error. */
    bool writeChromeTrace(const std::string &path,
                          const std::string &meta_json) const;

    /** Self time per layer in seconds: each span's duration minus its
     *  direct children's, summed by the name's prefix before '.'. */
    std::vector<std::pair<std::string, double>> layerSelfSeconds() const;

  private:
    struct Record
    {
        std::string name;
        std::string workload;
        int parent = -1;
        double startUs = 0.0;
        double endUs = 0.0;
    };

    bool enabled_;
    Clock::time_point origin_;
    std::string workload_;
    std::vector<Record> spans_;
    std::vector<int> open_;
};

/** RAII span over one benchmark-side call. */
class Span
{
  public:
    Span(Tracer &t, const std::string &name) : t_(t), id_(t.open(name)) {}
    ~Span() { t_.close(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
};

/** Metrics in print order. */
using Metrics = std::vector<Metric>;

/** One measured repetition of a workload. */
struct Rep
{
    double setupS = 0.0; //!< inputs + program state for this repetition
    double wallS = 0.0;  //!< the whole measured phase
    double cpuS = 0.0;   //!< user+sys over the measured phase
    /** Wall time of the part the two rates below are taken over. */
    double rateWallS = 0.0;
    double questionEvals = 0.0; //!< (strategy, question) evals or requests
    double simTokens = 0.0;     //!< simulated generated tokens
    std::vector<double> callMs; //!< one per timed public call
    std::size_t calls = 0;      //!< checked calls
    std::size_t failedCalls = 0;
    std::vector<std::string> failures;
    /** Deterministic simulated outputs (sim_* metrics, in sim time). */
    Metrics sim;
    /** %.17g rendering of the simulated report(s); must repeat exactly. */
    std::string digest;

    /** Record a checked call; a false @p ok counts it as failed. */
    void check(bool ok, const std::string &what);
};

/** One benchmark workload: fixed inputs from a seed, a measured phase. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs and a fresh program state for one repetition
     *  (timed as set-up). */
    virtual void setup(Tracer &t) = 0;

    /** Run the measured phase once on the state setup() built. */
    virtual void run(Tracer &t, Rep &rep) = 0;

    /** Traced run only: counts from the last run() plus this
     *  workload's per-layer rungs; rung outputs are checked into
     *  @p checks. */
    virtual void layers(Tracer &t, Metrics &out, Rep &checks) = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * @param small  self-test size (same code paths, a few seconds).
 * @return the workload, or null for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, bool small,
                                       const std::string &scratch_dir);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
