/**
 * @file
 * Fork-join thread pool for the sweep layers (planner candidate grids,
 * Pareto sweeps, per-question Monte-Carlo evaluation, serving
 * replications).  A parallelFor cuts [0, n) into blocks of `grain`
 * iterations and hands each thread (the caller included) one
 * contiguous range of blocks, packed as [front, back) into a single
 * atomic word.  A thread claims blocks from the front of its own range
 * with one CAS; once that is empty it moves the back half of another
 * thread's range into its own, so imbalanced strategy grids (a
 * Base-policy 14B evaluation is ~100x a 32T 1.5B one) still keep every
 * core busy, and threads work far apart in the grid rather than on
 * adjacent indices.  steals() counts the blocks moved that way.
 *
 * One job slot wakes the workers.  A call that finds the slot held by
 * another caller's job runs inline on its own thread, as does a nested
 * call from inside a body, a single-block call and every call on a
 * one-thread pool.
 *
 * Determinism contract: parallelFor/parallelMap impose no ordering on
 * bodies, so callers must write results to index-addressed slots and
 * derive any randomness from the index, never from execution order.
 * Under that contract results are bit-identical at every thread count,
 * including the serial fallback.
 *
 * The pool size is resolved from, in priority order: an explicit
 * constructor argument, the EDGEREASON_THREADS environment variable,
 * and std::thread::hardware_concurrency().  A size of 1 means "no
 * worker threads": every parallelFor runs inline on the caller.
 */

#ifndef EDGEREASON_COMMON_THREAD_POOL_HH
#define EDGEREASON_COMMON_THREAD_POOL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace edgereason {

/** Range-per-thread pool with deterministic fork-join primitives. */
class ThreadPool
{
  public:
    /** Largest pool size a flag or EDGEREASON_THREADS may ask for. */
    static constexpr unsigned kMaxThreads = 1024;

    /**
     * @param threads  total worker count including the calling thread;
     *   0 resolves EDGEREASON_THREADS, then hardware concurrency.
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return total parallelism (background workers + the caller). */
    unsigned threadCount() const;

    /**
     * Run @p body(i) for every i in [0, n).  Blocks until all
     * iterations finish; the caller participates in execution.  The
     * first exception thrown by a body is rethrown here (remaining
     * iterations are skipped).  Nested calls from inside a body, and
     * calls made while another caller's job holds the pool, run
     * serially on the calling thread.
     *
     * @param grain  iterations per block, the unit a thread claims; 0
     *   picks n / (8 * threads), clamped to at least 1.  Raised when
     *   n / grain would exceed 2^32 - 1 blocks.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body,
                     std::size_t grain = 0);

    /**
     * Map @p fn over @p items; the result vector preserves input
     * order regardless of scheduling.
     */
    template <typename T, typename F>
    auto parallelMap(const std::vector<T> &items, F &&fn,
                     std::size_t grain = 0)
        -> std::vector<decltype(fn(items[0]))>
    {
        using R = decltype(fn(items[0]));
        std::vector<R> out(items.size());
        parallelFor(items.size(),
                    [&](std::size_t i) { out[i] = fn(items[i]); },
                    grain ? grain : 1);
        return out;
    }

    /**
     * Partition [0, n) into @p chunks contiguous ranges of near-equal
     * size (the first n % chunks ranges get one extra element) and run
     * @p body(chunk, begin, end) for each in parallel, one block per
     * chunk.  The partition is a pure function of (n, chunks) — never
     * of the thread count — so callers that keep per-chunk state
     * (RNG streams, accumulators) get bit-identical results at any
     * parallelism.  Chunks beyond n are not invoked.
     */
    void parallelChunks(
        std::size_t n, std::size_t chunks,
        const std::function<void(std::size_t, std::size_t, std::size_t)>
            &body);

    /**
     * @return steals since construction: blocks a thread moved from
     *   the back of another thread's range into its own.  Blocks of a
     *   thread's initial range are never counted.
     */
    std::uint64_t steals() const;

    /**
     * Process-wide pool shared by the sweep layers, built on first use
     * with the configured thread count.
     */
    static ThreadPool &global();

    /**
     * Replace the global pool with one of @p threads workers (0 =
     * re-resolve the environment).  Must not race with users of the
     * old pool; intended for CLI startup and test setup.
     */
    static void setGlobalThreads(unsigned threads);

    /**
     * @return thread count resolved from the environment: a whole
     *   EDGEREASON_THREADS value in [1, kMaxThreads], else the hardware
     *   concurrency.
     */
    static unsigned defaultThreads();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace edgereason

#endif // EDGEREASON_COMMON_THREAD_POOL_HH
