#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hh"

namespace edgereason {

namespace {

/** One fork-join region; lives on the caller's stack for its duration. */
struct Job
{
    const std::function<void(std::size_t)> *body = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::atomic<bool> cancelled{false};
    std::mutex errMu;
    std::exception_ptr error;
};

/**
 * A thread's remaining blocks [front, back), packed into one word
 * (front in the low half) so that the owner's front claim and a
 * thief's back claim race on a single CAS.
 */
struct alignas(64) Range
{
    std::atomic<std::uint64_t> word{0};
};

constexpr std::uint64_t kMaxBlocks = 0xffffffffu;

std::uint64_t
pack(std::uint64_t front, std::uint64_t back)
{
    return front | (back << 32);
}

/** Set while a thread is executing pool tasks (nested-call detection). */
thread_local const void *tl_inside_pool = nullptr;

} // namespace

struct ThreadPool::Impl
{
    unsigned nthreads = 1; //!< logical parallelism incl. the caller
    std::vector<std::thread> workers;
    /** Slot 0 is the caller's range, slot i + 1 worker i's. */
    std::vector<Range> ranges;

    // The job slot: workers join each new generation once, and the
    // caller waits for the ones that joined to leave.
    std::mutex mu;
    std::condition_variable workCv;
    std::condition_variable doneCv;
    Job *job = nullptr;          //!< guarded by mu; null between jobs
    std::uint64_t generation = 0; //!< guarded by mu
    unsigned active = 0;          //!< guarded by mu; workers inside job
    bool stop = false;            //!< guarded by mu

    /** Set while a caller's job occupies the slot. */
    std::atomic<bool> busy{false};
    std::atomic<std::uint64_t> stealCount{0};

    /** Claim the front block of @p self's own range. */
    bool claimFront(std::size_t self, std::uint64_t &block)
    {
        std::atomic<std::uint64_t> &w = ranges[self].word;
        std::uint64_t cur = w.load(std::memory_order_relaxed);
        while (true) {
            const std::uint64_t front = cur & kMaxBlocks;
            const std::uint64_t back = cur >> 32;
            if (front >= back)
                return false;
            if (w.compare_exchange_weak(cur, pack(front + 1, back),
                                        std::memory_order_relaxed)) {
                block = front;
                return true;
            }
        }
    }

    /**
     * Move the back half of another thread's range (its last block when
     * one is left) into @p self's empty range and claim the first block
     * of it.  Thieves land mid-range, far from where its owner and the
     * other thieves work: on the model-ordered sweep grid that spreads
     * the lazy per-model builds over the threads.
     */
    bool steal(std::size_t self, std::uint64_t &block)
    {
        for (std::size_t k = 1; k < nthreads; ++k) {
            std::atomic<std::uint64_t> &w =
                ranges[(self + k) % nthreads].word;
            std::uint64_t cur = w.load(std::memory_order_relaxed);
            while (true) {
                const std::uint64_t front = cur & kMaxBlocks;
                const std::uint64_t back = cur >> 32;
                if (front >= back)
                    break;
                const std::uint64_t mid = front + (back - front) / 2;
                if (w.compare_exchange_weak(cur, pack(front, mid),
                                            std::memory_order_relaxed)) {
                    // A plain store is safe: thieves only CAS a
                    // non-empty range, and only its owner refills one.
                    ranges[self].word.store(pack(mid + 1, back),
                                            std::memory_order_relaxed);
                    stealCount.fetch_add(back - mid,
                                         std::memory_order_relaxed);
                    block = mid;
                    return true;
                }
            }
        }
        return false;
    }

    /**
     * Run blocks until every range is empty or the job is cancelled.
     * A block, once claimed, finishes before this returns, so when the
     * caller and every joined worker have returned the job is complete.
     */
    void work(std::size_t self, Job &j)
    {
        std::uint64_t block;
        while (!j.cancelled.load(std::memory_order_relaxed) &&
               (claimFront(self, block) || steal(self, block))) {
            const std::size_t begin = block * j.grain;
            const std::size_t end = begin + std::min(j.grain, j.n - begin);
            try {
                for (std::size_t i = begin; i < end; ++i)
                    (*j.body)(i);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> g(j.errMu);
                    if (!j.error)
                        j.error = std::current_exception();
                }
                j.cancelled.store(true, std::memory_order_relaxed);
            }
        }
    }

    void workerLoop(std::size_t self)
    {
        tl_inside_pool = this;
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> l(mu);
        while (true) {
            workCv.wait(l, [&] {
                return stop || (job && generation != seen);
            });
            if (stop)
                return;
            seen = generation;
            Job &j = *job;
            ++active;
            l.unlock();
            work(self, j);
            l.lock();
            if (--active == 0)
                doneCv.notify_one();
        }
    }
};

ThreadPool::ThreadPool(unsigned threads) : impl_(new Impl)
{
    if (threads == 0)
        threads = defaultThreads();
    impl_->nthreads = std::max(1u, threads);
    impl_->ranges = std::vector<Range>(impl_->nthreads);
    const unsigned workers = impl_->nthreads - 1;
    impl_->workers.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        impl_->workers.emplace_back(
            [this, i] { impl_->workerLoop(i + 1); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> g(impl_->mu);
        impl_->stop = true;
    }
    impl_->workCv.notify_all();
    for (auto &w : impl_->workers)
        w.join();
}

unsigned
ThreadPool::threadCount() const
{
    return impl_->nthreads;
}

std::uint64_t
ThreadPool::steals() const
{
    return impl_->stealCount.load(std::memory_order_relaxed);
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body,
                        std::size_t grain)
{
    if (n == 0)
        return;
    const std::size_t threads = impl_->nthreads;
    if (grain == 0)
        grain = std::max<std::size_t>(1, n / (8 * threads));
    // Block indices are 32-bit halves of a range word.
    grain = std::max<std::size_t>(grain, (n - 1) / kMaxBlocks + 1);

    // Inline fallback: single-threaded pool, a single block, a nested
    // call from inside a pool task (the outer region already spreads
    // the work), or another caller's job holding the slot.
    if (threads == 1 || n <= grain || tl_inside_pool ||
        impl_->busy.exchange(true, std::memory_order_acquire)) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    Job job;
    job.body = &body;
    job.n = n;
    job.grain = grain;
    const std::uint64_t blocks = (n - 1) / grain + 1;
    for (std::size_t t = 0; t < threads; ++t) {
        impl_->ranges[t].word.store(pack(blocks * t / threads,
                                         blocks * (t + 1) / threads),
                                    std::memory_order_relaxed);
    }
    {
        std::lock_guard<std::mutex> g(impl_->mu);
        impl_->job = &job;
        ++impl_->generation;
    }
    impl_->workCv.notify_all();

    tl_inside_pool = impl_.get();
    impl_->work(0, job);
    tl_inside_pool = nullptr;
    {
        // Close the slot to late wakers, then wait out the joined
        // workers: each leaves only after its last claimed block.
        std::unique_lock<std::mutex> l(impl_->mu);
        impl_->job = nullptr;
        impl_->doneCv.wait(l, [&] { return impl_->active == 0; });
    }
    impl_->busy.store(false, std::memory_order_release);

    if (job.error)
        std::rethrow_exception(job.error);
}

void
ThreadPool::parallelChunks(
    std::size_t n, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        &body)
{
    if (n == 0 || chunks == 0)
        return;
    chunks = std::min(chunks, n);
    const std::size_t base = n / chunks;
    const std::size_t rem = n % chunks;
    // grain 1: a chunk is already a coarse unit of work, so each one
    // is its own block.
    parallelFor(
        chunks,
        [&](std::size_t c) {
            const std::size_t begin = c * base + std::min(c, rem);
            const std::size_t end = begin + base + (c < rem ? 1 : 0);
            body(c, begin, end);
        },
        1);
}

unsigned
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("EDGEREASON_THREADS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (*end == '\0' && v >= 1 && v <= kMaxThreads)
            return static_cast<unsigned>(v);
        warn("ignoring invalid EDGEREASON_THREADS=", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
unsigned g_pool_threads = 0;

} // namespace

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> g(g_pool_mu);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(g_pool_threads);
    return *g_pool;
}

void
ThreadPool::setGlobalThreads(unsigned threads)
{
    std::lock_guard<std::mutex> g(g_pool_mu);
    g_pool_threads = threads;
    g_pool.reset(); // rebuilt lazily on next global()
}

} // namespace edgereason
