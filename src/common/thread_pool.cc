#include "common/thread_pool.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hh"

namespace edgereason {

namespace {

/** One fork-join region; lives on the caller's stack for its duration. */
struct ForJob
{
    const std::function<void(std::size_t)> *body = nullptr;
    std::size_t grain = 1;
    std::atomic<std::size_t> remaining{0}; //!< iterations not yet retired
    std::atomic<bool> cancelled{false};
    std::mutex errMu;
    std::exception_ptr error;
    std::mutex doneMu;
    std::condition_variable doneCv;
    bool done = false; //!< guarded by doneMu; set by the last retiree
};

/** A contiguous iteration range of one job. */
struct RangeTask
{
    ForJob *job;
    std::size_t begin;
    std::size_t end;
    /** Thread that split this range off; default-constructed for seeds. */
    std::thread::id splitter;
};

/**
 * Chase-Lev work-stealing deque (Le et al., "Correct and Efficient
 * Work-Stealing for Weak Memory Models").  The owner pushes and pops at
 * the bottom without contention; thieves CAS the top.  Retired buffers
 * are kept until destruction because a slow thief may still be reading
 * a stale buffer pointer.
 */
class WorkDeque
{
  public:
    explicit WorkDeque(std::size_t capacity = 64)
    {
        buffers_.push_back(std::make_unique<Buffer>(capacity));
        buf_.store(buffers_.back().get(), std::memory_order_relaxed);
    }

    /** Owner only. */
    void push(RangeTask *t)
    {
        const std::int64_t b = bottom_.load(std::memory_order_relaxed);
        const std::int64_t top = top_.load(std::memory_order_acquire);
        Buffer *a = buf_.load(std::memory_order_relaxed);
        if (b - top > static_cast<std::int64_t>(a->capacity) - 1)
            a = grow(a, top, b);
        a->at(b).store(t, std::memory_order_relaxed);
        // Publish the slot to thieves' acquire load of bottom_ with a
        // release store: ThreadSanitizer does not model a standalone
        // release fence followed by a relaxed store.
        bottom_.store(b + 1, std::memory_order_release);
    }

    /** Owner only. @return nullptr when empty. */
    RangeTask *pop()
    {
        const std::int64_t b =
            bottom_.load(std::memory_order_relaxed) - 1;
        Buffer *a = buf_.load(std::memory_order_relaxed);
        bottom_.store(b, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        std::int64_t top = top_.load(std::memory_order_relaxed);
        RangeTask *x = nullptr;
        if (top <= b) {
            x = a->at(b).load(std::memory_order_relaxed);
            if (top == b) {
                // Last element: race the thieves for it.
                if (!top_.compare_exchange_strong(
                        top, top + 1, std::memory_order_seq_cst,
                        std::memory_order_relaxed))
                    x = nullptr;
                bottom_.store(b + 1, std::memory_order_relaxed);
            }
        } else {
            bottom_.store(b + 1, std::memory_order_relaxed);
        }
        return x;
    }

    /** Any thread. @return nullptr when empty or the race was lost. */
    RangeTask *steal()
    {
        std::int64_t top = top_.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const std::int64_t b = bottom_.load(std::memory_order_acquire);
        if (top >= b)
            return nullptr;
        Buffer *a = buf_.load(std::memory_order_acquire);
        RangeTask *x = a->at(top).load(std::memory_order_relaxed);
        if (!top_.compare_exchange_strong(top, top + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
            return nullptr;
        return x;
    }

    /** Racy emptiness hint for wakeup decisions. */
    bool looksEmpty() const
    {
        return top_.load(std::memory_order_acquire) >=
            bottom_.load(std::memory_order_acquire);
    }

  private:
    struct Buffer
    {
        explicit Buffer(std::size_t cap)
            : capacity(cap),
              slots(std::make_unique<std::atomic<RangeTask *>[]>(cap))
        {
        }
        std::atomic<RangeTask *> &at(std::int64_t i)
        {
            return slots[static_cast<std::size_t>(i) & (capacity - 1)];
        }
        const std::size_t capacity; //!< power of two
        std::unique_ptr<std::atomic<RangeTask *>[]> slots;
    };

    Buffer *grow(Buffer *old, std::int64_t top, std::int64_t bottom)
    {
        auto grown = std::make_unique<Buffer>(old->capacity * 2);
        for (std::int64_t i = top; i < bottom; ++i) {
            grown->at(i).store(old->at(i).load(
                                   std::memory_order_relaxed),
                               std::memory_order_relaxed);
        }
        Buffer *raw = grown.get();
        buffers_.push_back(std::move(grown)); // owner-only container
        buf_.store(raw, std::memory_order_release);
        return raw;
    }

    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
    std::atomic<Buffer *> buf_{nullptr};
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/** Set while a thread is executing pool tasks (nested-call detection). */
thread_local const void *tl_inside_pool = nullptr;

} // namespace

struct ThreadPool::Impl
{
    unsigned nthreads = 1; //!< logical parallelism incl. the caller
    std::vector<std::thread> workers;
    std::vector<std::unique_ptr<WorkDeque>> deques; //!< one per worker

    // External submissions (callers have no deque of their own).
    std::mutex inboxMu;
    std::deque<RangeTask *> inbox;

    // Sleep/wake machinery.
    std::mutex sleepMu;
    std::condition_variable workCv;
    std::atomic<int> sleepers{0};
    std::atomic<std::size_t> pending{0}; //!< queued (not running) tasks
    std::atomic<bool> stop{false};

    std::atomic<std::uint64_t> stealCount{0};

    void enqueueExternal(RangeTask *t)
    {
        {
            std::lock_guard<std::mutex> g(inboxMu);
            inbox.push_back(t);
        }
        pending.fetch_add(1);
        wake(true);
    }

    RangeTask *takeExternal()
    {
        RangeTask *t;
        {
            std::lock_guard<std::mutex> g(inboxMu);
            if (inbox.empty())
                return nullptr;
            t = inbox.front();
            inbox.pop_front();
        }
        pending.fetch_sub(1);
        // A caller's split halves travel through the inbox rather than a
        // deque; one taken by another thread is a steal all the same.
        if (t->splitter != std::thread::id() &&
            t->splitter != std::this_thread::get_id())
            stealCount.fetch_add(1, std::memory_order_relaxed);
        return t;
    }

    void wake(bool all)
    {
        if (sleepers.load() == 0)
            return;
        // The lock pairs with the sleeper's predicate check so a wakeup
        // between check and wait cannot be missed.
        std::lock_guard<std::mutex> g(sleepMu);
        if (all)
            workCv.notify_all();
        else
            workCv.notify_one();
    }

    /** Steal one task from any other worker's deque. */
    RangeTask *stealFrom(std::size_t self)
    {
        const std::size_t n = deques.size();
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t victim = (self + 1 + k) % n;
            if (victim == self)
                continue;
            if (RangeTask *t = deques[victim]->steal()) {
                pending.fetch_sub(1);
                stealCount.fetch_add(1, std::memory_order_relaxed);
                return t;
            }
        }
        return nullptr;
    }

    /**
     * Execute a range: split halves back onto @p own (or the inbox for
     * deque-less callers) until at the grain, then run the body.
     */
    void runTask(RangeTask *task, WorkDeque *own)
    {
        ForJob *job = task->job;
        std::size_t begin = task->begin;
        std::size_t end = task->end;
        delete task;

        while (end - begin > job->grain) {
            const std::size_t mid = begin + (end - begin) / 2;
            auto *half =
                new RangeTask{job, mid, end, std::this_thread::get_id()};
            if (own) {
                own->push(half);
                pending.fetch_add(1);
                wake(false);
            } else {
                enqueueExternal(half);
            }
            end = mid;
        }

        if (!job->cancelled.load(std::memory_order_relaxed)) {
            try {
                for (std::size_t i = begin; i < end; ++i)
                    (*job->body)(i);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> g(job->errMu);
                    if (!job->error)
                        job->error = std::current_exception();
                }
                job->cancelled.store(true, std::memory_order_relaxed);
            }
        }

        // The last retiree flips `done` and notifies while holding
        // doneMu; the caller re-acquires doneMu and checks `done`
        // before letting the job leave scope, so no thread can still
        // be inside this block when the ForJob is destroyed.
        const std::size_t count = end - begin;
        if (job->remaining.fetch_sub(count,
                                     std::memory_order_acq_rel) ==
            count) {
            std::lock_guard<std::mutex> g(job->doneMu);
            job->done = true;
            job->doneCv.notify_all();
        }
    }

    void workerLoop(std::size_t self)
    {
        tl_inside_pool = this;
        WorkDeque *own = deques[self].get();
        while (true) {
            RangeTask *t = own->pop();
            if (t)
                pending.fetch_sub(1);
            else
                t = takeExternal();
            if (!t)
                t = stealFrom(self);
            if (t) {
                runTask(t, own);
                continue;
            }
            std::unique_lock<std::mutex> l(sleepMu);
            sleepers.fetch_add(1);
            workCv.wait(l, [&] {
                return stop.load(std::memory_order_acquire) ||
                    pending.load() > 0;
            });
            sleepers.fetch_sub(1);
            if (stop.load(std::memory_order_acquire))
                return;
        }
    }
};

ThreadPool::ThreadPool(unsigned threads) : impl_(new Impl)
{
    if (threads == 0)
        threads = defaultThreads();
    impl_->nthreads = std::max(1u, threads);
    const unsigned workers = impl_->nthreads - 1;
    impl_->deques.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        impl_->deques.push_back(std::make_unique<WorkDeque>());
    impl_->workers.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        impl_->workers.emplace_back(
            [this, i] { impl_->workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    impl_->stop.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> g(impl_->sleepMu);
    }
    impl_->workCv.notify_all();
    for (auto &w : impl_->workers)
        w.join();
    // No tasks can remain: parallelFor drains its job before returning.
    panic_if(!impl_->inbox.empty(),
             "thread pool destroyed with queued work");
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
    if (grain == 0)
        grain = std::max<std::size_t>(
            1, n / (8 * static_cast<std::size_t>(impl_->nthreads)));

    // Serial fallback: single-threaded pool, tiny ranges, or a nested
    // call from inside a pool task (the outer region already spreads
    // the work; recursing would deadlock the caller's help loop).
    if (impl_->nthreads == 1 || n <= grain || tl_inside_pool) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    ForJob job;
    job.body = &body;
    job.grain = grain;
    job.remaining.store(n, std::memory_order_relaxed);

    // Seed one coarse range per thread; splitting does the rest.
    const std::size_t seeds =
        std::min<std::size_t>(impl_->nthreads, (n + grain - 1) / grain);
    std::size_t begin = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
        const std::size_t end = n * (s + 1) / seeds;
        if (end > begin)
            impl_->enqueueExternal(new RangeTask{&job, begin, end, {}});
        begin = end;
    }

    // Help until the job retires, then wait out any straggler worker.
    tl_inside_pool = impl_.get();
    while (job.remaining.load(std::memory_order_acquire) > 0) {
        RangeTask *t = impl_->takeExternal();
        if (!t)
            t = impl_->stealFrom(impl_->deques.size());
        if (t) {
            // May belong to a concurrent caller's job; running it here
            // is still correct and makes progress for them.
            impl_->runTask(t, nullptr);
            continue;
        }
        std::unique_lock<std::mutex> l(job.doneMu);
        job.doneCv.wait_for(l, std::chrono::milliseconds(1),
                            [&] { return job.done; });
    }
    // Synchronize with the finishing thread: only after it has set
    // `done` and released doneMu is the stack job safe to destroy.
    {
        std::unique_lock<std::mutex> l(job.doneMu);
        job.doneCv.wait(l, [&] { return job.done; });
    }
    tl_inside_pool = nullptr;

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
    // grain 1: a chunk is already a coarse unit of work; splitting one
    // would break the per-chunk state contract.
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
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
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
