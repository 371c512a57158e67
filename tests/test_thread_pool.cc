/**
 * @file
 * Tests for the range-per-thread pool: lifecycle, full coverage of
 * iteration spaces, order-independent results, back-half stealing
 * under imbalance and its steal counter, range-front start order, exception
 * propagation, nested and concurrent calls, and the global-pool
 * configuration knobs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace er = edgereason;
using er::ThreadPool;

TEST(ThreadPool, StartupShutdownAllSizes)
{
    for (unsigned threads : {1u, 2u, 3u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
    }
    // Repeated churn must not leak or deadlock.
    for (int i = 0; i < 20; ++i)
        ThreadPool pool(4);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        const std::size_t n = 10000;
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(n, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForRespectsExplicitGrain)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(
        1000,
        [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        64);
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOneIterations)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelMapPreservesInputOrder)
{
    ThreadPool pool(4);
    std::vector<int> in(5000);
    std::iota(in.begin(), in.end(), 0);
    const auto out =
        pool.parallelMap(in, [](int v) { return 3 * v + 1; });
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], 3 * static_cast<int>(i) + 1);
}

TEST(ThreadPool, ImbalancedWorkCompletes)
{
    // A few indices are ~1000x heavier than the rest; stealing halves
    // of other threads' ranges must still retire everything.
    ThreadPool pool(4);
    std::atomic<long long> total{0};
    pool.parallelFor(
        512,
        [&](std::size_t i) {
            long long acc = 0;
            const int spins = (i % 128 == 0) ? 200000 : 200;
            for (int k = 0; k < spins; ++k)
                acc += k ^ static_cast<long long>(i);
            total.fetch_add(acc ? 1 : 1, std::memory_order_relaxed);
        },
        1);
    EXPECT_EQ(total.load(), 512);
}

namespace {

/** Spin until @p pred holds; false after a 30 s timeout. */
template <typename Pred>
bool
waitFor(Pred pred)
{
    const auto limit =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > limit)
            return false;
        std::this_thread::yield();
    }
    return true;
}

} // namespace

TEST(ThreadPool, StealCounterCountsSplitWorkRunElsewhere)
{
    // Two threads (caller + one worker), four blocks at grain 1: the
    // caller's range is [0,2), the worker's [2,4).  Block 0 holds its
    // thread until block 1 has run, so block 1, the back half of the
    // caller's range, must be stolen by the other thread.  Block 3
    // holds until block 0 has started, so the worker cannot drain its
    // own range and then steal block 0 as well, whichever thread
    // reaches the job first: every round adds exactly one steal.
    ThreadPool pool(2);
    constexpr int kRounds = 20;
    for (int round = 0; round < kRounds; ++round) {
        std::thread::id ran_by[4];
        std::atomic<bool> zero_started{false};
        std::atomic<bool> one_done{false};
        std::atomic<bool> timed_out{false};
        pool.parallelFor(
            4,
            [&](std::size_t i) {
                ran_by[i] = std::this_thread::get_id();
                if (i == 0) {
                    zero_started.store(true, std::memory_order_release);
                    if (!waitFor([&] { return one_done.load(); }))
                        timed_out = true;
                }
                if (i == 3 &&
                    !waitFor([&] { return zero_started.load(); }))
                    timed_out = true;
                if (i == 1)
                    one_done.store(true, std::memory_order_release);
            },
            1);
        ASSERT_FALSE(timed_out) << "round " << round;
        EXPECT_NE(ran_by[0], ran_by[1]) << "round " << round;
        EXPECT_EQ(ran_by[1], ran_by[3]) << "round " << round;
        EXPECT_EQ(ran_by[2], ran_by[3]) << "round " << round;
        EXPECT_EQ(pool.steals(), static_cast<std::uint64_t>(round + 1))
            << "round " << round;
    }
}

TEST(ThreadPool, ThiefTakesTheBackHalfOfARange)
{
    // Two threads, eight blocks: the caller's range is [0,4), the
    // worker's [4,8).  Block 4 holds until block 6 has started, so the
    // worker still owns [5,8) (or, not yet started, [4,8)) when the
    // caller drains its own range and steals: either way it takes the
    // back half [6,8), two blocks, and runs them itself in order (a
    // one-block back-steal would run 7 first).  Blocks 6 and 5 wait for
    // each other's thread to move on (5 holds until 7 has started, 6
    // until 5 has), so neither thread finds more to steal.
    ThreadPool pool(2);
    for (int round = 0; round < 20; ++round) {
        std::thread::id ran_by[8];
        int order[8] = {};
        std::atomic<int> clock{0};
        std::atomic<bool> started[8] = {};
        std::atomic<bool> timed_out{false};
        const auto hold_until = [&](std::size_t other) {
            if (!waitFor([&] { return started[other].load(); }))
                timed_out = true;
        };
        const std::uint64_t steals0 = pool.steals();
        pool.parallelFor(
            8,
            [&](std::size_t i) {
                ran_by[i] = std::this_thread::get_id();
                order[i] = clock.fetch_add(1);
                started[i] = true;
                if (i == 4)
                    hold_until(6);
                if (i == 5)
                    hold_until(7);
                if (i == 6)
                    hold_until(5);
            },
            1);
        ASSERT_FALSE(timed_out) << "round " << round;
        EXPECT_EQ(pool.steals() - steals0, 2u) << "round " << round;
        EXPECT_EQ(ran_by[6], ran_by[0]) << "round " << round;
        EXPECT_EQ(ran_by[7], ran_by[0]) << "round " << round;
        EXPECT_LT(order[6], order[7]) << "round " << round;
        EXPECT_EQ(ran_by[5], ran_by[4]) << "round " << round;
        EXPECT_NE(ran_by[4], ran_by[0]) << "round " << round;
    }
}

TEST(ThreadPool, OwnBlocksAreNotSteals)
{
    // One block per thread, and every body waits until all four have
    // started: each thread runs the block of its own range, and none
    // can steal while the others wait.
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> arrived{0};
        std::atomic<bool> timed_out{false};
        pool.parallelFor(
            4,
            [&](std::size_t) {
                arrived.fetch_add(1);
                if (!waitFor([&] { return arrived.load() == 4; }))
                    timed_out = true;
            },
            1);
        ASSERT_FALSE(timed_out) << "round " << round;
    }
    EXPECT_EQ(pool.steals(), 0u);
}

TEST(ThreadPool, EachThreadStartsAtTheFrontOfItsOwnRange)
{
    // The sweep grid is ordered by model, and each model's first use
    // pays a lazy build: threads must start far apart in the index
    // space (one contiguous range each), not on adjacent indices of a
    // shared counter, or those builds queue behind each other.
    constexpr std::size_t k = 50;
    ThreadPool pool(4);
    for (int round = 0; round < 10; ++round) {
        std::atomic<int> started{0};
        std::size_t first[4] = {};
        std::atomic<bool> timed_out{false};
        pool.parallelFor(
            4 * k,
            [&](std::size_t i) {
                const int slot = started.fetch_add(1);
                if (slot >= 4)
                    return;
                first[slot] = i;
                if (!waitFor([&] { return started.load() >= 4; }))
                    timed_out = true;
            },
            1);
        ASSERT_FALSE(timed_out) << "round " << round;
        const std::set<std::size_t> got(first, first + 4);
        EXPECT_EQ(got, (std::set<std::size_t>{0, k, 2 * k, 3 * k}))
            << "round " << round;
    }
}

TEST(ThreadPool, MoreIterationsThanBlockIndicesStillRun)
{
    // 2^40 iterations at grain 1 would need more blocks than a 32-bit
    // range index holds; the pool raises the grain instead of failing.
    // The last thread's range starts three quarters in, so it reaches
    // the throwing upper half at once and the job stops there.
    ThreadPool pool(4);
    const std::size_t n = std::size_t{1} << 40;
    std::atomic<bool> in_range{true};
    EXPECT_THROW(pool.parallelFor(
                     n,
                     [&](std::size_t i) {
                         if (i >= n)
                             in_range = false;
                         if (i >= n / 2)
                             throw std::runtime_error("upper half");
                     },
                     1),
                 std::runtime_error);
    EXPECT_TRUE(in_range.load());
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(1000,
                         [](std::size_t i) {
                             if (i == 137)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);

    // The pool must stay usable after a failed job.
    std::atomic<int> ran{0};
    pool.parallelFor(100, [&](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, NestedParallelForRunsSerialAndCorrect)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64 * 32);
    pool.parallelFor(64, [&](std::size_t outer) {
        // Nested call: must fall back to serial inline execution
        // instead of deadlocking the worker.
        pool.parallelFor(32, [&](std::size_t inner) {
            hits[outer * 32 + inner].fetch_add(
                1, std::memory_order_relaxed);
        });
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, IndexDerivedRandomnessIsThreadCountInvariant)
{
    // The determinism contract: bodies that derive their randomness
    // from the index produce bit-identical results at any pool size.
    auto run = [](unsigned threads) {
        ThreadPool pool(threads);
        std::vector<double> out(2000);
        pool.parallelFor(out.size(), [&](std::size_t i) {
            er::Rng rng(42, "tp-test/q" + std::to_string(i));
            out[i] = rng.gaussian(0.0, 1.0) + rng.uniform();
        });
        return out;
    };
    const auto serial = run(1);
    for (unsigned threads : {2u, 4u, 7u}) {
        const auto parallel = run(threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(parallel[i], serial[i])
                << "index " << i << " at " << threads << " threads";
    }
}

TEST(ThreadPool, ConcurrentCallersShareThePool)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 3; ++c) {
        callers.emplace_back([&] {
            pool.parallelFor(500, [&](std::size_t) {
                total.fetch_add(1, std::memory_order_relaxed);
            });
        });
    }
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(total.load(), 1500);
}

TEST(ThreadPool, CallerArrivingDuringAnotherJobRunsInline)
{
    // One job slot: while another caller's job is in flight, a second
    // caller runs its whole range on its own thread.
    ThreadPool pool(4);
    std::atomic<bool> outer_running{false};
    std::atomic<bool> release{false};
    std::atomic<bool> timed_out{false};
    std::thread outer([&] {
        pool.parallelFor(
            4,
            [&](std::size_t) {
                outer_running = true;
                if (!waitFor([&] { return release.load(); }))
                    timed_out = true;
            },
            1);
    });
    ASSERT_TRUE(waitFor([&] { return outer_running.load(); }));
    std::vector<std::thread::id> ran_by(100);
    pool.parallelFor(
        ran_by.size(),
        [&](std::size_t i) { ran_by[i] = std::this_thread::get_id(); },
        1);
    release = true;
    outer.join();
    EXPECT_FALSE(timed_out);
    for (const auto &id : ran_by)
        ASSERT_EQ(id, std::this_thread::get_id());
}

TEST(ThreadPool, GlobalPoolConfiguration)
{
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::global().threadCount(), 3u);
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(ThreadPool::global().threadCount(), 1u);
    // 0 = re-resolve environment/hardware.
    ThreadPool::setGlobalThreads(0);
    EXPECT_GE(ThreadPool::global().threadCount(), 1u);
}

TEST(ThreadPool, DefaultThreadsHonorsEnvironment)
{
    ::setenv("EDGEREASON_THREADS", "5", 1);
    EXPECT_EQ(ThreadPool::defaultThreads(), 5u);
    ::setenv("EDGEREASON_THREADS", "bogus", 1);
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    ::unsetenv("EDGEREASON_THREADS");
    const unsigned fallback = ThreadPool::defaultThreads();
    EXPECT_GE(fallback, 1u);
    // Out-of-range or trailing-junk values fall back to the hardware
    // count; only the resolved size is checked, no pool is built.
    for (const char *bad : {"4294967297", "1025", "0", "-3", "4x", ""}) {
        ::setenv("EDGEREASON_THREADS", bad, 1);
        EXPECT_EQ(ThreadPool::defaultThreads(), fallback) << bad;
    }
    ::unsetenv("EDGEREASON_THREADS");
}
