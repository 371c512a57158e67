/**
 * @file
 * Tests for the work-stealing thread pool: lifecycle, full coverage of
 * iteration spaces, order-independent results, stealing under
 * imbalance, exception propagation, nested calls, and the global-pool
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
    // A few indices are ~1000x heavier than the rest; the range
    // splitting plus stealing must still retire everything.
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

TEST(ThreadPool, StealCounterCountsSplitWorkRunElsewhere)
{
    // Two threads (caller + one worker), four iterations at grain 1:
    // two seed ranges [0,2) and [2,4), each split once before its first
    // iteration runs.  Iteration 0 holds its thread until iteration 1
    // has run, so the split-off half [1,2) must be taken by the other
    // thread — from the worker's deque or, when the caller split it,
    // from the caller's inbox.  The other thread runs its own split
    // half itself, so every round adds exactly one steal.
    ThreadPool pool(2);
    constexpr int kRounds = 20;
    for (int round = 0; round < kRounds; ++round) {
        std::thread::id ran_by[4];
        std::atomic<bool> one_done{false};
        std::atomic<bool> timed_out{false};
        pool.parallelFor(
            4,
            [&](std::size_t i) {
                ran_by[i] = std::this_thread::get_id();
                if (i == 0) {
                    const auto limit = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
                    while (!one_done.load(std::memory_order_acquire)) {
                        if (std::chrono::steady_clock::now() > limit) {
                            timed_out = true;
                            break;
                        }
                        std::this_thread::yield();
                    }
                }
                if (i == 1)
                    one_done.store(true, std::memory_order_release);
            },
            1);
        ASSERT_FALSE(timed_out) << "round " << round;
        EXPECT_NE(ran_by[0], ran_by[1]) << "round " << round;
        EXPECT_EQ(ran_by[2], ran_by[3]) << "round " << round;
        EXPECT_EQ(pool.steals(), static_cast<std::uint64_t>(round + 1))
            << "round " << round;
    }
}

TEST(ThreadPool, SeedRangesAreNotSteals)
{
    // One iteration per seed: nothing is split, so nothing is stolen,
    // however the seeds are spread over the threads.
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round)
        pool.parallelFor(4, [](std::size_t) {}, 1);
    EXPECT_EQ(pool.steals(), 0u);
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
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}
