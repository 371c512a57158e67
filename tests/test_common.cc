/**
 * @file
 * Unit tests for the common infrastructure: statistics, RNG streams,
 * linear algebra and curve fitting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/binio.hh"
#include "common/csv.hh"
#include "common/fit.hh"
#include "common/linalg.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace er = edgereason;

TEST(RunningStats, MeanAndVariance)
{
    er::RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    er::Rng rng(1);
    er::RunningStats all, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.gaussian(3.0, 2.0);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, MapeBasics)
{
    EXPECT_NEAR(er::mape({110.0, 90.0}, {100.0, 100.0}), 10.0, 1e-12);
    EXPECT_DOUBLE_EQ(er::mape({1.0}, {1.0}), 0.0);
}

TEST(Stats, PercentileInterpolation)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(er::percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(er::percentile(xs, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(er::percentile(xs, 50.0), 2.5);
}

TEST(Stats, SummarizeEmptyIsAllZeros)
{
    // The degenerate-run contract: no samples and no makespan give
    // zeros, never NaN and never a panic.
    std::vector<double> none;
    const er::RunSummary r = er::summarizeRun(3.0, 3.0, 0, 0, none);
    EXPECT_EQ(r.makespan, 0.0);
    EXPECT_EQ(r.throughput, 0.0);
    EXPECT_EQ(r.goodput, 0.0);
    EXPECT_EQ(r.latency.mean, 0.0);
    EXPECT_EQ(r.latency.p50, 0.0);
    EXPECT_EQ(r.latency.p95, 0.0);
    EXPECT_EQ(r.latency.p99, 0.0);
    EXPECT_EQ(r.latency.p999, 0.0);
}

TEST(Stats, SummarizeOneSampleIsEveryPercentile)
{
    std::vector<double> one = {4.25};
    const er::SampleSummary s = er::summarizeSamples(one);
    EXPECT_EQ(s.mean, 4.25);
    EXPECT_EQ(s.p50, 4.25);
    EXPECT_EQ(s.p95, 4.25);
    EXPECT_EQ(s.p99, 4.25);
    EXPECT_EQ(s.p999, 4.25);
}

TEST(Stats, SummarizeMatchesRunningStatsAndPercentile)
{
    // A shuffled sample set: the mean is a RunningStats over the
    // input order, and each percentile is percentile()'s bit for bit
    // although the fold sorts only once.
    er::Rng rng(17, "summarize-run");
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i)
        xs.push_back(rng.logNormalMeanStd(2.0, 1.5));
    std::sort(xs.begin(), xs.end());
    for (std::size_t i = xs.size() - 1; i > 0; --i)
        std::swap(xs[i], xs[static_cast<std::size_t>(rng.uniformInt(
                              0, static_cast<std::int64_t>(i)))]);
    const std::vector<double> input = xs;
    er::RunningStats rs;
    for (const double x : input)
        rs.add(x);

    const er::RunSummary r = er::summarizeRun(10.0, 60.0, 40, 30, xs);
    EXPECT_EQ(r.makespan, 50.0);
    EXPECT_EQ(r.throughput, 40.0 / 50.0);
    EXPECT_EQ(r.goodput, 30.0 / 50.0);
    EXPECT_EQ(r.latency.mean, rs.mean());
    EXPECT_EQ(r.latency.p50, er::percentile(input, 50.0));
    EXPECT_EQ(r.latency.p95, er::percentile(input, 95.0));
    EXPECT_EQ(r.latency.p99, er::percentile(input, 99.0));
    EXPECT_EQ(r.latency.p999, er::percentile(input, 99.9));
    EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
}

TEST(P2Quantile, SeedPhaseIsTheExactOrderStatistic)
{
    // Under five samples there are no markers yet: value() must be
    // the same linear-interpolated order statistic percentile()
    // computes over the sorted prefix, whatever the arrival order.
    const std::vector<double> stream = {7.0, 2.0, 9.5, 2.0};
    for (const double p : {0.5, 0.9}) {
        er::P2Quantile q(p);
        EXPECT_DOUBLE_EQ(q.value(), 0.0); // empty
        std::vector<double> seen;
        for (const double x : stream) {
            q.add(x);
            seen.push_back(x);
            EXPECT_DOUBLE_EQ(q.value(),
                             er::percentile(seen, 100.0 * p));
        }
        EXPECT_EQ(q.count(), stream.size());
        EXPECT_DOUBLE_EQ(q.quantile(), p);
    }
}

TEST(P2Quantile, TracksLogNormalTailWithinTolerance)
{
    // 20k log-normal samples (the shape of serving latencies): the
    // five-marker estimate must land near the exact p95 of the full
    // sample set, which the estimator never stores.
    er::Rng rng(31, "p2-quantile");
    er::P2Quantile q(0.95);
    std::vector<double> all;
    for (int i = 0; i < 20000; ++i) {
        const double x = rng.logNormalMeanStd(10.0, 6.0);
        q.add(x);
        all.push_back(x);
    }
    const double exact = er::percentile(all, 95.0);
    EXPECT_NEAR(q.value(), exact, 0.05 * exact);
}

TEST(P2Quantile, SerializeRestoreResumesBitExactly)
{
    // The fleet checkpoint carries one estimator per node; a restored
    // copy must continue the stream bit-for-bit, not approximately —
    // that is what keeps crash-resumed adaptive runs bit-identical.
    er::Rng rng(32, "p2-roundtrip");
    er::P2Quantile a(0.9);
    for (int i = 0; i < 1000; ++i)
        a.add(rng.logNormalMeanStd(5.0, 3.0));

    er::ByteWriter w;
    a.io(w);
    er::ByteReader r(w.bytes());
    er::P2Quantile b(0.5); // overwritten wholesale by the read
    b.io(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(b.count(), a.count());
    EXPECT_DOUBLE_EQ(b.quantile(), a.quantile());
    EXPECT_DOUBLE_EQ(b.value(), a.value());

    for (int i = 0; i < 1000; ++i) {
        const double x = rng.logNormalMeanStd(5.0, 3.0);
        a.add(x);
        b.add(x);
        EXPECT_DOUBLE_EQ(b.value(), a.value()); // bit-exact lockstep
    }
}

TEST(P2Quantile, RejectsQuantileOutsideUnitInterval)
{
    EXPECT_THROW(er::P2Quantile(0.0), std::logic_error);
    EXPECT_THROW(er::P2Quantile(1.0), std::logic_error);
}

TEST(Rng, DeterministicStreams)
{
    er::Rng a(7, "stream-a");
    er::Rng b(7, "stream-a");
    er::Rng c(7, "stream-b");
    bool any_diff = false;
    for (int i = 0; i < 32; ++i) {
        const double va = a.uniform();
        EXPECT_DOUBLE_EQ(va, b.uniform());
        if (std::abs(va - c.uniform()) > 1e-15)
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Rng, LogNormalMomentsMatch)
{
    er::Rng rng(11);
    er::RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.logNormalMeanStd(1.0, 0.1));
    EXPECT_NEAR(s.mean(), 1.0, 0.005);
    EXPECT_NEAR(s.stddev(), 0.1, 0.005);
}

TEST(Linalg, SolveKnownSystem)
{
    er::Matrix a(2, 2);
    a.at(0, 0) = 2.0;
    a.at(0, 1) = 1.0;
    a.at(1, 0) = 1.0;
    a.at(1, 1) = 3.0;
    const auto x = er::solveLinear(a, {5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Linalg, SingularSystemFails)
{
    er::Matrix a(2, 2);
    a.at(0, 0) = 1.0;
    a.at(0, 1) = 2.0;
    a.at(1, 0) = 2.0;
    a.at(1, 1) = 4.0;
    EXPECT_THROW(er::solveLinear(a, {1.0, 2.0}), std::runtime_error);
}

TEST(Fit, LogFitRecoversCurve)
{
    std::vector<double> x, y;
    for (int i = 1; i <= 30; ++i) {
        x.push_back(i * 100.0);
        y.push_back(4.0 * std::log(x.back()) - 2.0);
    }
    const auto f = er::logFit(x, y);
    EXPECT_NEAR(f.alpha, 4.0, 1e-9);
    EXPECT_NEAR(f.beta, -2.0, 1e-8);
}

TEST(Fit, ExpDecayFitRecoversCurve)
{
    std::vector<double> x, y;
    for (int i = 0; i < 40; ++i) {
        x.push_back(i * 32.0);
        y.push_back(0.07 * std::exp(-0.03 * x.back()) + 0.001);
    }
    const auto f = er::expDecayFit(x, y, 1e-4, 0.5);
    EXPECT_NEAR(f.lambda, 0.03, 0.002);
    EXPECT_NEAR(f.a, 0.07, 0.003);
    EXPECT_NEAR(f.c, 0.001, 2e-4);
}

TEST(Fit, PiecewiseLogFitFindsBreakpoint)
{
    std::vector<double> x, y;
    for (double v : {32.0, 64.0, 128.0, 256.0, 384.0})
        { x.push_back(v); y.push_back(17.0); }
    for (double v : {512.0, 768.0, 1024.0, 2048.0, 4096.0}) {
        x.push_back(v);
        y.push_back(3.8 * std::log(v) - 5.6);
    }
    const auto f = er::piecewiseLogFit(x, y, /*exp_head=*/false);
    EXPECT_NEAR(f.head_const, 17.0, 1e-9);
    EXPECT_NEAR(f.tail.alpha, 3.8, 0.05);
    EXPECT_LE(f.breakpoint, 512.0);
    EXPECT_GE(f.breakpoint, 256.0);
}

TEST(Table, RendersAlignedRows)
{
    er::Table t("demo");
    t.setHeader({"model", "value"});
    t.row().cell("a").cell(1.5, 1);
    t.row().cell("bcd").cell(2.25, 2);
    const std::string s = t.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("| a     |"), std::string::npos); // padded to "model"
    EXPECT_NE(s.find("2.25"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, RowWidthMismatchFails)
{
    er::Table t("bad");
    t.setHeader({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::runtime_error);
}

TEST(Logging, PanicAndFatalThrow)
{
    EXPECT_THROW(panic("boom"), std::logic_error);
    EXPECT_THROW(fatal("boom"), std::runtime_error);
}

TEST(RngBank, DuplicateStreamCreationPanics)
{
    er::RngBank bank(42);
    bank.create("arrivals");
    EXPECT_THROW(bank.create("arrivals"), std::logic_error);
}

TEST(RngBank, StreamNamesAreSortedAndComplete)
{
    er::RngBank bank(42);
    bank.create("zeta");
    bank.create("alpha");
    bank.create("mid");
    const auto names = bank.streamNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "mid");
    EXPECT_EQ(names[2], "zeta");
    EXPECT_TRUE(bank.has("alpha"));
    EXPECT_FALSE(bank.has("omega"));
    EXPECT_THROW(bank.get("omega"), std::logic_error);
}

TEST(RngBank, SerializeRestoreResumesMidSequence)
{
    er::RngBank bank(42);
    auto &s = bank.create("gen");
    for (int i = 0; i < 17; ++i)
        s.uniform();
    const auto states = bank.serialize();

    // The restored bank continues the sequence exactly where the
    // original stood, even when created fresh.
    er::RngBank other(42);
    other.create("gen");
    other.restore(states);
    for (int i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(bank.get("gen").uniform(),
                         other.get("gen").uniform());
}

TEST(RngBank, RestoreRefusesPartialState)
{
    er::RngBank bank(42);
    bank.create("a");
    bank.create("b");
    er::RngBank donor(42);
    donor.create("a");
    // The donor lacks stream "b": restoring would silently reset it.
    EXPECT_THROW(bank.restore(donor.serialize()), std::runtime_error);
}

TEST(Csv, WriteFailureOnFullDeviceThrows)
{
    // /dev/full accepts the open but fails every write with ENOSPC,
    // which is exactly the disk-full condition writeRow must surface.
    std::ifstream probe("/dev/full");
    if (!probe.good())
        GTEST_SKIP() << "/dev/full not available";
    er::CsvWriter csv("/dev/full");
    try {
        // The stream buffers: keep writing until the flush-on-full
        // path reports the failure.
        for (int i = 0; i < 100000; ++i)
            csv.writeRow(std::vector<std::string>{
                "a-reasonably-long-cell-to-fill-the-buffer", "x", "y"});
        FAIL() << "writeRow never reported the full device";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("/dev/full"),
                  std::string::npos)
            << "error must name the path: " << e.what();
    }
}

// --- OpenHashMap (hot memoization paths) -----------------------------

#include <cstdint>
#include <map>
#include <tuple>

#include "common/open_hash.hh"

namespace {

/** Mirrors the executor's step-cache key shape: three machine words,
 *  no padding. */
struct PackedKey
{
    std::uintptr_t a;
    std::int64_t b;
    std::int64_t c;
};

} // namespace

TEST(OpenHashMap, FindOnEmptyMissesWithoutAllocating)
{
    er::OpenHashMap<PackedKey, double> m;
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(PackedKey{1, 2, 3}), nullptr);
}

TEST(OpenHashMap, InsertThenFindRoundTrips)
{
    er::OpenHashMap<PackedKey, double> m;
    m.insert(PackedKey{1, 64, 8}, 0.25);
    m.insert(PackedKey{1, 128, 8}, 0.5);
    m.insert(PackedKey{2, 64, 8}, 0.75);
    EXPECT_EQ(m.size(), 3u);
    ASSERT_NE(m.find(PackedKey{1, 64, 8}), nullptr);
    EXPECT_DOUBLE_EQ(*m.find(PackedKey{1, 64, 8}), 0.25);
    EXPECT_DOUBLE_EQ(*m.find(PackedKey{1, 128, 8}), 0.5);
    EXPECT_DOUBLE_EQ(*m.find(PackedKey{2, 64, 8}), 0.75);
    // Near misses (one field off) must not alias.
    EXPECT_EQ(m.find(PackedKey{1, 64, 9}), nullptr);
    EXPECT_EQ(m.find(PackedKey{3, 64, 8}), nullptr);
}

TEST(OpenHashMap, GrowthPreservesEveryEntryAgainstStdMap)
{
    // Push far past the initial 64-slot table through several rehashes
    // and mirror into std::map as the oracle.  Keys are generated from
    // a deterministic RNG so runs of clustered values exercise the
    // linear probe.
    er::OpenHashMap<PackedKey, std::int64_t> m;
    std::map<std::tuple<std::uintptr_t, std::int64_t, std::int64_t>,
             std::int64_t>
        oracle;
    er::Rng rng(99, "open-hash");
    for (int i = 0; i < 5000; ++i) {
        const PackedKey k{
            static_cast<std::uintptr_t>(rng.uniformInt(0, 7)),
            64 * rng.uniformInt(1, 40), rng.uniformInt(1, 30)};
        const auto tup = std::make_tuple(k.a, k.b, k.c);
        if (oracle.find(tup) != oracle.end()) {
            ASSERT_NE(m.find(k), nullptr);
            EXPECT_EQ(*m.find(k), oracle[tup]);
            continue;
        }
        oracle[tup] = i;
        m.insert(k, i);
    }
    EXPECT_EQ(m.size(), oracle.size());
    EXPECT_GT(m.size(), 500u); // actually grew past the initial table
    for (const auto &[tup, v] : oracle) {
        const PackedKey k{std::get<0>(tup), std::get<1>(tup),
                          std::get<2>(tup)};
        ASSERT_NE(m.find(k), nullptr);
        EXPECT_EQ(*m.find(k), v);
    }
}

TEST(OpenHashMap, ClearForgetsEntriesAndStaysUsable)
{
    er::OpenHashMap<PackedKey, double> m;
    for (int i = 0; i < 1000; ++i)
        m.insert(PackedKey{1, i, 2}, 0.5 * i);
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(m.find(PackedKey{1, i, 2}), nullptr);
    m.insert(PackedKey{1, 7, 2}, 9.0);
    EXPECT_EQ(m.size(), 1u);
    ASSERT_NE(m.find(PackedKey{1, 7, 2}), nullptr);
    EXPECT_DOUBLE_EQ(*m.find(PackedKey{1, 7, 2}), 9.0);
}

TEST(OpenHashMap, InsertedReferenceIsWritable)
{
    er::OpenHashMap<PackedKey, double> m;
    double &slot = m.insert(PackedKey{5, 6, 7}, 1.0);
    slot = 2.0;
    ASSERT_NE(m.find(PackedKey{5, 6, 7}), nullptr);
    EXPECT_DOUBLE_EQ(*m.find(PackedKey{5, 6, 7}), 2.0);
}
