/**
 * @file
 * Unit tests for the probability helpers backing the behavioural model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/distributions.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace er = edgereason;

TEST(NormCdf, KnownValues)
{
    EXPECT_NEAR(er::normCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(er::normCdf(1.959963985), 0.975, 1e-6);
    EXPECT_NEAR(er::normCdf(-1.959963985), 0.025, 1e-6);
}

TEST(NormInv, RoundTripsThroughCdf)
{
    for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                     0.999}) {
        EXPECT_NEAR(er::normCdf(er::normInv(p)), p, 1e-8)
            << "p = " << p;
    }
}

TEST(NormInv, RejectsDegenerateInputs)
{
    EXPECT_THROW(er::normInv(0.0), std::runtime_error);
    EXPECT_THROW(er::normInv(1.0), std::runtime_error);
}

TEST(Logistic, SymmetryAndLimits)
{
    EXPECT_DOUBLE_EQ(er::logistic(0.0), 0.5);
    EXPECT_NEAR(er::logistic(5.0) + er::logistic(-5.0), 1.0, 1e-12);
    EXPECT_GT(er::logistic(30.0), 0.9999);
}

TEST(CappedLogNormal, MatchesMonteCarlo)
{
    const double mean = 100.0;
    const double cv = 0.5;
    const double cap = 120.0;
    const double analytic = er::cappedLogNormalMean(mean, cv, cap);

    er::Rng rng(3);
    er::RunningStats s;
    for (int i = 0; i < 400000; ++i)
        s.add(std::min(cap, rng.logNormalMeanStd(mean, cv * mean)));
    EXPECT_NEAR(analytic, s.mean(), 0.25);
}

TEST(CappedLogNormal, CapFarAboveMeanIsIdentity)
{
    EXPECT_NEAR(er::cappedLogNormalMean(50.0, 0.3, 1e9), 50.0, 1e-6);
}

TEST(SolveLogNormalMeanForCap, InvertsCappedMean)
{
    const double cv = 0.45;
    const double cap = 128.0;
    const double target = 91.5; // the paper's 128T mean for the 1.5B
    const double m = er::solveLogNormalMeanForCap(target, cv, cap);
    EXPECT_GT(m, target); // cap pulls the mean down, so inflate
    EXPECT_NEAR(er::cappedLogNormalMean(m, cv, cap), target, 0.01);
}

TEST(SolveLogNormalMeanForCap, DegenerateSpreadReturnsTargetExactly)
{
    // With no spread min(X, cap) == X below the cap: nothing to inflate.
    EXPECT_EQ(er::solveLogNormalMeanForCap(91.5, 0.0, 128.0), 91.5);
    EXPECT_EQ(er::solveLogNormalMeanForCap(91.5, -0.2, 128.0), 91.5);
    EXPECT_EQ(er::solveLogNormalMeanForCap(128.0, 0.0, 128.0), 128.0);
}

TEST(SolveLogNormalMeanForCap, TargetAtCapSaturates)
{
    // Any spread keeps E[min(X, cap)] strictly below the cap, so for a
    // wide spread no mean below 1e9 reaches it and the search
    // saturates.  (For a narrow one the closed form rounds up to the
    // cap at a finite mean, where the search stops instead.)
    EXPECT_GT(er::solveLogNormalMeanForCap(128.0, 5.0, 128.0), 1e9);
}

TEST(SolveLogNormalMeanForCap, RejectsTargetAboveCap)
{
    EXPECT_THROW(er::solveLogNormalMeanForCap(200.0, 0.3, 128.0),
                 std::runtime_error);
}
