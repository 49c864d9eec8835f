/** @file Behavioural tests for the TAGE direction predictor. */

#include "bpu/tage.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fdip
{
namespace
{

struct TageHarness
{
    // Direction history so single-branch microtests have observable
    // context (under THR a lone branch's iterations all hash alike;
    // real code interleaves other taken branches).
    BranchHistory hist{HistoryPolicy::kDirectionHistory};
    Tage tage;

    explicit TageHarness(unsigned kb = 18)
        : tage(TageConfig::sized(kb), hist)
    {
    }

    bool
    step(Addr pc, bool taken)
    {
        TagePrediction meta;
        const bool pred = tage.predict(pc, meta);
        tage.update(pc, taken, meta);
        hist.pushBranch(pc, pc ^ 0x40, taken);
        return pred;
    }
};

TEST(Tage, LearnsAlwaysTaken)
{
    TageHarness h;
    int wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        if (h.step(0x1000, true) != true && i > 10)
            ++wrong;
    }
    EXPECT_LE(wrong, 2);
}

TEST(Tage, LearnsAlwaysNotTaken)
{
    TageHarness h;
    int wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        if (h.step(0x2000, false) != false && i > 10)
            ++wrong;
    }
    EXPECT_LE(wrong, 2);
}

TEST(Tage, LearnsAlternatingPattern)
{
    // T/NT alternation is trivially captured with 1 bit of history.
    TageHarness h;
    int wrong = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool taken = (i % 2) == 0;
        if (h.step(0x3000, taken) != taken && i > 500)
            ++wrong;
    }
    EXPECT_LT(wrong, 50);
}

TEST(Tage, LearnsLoopExit)
{
    // Taken 7 times then not-taken, repeating: the longer-history
    // tables must capture the exit.
    TageHarness h;
    int wrong = 0;
    int total = 0;
    for (int rep = 0; rep < 600; ++rep) {
        for (int i = 0; i < 8; ++i) {
            const bool taken = i < 7;
            const bool pred = h.step(0x4000, taken);
            if (rep > 100) {
                ++total;
                if (pred != taken)
                    ++wrong;
            }
        }
    }
    EXPECT_LT(static_cast<double>(wrong) / total, 0.05);
}

TEST(Tage, LearnsHistoryCorrelatedBranch)
{
    // Branch B's outcome equals branch A's most recent direction.
    TageHarness h;
    Rng rng(5);
    int wrong = 0;
    int total = 0;
    for (int i = 0; i < 6000; ++i) {
        const bool a_taken = (rng.next() & 1) != 0;
        h.step(0x5000, a_taken);
        const bool pred = h.step(0x6000, a_taken);
        if (i > 1500) {
            ++total;
            if (pred != a_taken)
                ++wrong;
        }
    }
    EXPECT_LT(static_cast<double>(wrong) / total, 0.08);
}

TEST(Tage, RandomBranchGetsBiasRate)
{
    // A p=0.9 random branch cannot be predicted much better than 90%,
    // but must not be much worse either.
    TageHarness h;
    Rng rng(7);
    int wrong = 0;
    int total = 0;
    for (int i = 0; i < 8000; ++i) {
        const bool taken = rng.below(10) != 0; // p(taken)=0.9
        const bool pred = h.step(0x7000, taken);
        if (i > 1000) {
            ++total;
            if (pred != taken)
                ++wrong;
        }
    }
    const double rate = static_cast<double>(wrong) / total;
    EXPECT_LT(rate, 0.18);
}

TEST(Tage, SizesScaleStorage)
{
    BranchHistory h9(HistoryPolicy::kTargetHistory);
    BranchHistory h18(HistoryPolicy::kTargetHistory);
    BranchHistory h36(HistoryPolicy::kTargetHistory);
    Tage t9(TageConfig::sized(9), h9);
    Tage t18(TageConfig::sized(18), h18);
    Tage t36(TageConfig::sized(36), h36);
    EXPECT_LT(t9.storageBits(), t18.storageBits());
    EXPECT_LT(t18.storageBits(), t36.storageBits());
    EXPECT_NEAR(static_cast<double>(t36.storageBits()) /
                    static_cast<double>(t18.storageBits()),
                2.0, 0.2);
}

TEST(Tage, RejectsUnknownSize)
{
    EXPECT_DEATH({ TageConfig::sized(17); }, "unsupported TAGE size");
}

TEST(Tage, OneBitTagIsFatal)
{
    // The second tag fold is tagBits - 1 wide: a 1-bit tag would need a
    // zero-width fold.
    BranchHistory hist(HistoryPolicy::kDirectionHistory);
    TageConfig cfg = TageConfig::sized(9);
    cfg.tagBits = 1;
    EXPECT_DEATH({ Tage t(cfg, hist); }, "folded history width 0");
}

TEST(Tage, HistoryLengthsAreGeometric)
{
    BranchHistory hist(HistoryPolicy::kTargetHistory);
    Tage t(TageConfig::sized(18), hist);
    const TageConfig &cfg = t.config();
    EXPECT_EQ(t.historyLength(0), cfg.minHistory);
    EXPECT_EQ(t.historyLength(cfg.numTables - 1), cfg.maxHistory);
    for (unsigned i = 1; i < cfg.numTables; ++i)
        EXPECT_GT(t.historyLength(i), t.historyLength(i - 1));
}

TEST(Tage, DistinctBranchesDoNotDestructivelyAlias)
{
    // Two opposite-biased branches must both be predictable.
    TageHarness h;
    int wrong = 0;
    for (int i = 0; i < 3000; ++i) {
        if (h.step(0x8000, true) != true && i > 100)
            ++wrong;
        if (h.step(0x9000, false) != false && i > 100)
            ++wrong;
    }
    EXPECT_LT(wrong, 60);
}

} // namespace
} // namespace fdip
