/** @file Behavioural tests for the ITTAGE indirect target predictor. */

#include "bpu/ittage.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fdip
{
namespace
{

struct IttageHarness
{
    BranchHistory hist{HistoryPolicy::kTargetHistory};
    Ittage itt;

    IttageHarness() : itt(IttageConfig(), hist) {}

    Addr
    step(Addr pc, Addr actual)
    {
        IttagePrediction meta;
        const Addr pred = itt.predict(pc, meta);
        itt.update(pc, actual, meta);
        hist.pushBranch(pc, actual, true);
        return pred;
    }
};

TEST(Ittage, ColdPredictsNothing)
{
    IttageHarness h;
    IttagePrediction meta;
    EXPECT_EQ(h.itt.predict(0x1000, meta), kNoAddr);
}

TEST(Ittage, LearnsMonomorphicTarget)
{
    IttageHarness h;
    int wrong = 0;
    for (int i = 0; i < 500; ++i) {
        if (h.step(0x1000, 0x8000) != 0x8000 && i > 5)
            ++wrong;
    }
    EXPECT_LE(wrong, 2);
}

TEST(Ittage, TracksTargetChange)
{
    IttageHarness h;
    for (int i = 0; i < 200; ++i)
        h.step(0x1000, 0x8000);
    int wrong = 0;
    for (int i = 0; i < 200; ++i) {
        if (h.step(0x1000, 0x9000) != 0x9000 && i > 20)
            ++wrong;
    }
    EXPECT_LT(wrong, 10);
}

TEST(Ittage, LearnsHistoryCorrelatedTargets)
{
    // The indirect target alternates with a preceding branch's path.
    IttageHarness h;
    Rng rng(3);
    int wrong = 0;
    int total = 0;
    for (int i = 0; i < 6000; ++i) {
        const bool which = (rng.next() & 1) != 0;
        // A taken branch whose target encodes 'which' enters history.
        h.hist.pushBranch(0x500, which ? 0x600 : 0x700, true);
        const Addr actual = which ? 0x8000 : 0x9000;
        const Addr pred = h.step(0x1000, actual);
        if (i > 2000) {
            ++total;
            if (pred != actual)
                ++wrong;
        }
    }
    EXPECT_LT(static_cast<double>(wrong) / total, 0.10);
}

TEST(Ittage, MultipleSitesIndependent)
{
    IttageHarness h;
    int wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        if (h.step(0x1000, 0x8000) != 0x8000 && i > 50)
            ++wrong;
        if (h.step(0x2000, 0x9000) != 0x9000 && i > 50)
            ++wrong;
        if (h.step(0x3000, 0xa000) != 0xa000 && i > 50)
            ++wrong;
    }
    EXPECT_LT(wrong, 30);
}

TEST(Ittage, OneBitTagIsFatal)
{
    BranchHistory hist(HistoryPolicy::kDirectionHistory);
    IttageConfig cfg;
    cfg.tagBits = 1;
    EXPECT_DEATH({ Ittage itt(cfg, hist); }, "folded history width 0");
}

TEST(Ittage, StorageAccounting)
{
    BranchHistory hist(HistoryPolicy::kTargetHistory);
    IttageConfig cfg;
    Ittage itt(cfg, hist);
    EXPECT_GT(itt.storageBits(), 0u);
    // 6 tables x 512 entries x ~61b + base: on the order of 200K bits.
    EXPECT_LT(itt.storageBits(), 1000000u);
}

} // namespace
} // namespace fdip
