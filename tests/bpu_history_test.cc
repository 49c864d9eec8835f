/** @file Tests for the global history and its folded views. */

#include "bpu/history.h"

#include <gtest/gtest.h>

#include "util/bits.h"
#include "util/rng.h"

namespace fdip
{
namespace
{

TEST(History, PolicyNames)
{
    EXPECT_STREQ(historyPolicyName(HistoryPolicy::kTargetHistory), "THR");
    EXPECT_STREQ(historyPolicyName(HistoryPolicy::kDirectionHistory),
                 "GHR");
    EXPECT_STREQ(
        historyPolicyName(HistoryPolicy::kIdealDirectionHistory), "Ideal");
}

TEST(History, TargetPolicyIgnoresNotTaken)
{
    BranchHistory h(HistoryPolicy::kTargetHistory);
    const unsigned fold = h.registerFold(32, 10);
    const std::uint32_t before = h.folded(fold);
    h.pushBranch(0x1000, 0x2000, false);
    EXPECT_EQ(h.folded(fold), before);
    h.pushBranch(0x1000, 0x2000, true);
    EXPECT_NE(h.recentBits(), 0u);
}

TEST(History, DirectionPolicyRecordsBoth)
{
    BranchHistory h(HistoryPolicy::kDirectionHistory);
    h.pushBranch(0x1000, 0x2000, true);
    h.pushBranch(0x1000, 0x2000, false);
    h.pushBranch(0x1000, 0x2000, true);
    EXPECT_EQ(h.recentBits() & 0b111, 0b101u);
}

TEST(History, RecordsEventPredicate)
{
    BranchHistory thr(HistoryPolicy::kTargetHistory);
    EXPECT_TRUE(thr.recordsEvent(true));
    EXPECT_FALSE(thr.recordsEvent(false));
    BranchHistory ghr(HistoryPolicy::kDirectionHistory);
    EXPECT_TRUE(ghr.recordsEvent(true));
    EXPECT_TRUE(ghr.recordsEvent(false));
}

TEST(History, SnapshotRestoreExact)
{
    BranchHistory h(HistoryPolicy::kTargetHistory);
    const unsigned f1 = h.registerFold(64, 11);
    const unsigned f2 = h.registerFold(260, 9);
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        h.pushBranch(rng.next(), rng.next(), true);

    const HistorySnapshot snap = h.snapshot();
    const std::uint32_t v1 = h.folded(f1);
    const std::uint32_t v2 = h.folded(f2);
    const std::uint64_t recent = h.recentBits();

    for (int i = 0; i < 50; ++i)
        h.pushBranch(rng.next(), rng.next(), true);
    EXPECT_NE(h.folded(f1), v1); // Almost surely changed.

    h.restore(snap);
    EXPECT_EQ(h.folded(f1), v1);
    EXPECT_EQ(h.folded(f2), v2);
    EXPECT_EQ(h.recentBits(), recent);
}

TEST(History, RestoreThenReplayMatches)
{
    // Restoring and replaying the same events must land in the same
    // state as never having diverged (the repair-path invariant).
    BranchHistory h(HistoryPolicy::kTargetHistory);
    const unsigned f = h.registerFold(128, 12);
    Rng rng(17);
    for (int i = 0; i < 60; ++i)
        h.pushBranch(rng.next(), rng.next(), true);

    const HistorySnapshot snap = h.snapshot();
    const Addr pc1 = 0x1234, t1 = 0x5678;
    const Addr pc2 = 0x9abc, t2 = 0xdef0;
    h.pushBranch(pc1, t1, true);
    h.pushBranch(pc2, t2, true);
    const std::uint32_t expected = h.folded(f);
    const std::uint64_t expected_bits = h.recentBits();

    // Diverge: push garbage, then repair via restore + replay.
    for (int i = 0; i < 30; ++i)
        h.pushBranch(rng.next(), rng.next(), true);
    h.restore(snap);
    h.pushBranch(pc1, t1, true);
    h.pushBranch(pc2, t2, true);
    EXPECT_EQ(h.folded(f), expected);
    EXPECT_EQ(h.recentBits(), expected_bits);
}

TEST(History, FoldedMatchesFreshReplay)
{
    // Property: after any event sequence, the folded state equals that
    // of a fresh history fed the same events (no hidden state).
    Rng rng(29);
    for (int trial = 0; trial < 5; ++trial) {
        BranchHistory a(HistoryPolicy::kDirectionHistory);
        BranchHistory b(HistoryPolicy::kDirectionHistory);
        const unsigned fa = a.registerFold(100, 10);
        const unsigned fb = b.registerFold(100, 10);
        std::vector<std::pair<Addr, bool>> events;
        for (int i = 0; i < 500; ++i)
            events.push_back({rng.next(), (rng.next() & 1) != 0});
        for (const auto &e : events)
            a.pushBranch(e.first, e.first + 4, e.second);
        for (const auto &e : events)
            b.pushBranch(e.first, e.first + 4, e.second);
        EXPECT_EQ(a.folded(fa), b.folded(fb));
        EXPECT_EQ(a.recentBits(), b.recentBits());
    }
}

TEST(History, FoldedStaysInRange)
{
    BranchHistory h(HistoryPolicy::kTargetHistory);
    const unsigned f = h.registerFold(260, 9);
    Rng rng(31);
    for (int i = 0; i < 2000; ++i) {
        h.pushBranch(rng.next(), rng.next(), true);
        EXPECT_LE(h.folded(f), mask(9));
    }
}

TEST(History, OldEventsLeaveTheWindow)
{
    // Two histories that differ only in ancient events must converge
    // once the differing bits age out of every fold window.
    BranchHistory a(HistoryPolicy::kDirectionHistory);
    BranchHistory b(HistoryPolicy::kDirectionHistory);
    const unsigned fa = a.registerFold(32, 8);
    const unsigned fb = b.registerFold(32, 8);
    a.pushBranch(0x1111, 0, true); // Only in 'a'.
    Rng rng(37);
    for (int i = 0; i < 200; ++i) {
        const Addr pc = rng.next();
        const bool t = (rng.next() & 1) != 0;
        a.pushBranch(pc, pc + 4, t);
        b.pushBranch(pc, pc + 4, t);
    }
    EXPECT_EQ(a.folded(fa), b.folded(fb));
}

TEST(History, TooManyFoldsIsFatal)
{
    // Distinct geometries: identical views would share one image.
    BranchHistory h(HistoryPolicy::kTargetHistory);
    for (unsigned i = 0; i < HistorySnapshot::kMaxImages; ++i)
        h.registerFold(16 + i, 8);
    EXPECT_EQ(h.numImages(), HistorySnapshot::kMaxImages);
    EXPECT_DEATH({ h.registerFold(16, 9); }, "folded history");
}

TEST(History, EqualViewsShareOneImage)
{
    BranchHistory h(HistoryPolicy::kTargetHistory);
    const unsigned a = h.registerFold(40, 10);
    const unsigned b = h.registerFold(40, 9);
    const unsigned c = h.registerFold(40, 10);
    EXPECT_EQ(h.numFolds(), 3u);
    EXPECT_EQ(h.numImages(), 2u);
    EXPECT_EQ(h.imageOf(a), h.imageOf(c));
    EXPECT_NE(h.imageOf(a), h.imageOf(b));
    // The budget still charges every view.
    EXPECT_EQ(h.storageBits(), 29u);
    Rng rng(41);
    for (int i = 0; i < 100; ++i) {
        h.pushBranch(rng.next(), rng.next(), true);
        EXPECT_EQ(h.folded(a), h.folded(c));
        EXPECT_EQ(h.images()[h.imageOf(b)], h.folded(b));
    }
}

TEST(History, ZeroWidthFoldIsFatal)
{
    BranchHistory h(HistoryPolicy::kDirectionHistory);
    EXPECT_DEATH({ h.registerFold(16, 0); }, "folded history width 0");
}

TEST(History, WideFoldIsFatal)
{
    BranchHistory h(HistoryPolicy::kDirectionHistory);
    h.registerFold(64, 31);
    EXPECT_DEATH({ h.registerFold(64, 32); }, "folded history width 32");
    EXPECT_DEATH({ h.registerFold(64, 40); }, "folded history width 40");
}

TEST(History, FoldNarrowerThanEventIsFatal)
{
    BranchHistory h(HistoryPolicy::kTargetHistory);
    ASSERT_EQ(h.bitsPerEvent(), 2u);
    h.registerFold(16, 2);
    EXPECT_DEATH({ h.registerFold(16, 1); }, "folded history width 1");
}

TEST(History, RegisteringAfterPushIsFatal)
{
    BranchHistory h(HistoryPolicy::kDirectionHistory);
    h.registerFold(16, 8);
    h.pushBranch(0x1000, 0x2000, true);
    EXPECT_DEATH({ h.registerFold(16, 8); }, "before the first push");
}

TEST(History, DirectionHistoryIsOneBitPerEvent)
{
    EXPECT_DEATH({ BranchHistory h(HistoryPolicy::kDirectionHistory, 2); },
                 "1 bit per event");
}

TEST(History, SnapshotIsCheap)
{
    // Snapshots must not allocate (fixed-size struct).
    static_assert(sizeof(HistorySnapshot) <=
                      16 + 4 * HistorySnapshot::kMaxImages,
                  "snapshot grew unexpectedly");
    SUCCEED();
}

} // namespace
} // namespace fdip
