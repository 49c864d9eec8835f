/** @file Tests for the 16B-indexed BTB. */

#include "bpu/btb.h"

#include <gtest/gtest.h>

namespace fdip
{
namespace
{

BtbConfig
smallConfig(bool taken_only = true)
{
    BtbConfig cfg;
    cfg.numEntries = 64;
    cfg.ways = 4;
    cfg.allocateTakenOnly = taken_only;
    return cfg;
}

TEST(Btb, MissOnEmpty)
{
    Btb btb(smallConfig());
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    EXPECT_EQ(btb.lookups(), 1u);
    EXPECT_EQ(btb.hits(), 0u);
}

TEST(Btb, InsertThenHit)
{
    Btb btb(smallConfig());
    btb.install(0x1000, InstClass::kJumpDirect, 0x2000, true);
    const auto hit = btb.lookup(0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->kind, InstClass::kJumpDirect);
    EXPECT_EQ(hit->target, 0x2000u);
}

TEST(Btb, TakenOnlyPolicySkipsNotTaken)
{
    Btb btb(smallConfig(true));
    btb.install(0x1000, InstClass::kCondDirect, 0x2000, false);
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    btb.install(0x1000, InstClass::kCondDirect, 0x2000, true);
    EXPECT_TRUE(btb.lookup(0x1000).has_value());
}

TEST(Btb, AllBranchPolicyAllocatesNotTaken)
{
    Btb btb(smallConfig(false));
    btb.install(0x1000, InstClass::kCondDirect, 0x2000, false);
    EXPECT_TRUE(btb.lookup(0x1000).has_value());
}

TEST(Btb, ExistingEntryRefreshesEvenWhenNotTaken)
{
    // Indirect branches update their last target on every resolve.
    Btb btb(smallConfig(true));
    btb.install(0x1000, InstClass::kJumpIndirect, 0x2000, true);
    btb.install(0x1000, InstClass::kJumpIndirect, 0x3000, true);
    const auto hit = btb.lookup(0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->target, 0x3000u);
}

/** Collects @p n distinct branch PCs mapping to the same BTB set. */
std::vector<Addr>
sameSetPcs(const Btb &btb, unsigned n)
{
    std::vector<Addr> pcs;
    const std::uint32_t target_set = btb.setIndexOf(0x1000);
    for (Addr pc = 0x1000; pcs.size() < n; pc += 16) {
        if (btb.setIndexOf(pc) == target_set)
            pcs.push_back(pc);
    }
    return pcs;
}

TEST(Btb, PeekDoesNotTouchLru)
{
    Btb btb(smallConfig());
    const auto pcs = sameSetPcs(btb, 5);
    for (unsigned i = 0; i < 4; ++i)
        btb.install(pcs[i], InstClass::kJumpDirect, 0x9000, true);
    // Refresh entry 0 via lookup, then insert a 5th: victim must not
    // be entry 0.
    EXPECT_TRUE(btb.lookup(pcs[0]).has_value());
    btb.install(pcs[4], InstClass::kJumpDirect, 0x9000, true);
    EXPECT_TRUE(btb.peek(pcs[0]).has_value());
}

TEST(Btb, LruEvictsOldest)
{
    Btb btb(smallConfig());
    const auto pcs = sameSetPcs(btb, 5);
    for (unsigned i = 0; i < 5; ++i)
        btb.install(pcs[i], InstClass::kJumpDirect, 0x9000, true);
    // Entry 0 was the LRU victim.
    EXPECT_FALSE(btb.peek(pcs[0]).has_value());
    EXPECT_TRUE(btb.peek(pcs[4]).has_value());
    EXPECT_EQ(btb.evictions(), 1u);
}

TEST(Btb, SixteenByteIndexing)
{
    // Branches in the same 16B chunk share a set but are separate
    // entries.
    Btb btb(smallConfig());
    btb.install(0x1000, InstClass::kCondDirect, 0x2000, true);
    btb.install(0x1004, InstClass::kCondDirect, 0x3000, true);
    btb.install(0x1008, InstClass::kJumpDirect, 0x4000, true);
    EXPECT_EQ(btb.lookup(0x1000)->target, 0x2000u);
    EXPECT_EQ(btb.lookup(0x1004)->target, 0x3000u);
    EXPECT_EQ(btb.lookup(0x1008)->target, 0x4000u);
}

TEST(Btb, Invalidate)
{
    Btb btb(smallConfig());
    btb.install(0x1000, InstClass::kJumpDirect, 0x2000, true);
    btb.invalidate(0x1000);
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
}

TEST(Btb, NoAddrNeverMatchesAnInvalidWay)
{
    // kNoAddr is the invalid-way tag: probing for it must still miss,
    // and it is never installed.
    Btb btb(smallConfig());
    EXPECT_FALSE(btb.lookup(kNoAddr).has_value());
    btb.install(kNoAddr, InstClass::kJumpDirect, 0x2000, true);
    EXPECT_EQ(btb.allocations(), 0u);
    EXPECT_FALSE(btb.peek(kNoAddr).has_value());
    btb.install(0x1000, InstClass::kJumpDirect, 0x2000, true);
    btb.invalidate(0x1000);
    EXPECT_FALSE(btb.peek(kNoAddr).has_value());
}

TEST(Btb, StorageBytesFollowsPaperEstimate)
{
    BtbConfig cfg;
    cfg.numEntries = 8192;
    Btb btb(cfg);
    // Paper Section VI-D: ~7 bytes per branch.
    EXPECT_EQ(btb.storageBytes(), 8192u * 7);
}

TEST(Btb, RejectsBadGeometry)
{
    struct Case
    {
        unsigned numEntries;
        unsigned ways;
        unsigned bytesPerEntry;
        const char *message;
    };
    const Case cases[] = {
        {65, 4, 7, "divisible"},
        {8192, 5, 7, "divisible"},
        {8192, 3, 7, "divisible"},
        {384, 4, 7, "power of two"}, // 96 sets.
        {8192, 0, 7, "ways must be > 0"},
        {0, 4, 7, "smaller than one 4-way set"},
        {2, 4, 7, "smaller than one 4-way set"},
        {8192, 4, 0, "bytesPerEntry"},
        {2 * kMaxBtbEntries, 4, 7, "cap"},
    };
    for (const Case &c : cases) {
        BtbConfig cfg;
        cfg.numEntries = c.numEntries;
        cfg.ways = c.ways;
        cfg.bytesPerEntry = c.bytesPerEntry;
        EXPECT_EXIT({ Btb b(cfg); }, ::testing::ExitedWithCode(1),
                    c.message)
            << c.numEntries << " entries, " << c.ways << " ways";
    }
    BtbConfig largest;
    largest.numEntries = kMaxBtbEntries;
    EXPECT_EQ(Btb(largest).storageBytes(), std::uint64_t{kMaxBtbEntries} * 7);
}

/** Capacity sweep: a working set within capacity must be fully held. */
class BtbCapacity : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BtbCapacity, HoldsWorkingSetWithinCapacity)
{
    BtbConfig cfg;
    cfg.numEntries = GetParam();
    Btb btb(cfg);
    // Insert 1/2 capacity distinct branches spread over 16B chunks.
    const unsigned n = cfg.numEntries / 2;
    for (unsigned i = 0; i < n; ++i)
        btb.install(0x10000 + i * 16, InstClass::kJumpDirect, 0x9000,
                   true);
    unsigned hits = 0;
    for (unsigned i = 0; i < n; ++i)
        if (btb.peek(0x10000 + i * 16).has_value())
            ++hits;
    EXPECT_EQ(hits, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BtbCapacity,
                         ::testing::Values(1024, 2048, 8192, 32768));

} // namespace
} // namespace fdip
