/** @file Tests for the generic set-associative cache. */

#include "cache/cache.h"

#include <set>
#include <type_traits>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fdip
{
namespace
{

CacheConfig
tiny(unsigned size_kb = 1, unsigned ways = 2,
     ReplacementPolicy repl = ReplacementPolicy::kLru)
{
    CacheConfig cfg;
    cfg.name = "tiny";
    cfg.sizeBytes = size_kb * 1024ull;
    cfg.ways = ways;
    cfg.replacement = repl;
    return cfg;
}

TEST(Cache, MissThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.probe(0x1000).has_value());
    c.fill(0x1000);
    EXPECT_TRUE(c.probe(0x1000).has_value());
    EXPECT_TRUE(c.probe(0x1020).has_value()); // Same 64B line.
    EXPECT_FALSE(c.probe(0x1040).has_value()); // Next line.
}

TEST(Cache, LineAlignment)
{
    Cache c(tiny());
    EXPECT_EQ(c.lineOf(0x1234), 0x1200u);
    EXPECT_EQ(c.lineOf(0x1240), 0x1240u);
}

TEST(Cache, StatsCount)
{
    Cache c(tiny());
    c.probe(0x1000);
    c.fill(0x1000);
    c.access(0x1000);
    EXPECT_EQ(c.tagAccesses(), 2u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
    c.resetStats();
    EXPECT_EQ(c.tagAccesses(), 0u);
}

TEST(Cache, LruEviction)
{
    // 1KB, 2-way, 64B lines -> 8 sets. Same set: stride 8*64 = 512B.
    Cache c(tiny());
    c.fill(0x0000);
    c.fill(0x0200);
    c.access(0x0000); // Refresh.
    c.fill(0x0400); // Evicts 0x0200.
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_FALSE(c.contains(0x0200));
    EXPECT_TRUE(c.contains(0x0400));
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(Cache, InsertReturnsVictim)
{
    Cache c(tiny());
    EXPECT_EQ(c.fill(0x0000), kNoAddr);
    EXPECT_EQ(c.fill(0x0200), kNoAddr);
    const Addr victim = c.fill(0x0400);
    EXPECT_EQ(victim, 0x0000u);
}

TEST(Cache, ReinsertIsRefreshNotEviction)
{
    Cache c(tiny());
    c.fill(0x0000);
    EXPECT_EQ(c.fill(0x0000), kNoAddr);
    EXPECT_EQ(c.evictions(), 0u);
}

TEST(Cache, WayReporting)
{
    Cache c(tiny());
    unsigned w0 = 99;
    unsigned w1 = 99;
    c.fill(0x0000, &w0);
    c.fill(0x0200, &w1);
    EXPECT_NE(w0, w1);
    EXPECT_LT(w0, 2u);
    EXPECT_LT(w1, 2u);
    const auto probe = c.probe(0x0000);
    ASSERT_TRUE(probe.has_value());
    EXPECT_EQ(*probe, w0);
}

TEST(Cache, InvalidateAndReset)
{
    Cache c(tiny());
    c.fill(0x1000);
    c.fill(0x2000);
    c.invalidate(0x1000);
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_TRUE(c.contains(0x2000));
    c.reset();
    EXPECT_FALSE(c.contains(0x2000));
}

/** Demand-accesses @p addr and returns whether it hit a line carrying
 *  the prefetched mark. */
bool
hitPrefetched(Cache &c, Addr addr)
{
    bool prefetched = false;
    EXPECT_TRUE(c.access(addr, &prefetched).has_value()) << std::hex
                                                         << addr;
    return prefetched;
}

TEST(Cache, PrefetchFillSetsMarkAndHitReportsItOnce)
{
    Cache c(tiny());
    c.fill(0x1000, nullptr, true);
    c.fill(0x2000);
    EXPECT_TRUE(hitPrefetched(c, 0x1000));
    EXPECT_FALSE(hitPrefetched(c, 0x1000)); // Consumed by the first hit.
    EXPECT_FALSE(hitPrefetched(c, 0x2000)); // Demand fill: never marked.
}

TEST(Cache, ProbeLeavesMarkForTheDemandHit)
{
    Cache c(tiny());
    c.fill(0x1000, nullptr, true);
    EXPECT_TRUE(c.probe(0x1000).has_value());
    EXPECT_TRUE(hitPrefetched(c, 0x1000));
}

TEST(Cache, MissReportsNoMark)
{
    Cache c(tiny());
    bool prefetched = true;
    EXPECT_FALSE(c.access(0x1000, &prefetched).has_value());
    EXPECT_FALSE(prefetched);
}

TEST(Cache, RefillOfResidentLineOverwritesMark)
{
    Cache c(tiny());
    c.fill(0x1000, nullptr, true);
    c.fill(0x1000); // Demand refill of a resident line.
    EXPECT_FALSE(hitPrefetched(c, 0x1000));
    c.fill(0x1000, nullptr, true); // And a prefetch refill re-marks it.
    EXPECT_TRUE(hitPrefetched(c, 0x1000));
}

TEST(Cache, EvictionDropsMark)
{
    // 1KB, 2-way: 0x0000, 0x0200 and 0x0400 share a set. The marked
    // line is evicted unused; its demand refill must not inherit the
    // mark, and the way it vacated must not hand it to the next line.
    Cache c(tiny());
    c.fill(0x0000, nullptr, true);
    c.fill(0x0200);
    EXPECT_EQ(c.fill(0x0400), 0x0000u);
    EXPECT_FALSE(hitPrefetched(c, 0x0400));
    c.fill(0x0000);
    EXPECT_FALSE(hitPrefetched(c, 0x0000));
}

TEST(Cache, FullyAssociativeEvictionDropsMark)
{
    // The prefetch buffer's shape: one fully associative set.
    Cache c(tiny(1, 16));
    c.fill(0x0000, nullptr, true);
    for (Addr a = 1; a <= 16; ++a)
        c.fill(a * kCacheLineBytes);
    EXPECT_FALSE(c.contains(0x0000));
    c.fill(0x0000);
    EXPECT_FALSE(hitPrefetched(c, 0x0000));
}

TEST(Cache, InvalidateAndResetDropMark)
{
    Cache c(tiny());
    c.fill(0x1000, nullptr, true);
    c.fill(0x2000, nullptr, true);
    c.invalidate(0x1000);
    c.fill(0x1000);
    EXPECT_FALSE(hitPrefetched(c, 0x1000));
    c.reset();
    c.fill(0x2000);
    EXPECT_FALSE(hitPrefetched(c, 0x2000));
}

TEST(Cache, RejectsBadGeometry)
{
    struct Case
    {
        std::uint64_t sizeBytes;
        unsigned ways;
        unsigned lineBytes;
        const char *message;
    };
    const Case cases[] = {
        {1000, 3, 64, "set count"}, // 15 lines / 3 ways = 5 sets.
        {32 * 1024, 8, 48, "line size"},
        {96 * 1024, 8, 64, "set count"}, // 1536 lines / 8 ways.
        {32 * 1024, 0, 64, "ways must be > 0"},
        {256, 8, 64, "smaller than one set"},
    };
    for (const Case &c : cases) {
        CacheConfig cfg;
        cfg.sizeBytes = c.sizeBytes;
        cfg.ways = c.ways;
        cfg.lineBytes = c.lineBytes;
        EXPECT_EXIT({ Cache cache(cfg); }, ::testing::ExitedWithCode(1),
                    c.message)
            << c.sizeBytes << " B, " << c.ways << " ways, " << c.lineBytes
            << " B lines";
    }
}

/** Property: cache contents are always a subset of inserted lines and
 *  never exceed capacity, for several geometries and policies. */
struct GeomParam
{
    unsigned sizeKb;
    unsigned ways;
    ReplacementPolicy repl;
    // gtest names each case by printing the parameter's raw bytes, so
    // every byte is an explicit field (no padding): the case names stay
    // the same from build to build. nameTag only feeds the case name.
    std::uint8_t nameTag;
    std::uint16_t reserved;
};
static_assert(std::has_unique_object_representations_v<GeomParam>,
              "GeomParam must have no padding bytes");

class CacheGeometry : public ::testing::TestWithParam<GeomParam>
{
};

TEST_P(CacheGeometry, InclusionAndCapacityInvariant)
{
    const GeomParam p = GetParam();
    Cache c(tiny(p.sizeKb, p.ways, p.repl));
    std::set<Addr> inserted;
    Rng rng(p.sizeKb * 1000 + p.ways);

    for (int i = 0; i < 20000; ++i) {
        const Addr line = rng.below(4096) * kCacheLineBytes;
        if (rng.below(2) == 0) {
            c.fill(line);
            inserted.insert(line);
        } else {
            const bool hit = c.access(line).has_value();
            if (hit) {
                EXPECT_TRUE(inserted.count(line)) << std::hex << line;
            }
        }
    }
    // Spot-check capacity: resident lines <= total lines.
    const std::uint64_t capacity_lines =
        p.sizeKb * 1024ull / kCacheLineBytes;
    std::uint64_t resident = 0;
    for (Addr line = 0; line < 4096 * kCacheLineBytes;
         line += kCacheLineBytes) {
        if (c.contains(line))
            ++resident;
    }
    EXPECT_LE(resident, capacity_lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(GeomParam{1, 2, ReplacementPolicy::kLru, 0x00, 0},
                      GeomParam{2, 4, ReplacementPolicy::kLru, 0x1e, 0},
                      GeomParam{4, 8, ReplacementPolicy::kLru, 0xda, 0},
                      GeomParam{1, 2, ReplacementPolicy::kRandom, 0x00, 0},
                      GeomParam{4, 16, ReplacementPolicy::kRandom, 0x00, 0}));

} // namespace
} // namespace fdip
