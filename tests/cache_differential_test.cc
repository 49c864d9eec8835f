/**
 * @file
 * Differential tests: the single-walk cache against the plain
 * array-of-structs reference of cache_reference_model.h, over seeded
 * random probe/access/fill/contains/invalidate/reset streams on the
 * simulator's real geometries (L1I, L2, prefetch buffer, ITLB) and one
 * random-replacement geometry. After every operation the return value,
 * way, evicted address, prefetched mark, residency and all four
 * counters must match.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "cache_reference_model.h"
#include "core/core_config.h"
#include "util/rng.h"

namespace fdip
{
namespace
{

/** Replays @p ops random operations on both models. Addresses span
 *  three times the cache's capacity, at two bases (one near the top of
 *  the 48-bit space), at random offsets within the line. */
void
replay(const CacheConfig &cfg, std::uint64_t seed, int ops = 100000)
{
    Cache dut(cfg);
    ref::RefCache ref(cfg);
    Rng rng(seed);
    const std::uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    const std::uint64_t footprint = 3 * lines;
    const Addr bases[] = {0x400000, 0xffff00000000};
    auto draw = [&] {
        return bases[rng.below(2)] + rng.below(footprint) * cfg.lineBytes +
               rng.below(cfg.lineBytes);
    };

    int marked_hits = 0;
    int resets = 0;
    for (int i = 0; i < ops; ++i) {
        const Addr addr = draw();
        const std::uint64_t op = rng.below(1000);
        SCOPED_TRACE(testing::Message()
                     << cfg.name << " op " << i << " kind " << op
                     << " addr 0x" << std::hex << addr);
        if (op < 200) {
            ASSERT_EQ(dut.probe(addr), ref.probe(addr));
        } else if (op < 500) {
            bool dut_pf = false;
            bool ref_pf = false;
            ASSERT_EQ(dut.access(addr, &dut_pf), ref.access(addr, &ref_pf));
            ASSERT_EQ(dut_pf, ref_pf);
            marked_hits += dut_pf ? 1 : 0;
        } else if (op < 850) {
            const bool prefetch = rng.below(2) == 0;
            unsigned dut_way = ~0u;
            unsigned ref_way = ~0u;
            ASSERT_EQ(dut.fill(addr, &dut_way, prefetch),
                      ref.fill(addr, &ref_way, prefetch));
            ASSERT_EQ(dut_way, ref_way);
        } else if (op < 920) {
            ASSERT_EQ(dut.contains(addr), ref.contains(addr));
        } else {
            dut.invalidate(addr);
            ref.invalidate(addr);
        }
        // Rare enough that the cache refills between resets.
        if (rng.below(8 * lines) == 0) {
            dut.reset();
            ref.reset();
            ++resets;
        }
        ASSERT_EQ(dut.contains(addr), ref.contains(addr));
        const Addr other = draw();
        ASSERT_EQ(dut.contains(other), ref.contains(other));
        ASSERT_EQ(dut.tagAccesses(), ref.tagAccesses());
        ASSERT_EQ(dut.hits(), ref.hits());
        ASSERT_EQ(dut.misses(), ref.misses());
        ASSERT_EQ(dut.evictions(), ref.evictions());
    }
    // The stream must have exercised replacement (not only cold
    // fills), the prefetched mark and reset.
    EXPECT_GT(dut.evictions(), 0u);
    EXPECT_GT(marked_hits, 0);
    EXPECT_GT(resets, 0);
}

TEST(CacheDifferential, L1I)
{
    replay(CoreConfig{}.l1i, 1);
}

TEST(CacheDifferential, L2)
{
    replay(MemoryConfig{}.l2, 2, 300000);
}

TEST(CacheDifferential, PrefetchBuffer)
{
    replay(prefetchBufferConfig(CoreConfig{}.prefetchBufferLines), 3);
}

TEST(CacheDifferential, Itlb)
{
    replay(itlbCacheConfig(CoreConfig{}.itlbEntries), 4);
}

TEST(CacheDifferential, RandomReplacement)
{
    replay(CacheConfig{"random", 8 * 1024, 4, kCacheLineBytes,
                       ReplacementPolicy::kRandom},
           5);
}

} // namespace
} // namespace fdip
