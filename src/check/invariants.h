/**
 * @file
 * Structure-level invariant checkers for the simulator's hardware
 * models. Each function throws InvariantViolation (via FDIP_CHECK) on
 * the first violated property and is a no-op in builds with checks
 * compiled out.
 *
 * Only properties the model maintains are checked here: well-formed
 * FTQ entries and conservation laws, counters that must agree by
 * construction (tag accesses = hits + misses, mispredicts = sum of
 * cause buckets, FTQ occupancy <= capacity). A violated conservation
 * law means the simulator is silently corrupting the statistics every
 * figure is derived from. Configuration legality is not an invariant:
 * validateCoreConfig and the structure constructors reject an illegal
 * configuration with fdip_fatal in every build.
 *
 * Header-only so fdip_core can call these from the frontend hot loop
 * without a dependency on the fdip_check library (which links against
 * fdip_core for the budget accounting).
 */

#ifndef FDIP_CHECK_INVARIANTS_H_
#define FDIP_CHECK_INVARIANTS_H_

#include "cache/cache.h"
#include "core/ftq.h"
#include "core/sim_stats.h"
#include "util/hotpath.h"
#include "util/invariant.h"

namespace fdip
{

/** One FTQ entry's internal consistency. */
FDIP_HOT_PATH inline void
checkFtqEntry(const FtqEntry &e)
{
    FDIP_CHECK(e.termOffset < kInstsPerBlock,
               "FTQ entry terminates at offset %u beyond the %u-inst block",
               e.termOffset, kInstsPerBlock);
    FDIP_CHECK(e.startOffset() <= e.termOffset,
               "FTQ entry starts (%u) after it terminates (%u)",
               e.startOffset(), e.termOffset);
    FDIP_CHECK(e.numEvents <= kInstsPerBlock,
               "FTQ entry records %u events for a %u-inst block",
               e.numEvents, kInstsPerBlock);
    FDIP_CHECK(e.state != FtqState::kInvalid,
               "queued FTQ entry in the invalid state");
    for (unsigned i = 1; i < e.numEvents; ++i) {
        FDIP_CHECK(e.events[i - 1].offset < e.events[i].offset,
                   "FTQ entry events not strictly ordered by offset");
    }
}

/**
 * FTQ integrity: occupancy within capacity, entries well-formed, and
 * block sequence numbers strictly increasing from head to tail.
 */
FDIP_HOT_PATH inline void
checkFtqIntegrity(const Ftq &ftq)
{
    InvariantScope scope("checkFtqIntegrity");
    FDIP_CHECK(ftq.size() <= ftq.capacity(),
               "FTQ occupancy %zu exceeds capacity %zu", ftq.size(),
               ftq.capacity());
    for (std::size_t i = 0; i < ftq.size(); ++i) {
        checkFtqEntry(ftq.at(i));
        if (i > 0) {
            FDIP_CHECK(ftq.at(i - 1).seq < ftq.at(i).seq,
                       "FTQ block sequence not monotone at position %zu", i);
        }
    }
}

/** Tag-access conservation: every probe hits or misses, never both. */
FDIP_HOT_PATH inline void
checkCacheConservation(const Cache &cache)
{
    InvariantScope scope("checkCacheConservation");
    FDIP_CHECK(cache.hits() + cache.misses() == cache.tagAccesses(),
               "%s: hits %llu + misses %llu != tag accesses %llu",
               cache.config().name.c_str(),
               static_cast<unsigned long long>(cache.hits()),
               static_cast<unsigned long long>(cache.misses()),
               static_cast<unsigned long long>(cache.tagAccesses()));
}

/**
 * Statistics conservation laws. Only identities that survive the
 * warmup-boundary stats reset are checked here (counters zeroed
 * together and incremented together).
 */
FDIP_HOT_PATH inline void
checkSimStats(const SimStats &s)
{
    InvariantScope scope("checkSimStats");
    FDIP_CHECK(s.mispredicts == s.mispredictsCondDir +
                                    s.mispredictsBtbMissTaken +
                                    s.mispredictsTarget +
                                    s.mispredictsPfcMisfire,
               "mispredict cause buckets do not sum to the total");
    FDIP_CHECK(s.pfcFires >= s.pfcCorrect + s.pfcWrong,
               "more PFC outcomes than PFC fires");
    FDIP_CHECK(s.l1iDemandMisses <= s.l1iDemandAccesses,
               "more L1I demand misses than demand accesses");
    FDIP_CHECK(s.l1iDemandAccesses <= s.l1iTagAccesses,
               "more L1I demand accesses than total tag accesses");
}

/**
 * Full end-of-run statistics check. Valid only for runs without a
 * warmup reset (fills spanning the boundary break these identities);
 * used by the test suites on warmup-free runs.
 */
inline void
checkSimStatsFinal(const SimStats &s)
{
    InvariantScope scope("checkSimStatsFinal");
    checkSimStats(s);
    FDIP_CHECK(s.missFullyExposed + s.missPartiallyExposed +
                       s.missCovered <=
                   s.l1iDemandMisses,
               "more classified demand misses than demand misses");
    FDIP_CHECK(s.prefetchesRedundant <= s.prefetchesIssued,
               "more redundant prefetches than issued prefetches");
    FDIP_CHECK(s.prefetchesUseful <= s.prefetchesIssued,
               "more useful prefetches than issued prefetches");
    FDIP_CHECK(s.committedInsts <= s.deliveredInsts,
               "more committed than delivered correct-path instructions");
    // Cycle accounting (obs/cycle_account.h). Not valid mid-run or
    // across a warmup reset: the backend counts starvationCycles from
    // tick 0, but buckets are charged only once warm — Core::run
    // checks the post-warmup per-tick form itself.
    FDIP_CHECK(s.stallCycleSum() == s.starvationCycles,
               "stall buckets do not sum to starvation cycles");
    FDIP_CHECK(s.cycleBucketSum() == s.cycles,
               "cycle buckets do not sum to total cycles");
}

} // namespace fdip

#endif // FDIP_CHECK_INVARIANTS_H_
