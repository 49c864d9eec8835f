/**
 * @file
 * Layer replays: drive one layer's public functions with a trace's own
 * committed branch and line stream, and time the calls from outside.
 *
 * The simulator core interleaves every layer inside one tick loop, so
 * its host time per layer is only visible through the sampled tick
 * profiler. The replays here isolate each layer instead: they walk the
 * committed path once, fetch block by fetch block, and call the BPU,
 * L1I/hierarchy, prefetcher and FTQ functions the core calls. Calls are
 * timed in batches (one clock pair per phase per chunk of blocks),
 * because a clock read per call would swamp a 40 ns operation.
 *
 * Within a chunk the phases run in a fixed order (history snapshots,
 * BTB lookups, direction and indirect predict+update, BTB inserts,
 * history pushes, L1I accesses, hierarchy fetches, prefetcher hooks,
 * prefetch probes, FTQ push/pop), so a prediction sees the history and
 * BTB state as of the start of its chunk: a predictor whose updates
 * land up to one chunk late. The replays therefore count differently
 * from the full core; their counts are deterministic for a trace.
 */

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "core/core_config.h"
#include "trace/trace_gen.h"

namespace perfbench
{

/** Counts and host times of one or more replays (summable). */
struct ReplayResult
{
    /// @{ Work done (deterministic for a trace and config).
    std::uint64_t insts = 0;
    std::uint64_t blocks = 0;
    std::uint64_t branches = 0;
    std::uint64_t btbHits = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t indirectBranches = 0;
    std::uint64_t historyPushes = 0;
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iHits = 0;
    std::uint64_t hierFetches = 0;
    std::uint64_t prefetchHookCalls = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchesFilled = 0;
    std::uint64_t prefetchesUseful = 0;
    std::uint64_t ftqPushes = 0;
    /// @}

    /// @{ Host nanoseconds spent inside each batch of calls.
    double btbLookupNs = 0;
    double btbInsertNs = 0;
    double dirNs = 0;
    double indirectNs = 0;
    double historyPushNs = 0;
    double historySnapshotNs = 0;
    double l1iAccessNs = 0;
    double hierFetchNs = 0;
    double prefetchHookNs = 0;
    double prefetchProbeNs = 0;
    double ftqNs = 0;
    /// @}

    void add(const ReplayResult &o);
};

/**
 * Replays @p trace's committed path through fresh BPU, L1I, memory
 * hierarchy, prefetcher (@p prefetcher, a factory name) and FTQ
 * instances built from @p cfg (historyScheme already applied).
 */
ReplayResult replayTrace(const fdip::CoreConfig &cfg,
                         const std::string &prefetcher,
                         const fdip::Trace &trace);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H_
