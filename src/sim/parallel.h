/**
 * @file
 * Campaign definition for the experiment executor: labeled
 * (config, prefetcher) entries over one workload suite, and the worker
 * count the executor fans them out over. The executor itself —
 * runCampaignSpooled(), a worker pool with an optional result spool —
 * lives in sim/campaign_store.h.
 *
 * Worker count resolution: an explicit `jobs` value wins; `jobs = 0`
 * defers to the FDIP_JOBS environment variable; when that is unset (or
 * invalid, with a warning) the hardware concurrency is used. `jobs = 1`
 * executes on the calling thread with no pool at all — the exact serial
 * fallback.
 */

#ifndef FDIP_SIM_PARALLEL_H_
#define FDIP_SIM_PARALLEL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace fdip
{

/**
 * Resolves the worker count for the campaign executor.
 *
 * @param fallback value to use when FDIP_JOBS is unset or invalid;
 *                 0 means std::thread::hardware_concurrency() (itself
 *                 clamped to at least 1).
 *
 * FDIP_JOBS must be a plain positive decimal integer no larger than
 * kMaxJobs; `0`, garbage, negative, or huge values fall back to
 * @p fallback with a warning rather than crashing or oversubscribing.
 */
unsigned jobsFromEnv(unsigned fallback = 0);

/** Upper bound accepted from FDIP_JOBS before falling back. */
inline constexpr unsigned kMaxJobs = 1024;

/** One labeled configuration inside a campaign. */
struct CampaignEntry
{
    std::string label;
    CoreConfig cfg;
    PrefetcherFactory makePrefetcher;

    /**
     * Stable identity of the prefetcher behind makePrefetcher (the
     * factory name, e.g. "eip-27"), woven into the campaign manifest
     * hash. std::function is opaque, so content addressing needs the
     * caller to say which prefetcher a config runs; empty falls back
     * to `label`, which is correct only while distinct prefetchers
     * carry distinct labels — so every entry whose factory is not
     * noPrefetcher() should name its prefetcher here.
     */
    std::string prefetcherId;
};

/**
 * Builder for a campaign: accumulate labeled configs against one
 * suite, drain them all at once through runCampaignSpooled(), look
 * results up by the index add() returned.
 *
 *   Campaign c(workloads);
 *   const auto base = c.add("baseline", noFdpConfig(), noPrefetcher());
 *   const auto fdp  = c.add("FDP", paperBaselineConfig(), noPrefetcher());
 *   SpoolOptions opts;                     // no spoolDir: in memory
 *   const auto res = runCampaignSpooled(c.entries(), c.suite(), opts);
 *   res[fdp].speedupOver(res[base]);
 *
 * The suite is borrowed and must outlive the campaign; traces are
 * shared read-only across all runs and workers.
 */
class Campaign
{
  public:
    explicit Campaign(const std::vector<SuiteEntry> &suite) : suite_(suite)
    {
    }

    /** Adds a labeled config; returns its index into the results.
     *  @p prefetcher_id names the prefetcher for content addressing
     *  (see CampaignEntry::prefetcherId; empty = use the label). */
    std::size_t add(std::string label, CoreConfig cfg,
                    PrefetcherFactory make_prefetcher,
                    std::string prefetcher_id = {});

    /** Adds a prebuilt entry (e.g. one of buildCampaignEntries()). */
    std::size_t add(CampaignEntry entry);

    std::size_t size() const { return entries_.size(); }

    /** The accumulated entries, in add() order. */
    const std::vector<CampaignEntry> &entries() const { return entries_; }

    /** The borrowed suite. */
    const std::vector<SuiteEntry> &suite() const { return suite_; }

  private:
    const std::vector<SuiteEntry> &suite_;
    std::vector<CampaignEntry> entries_;
};

} // namespace fdip

#endif // FDIP_SIM_PARALLEL_H_
