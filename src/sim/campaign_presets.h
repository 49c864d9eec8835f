/**
 * @file
 * Named campaigns for `fdipsim --campaign`: curated config x workload
 * cross products mirroring the paper's figure sweeps, so the spooled
 * campaign service (sim/campaign_store.h) can be driven — sharded,
 * killed, resumed, merged — from the command line without writing a
 * bench binary. Benches whose grid is a preset (fig14 = "ftq",
 * stall_accounting) build their entries from here, so a bench run and
 * a `--campaign` run of the same grid share spool records.
 *
 * Every preset sets CampaignEntry::prefetcherId explicitly, so the
 * manifest hash names the prefetcher by its factory name rather than
 * by display label.
 */

#ifndef FDIP_SIM_CAMPAIGN_PRESETS_H_
#define FDIP_SIM_CAMPAIGN_PRESETS_H_

#include <string>
#include <vector>

#include "sim/parallel.h"

namespace fdip
{

/** One selectable campaign. */
struct CampaignPreset
{
    const char *name;        ///< `fdipsim --campaign <name>`.
    const char *description; ///< One line for --help.
};

/** All presets, in display order. */
std::vector<CampaignPreset> campaignPresets();

/**
 * Builds the labeled entries of preset @p name. Fatal (clear message
 * listing the valid names) when @p name is unknown.
 */
std::vector<CampaignEntry>
buildCampaignEntries(const std::string &name);

} // namespace fdip

#endif // FDIP_SIM_CAMPAIGN_PRESETS_H_
