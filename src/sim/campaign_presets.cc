#include "sim/campaign_presets.h"

#include "util/log.h"

namespace fdip
{

namespace
{

/** Adds one entry with an explicit prefetcher identity. */
void
add(std::vector<CampaignEntry> &out, std::string label, CoreConfig cfg,
    const std::string &prefetcher)
{
    out.push_back(CampaignEntry{std::move(label), std::move(cfg),
                                namedPrefetcher(prefetcher), prefetcher});
}

/** Fig. 6a core: prefetchers with and without FDP. */
std::vector<CampaignEntry>
prefetchersCampaign()
{
    std::vector<CampaignEntry> out;
    add(out, "baseline", noFdpConfig(), "none");
    add(out, "NL1", noFdpConfig(), "nl1");
    add(out, "EIP-27KB", noFdpConfig(), "eip-27");
    add(out, "FDP", paperBaselineConfig(), "none");
    add(out, "FDP+NL1", paperBaselineConfig(), "nl1");
    add(out, "FDP+EIP-27KB", paperBaselineConfig(), "eip-27");
    return out;
}

/** Fig. 14: the FTQ size sweep (bench_fig14_ftq_size's grid; "ftq2"
 *  is the no-FDP baseline, i.e. the 2-entry FTQ). */
std::vector<CampaignEntry>
ftqCampaign()
{
    std::vector<CampaignEntry> out;
    add(out, "ftq2", noFdpConfig(), "none");
    for (unsigned entries : {4u, 8u, 12u, 16u, 24u, 32u}) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.ftqEntries = entries;
        add(out, "ftq-" + std::to_string(entries), cfg, "none");
    }
    return out;
}

/** Fig. 8 core: history-management policies (PFC on). */
std::vector<CampaignEntry>
historyCampaign()
{
    std::vector<CampaignEntry> out;
    add(out, "base", noFdpConfig(), "none");
    for (HistoryScheme scheme :
         {HistoryScheme::kIdeal, HistoryScheme::kThr, HistoryScheme::kGhr0,
          HistoryScheme::kGhr1, HistoryScheme::kGhr2,
          HistoryScheme::kGhr3}) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.historyScheme = scheme;
        add(out, historySchemeName(scheme), cfg, "none");
    }
    return out;
}

/** bench_stall_accounting's grid: cycle-accounting breakdowns by
 *  prefetcher as the BTB shrinks from 8K to 1K entries. The bench
 *  takes its entries from here, so bench and `fdipsim --campaign`
 *  runs share spool records. */
std::vector<CampaignEntry>
stallAccountingCampaign()
{
    std::vector<CampaignEntry> out;
    struct Pf
    {
        const char *label;
        const char *name; ///< "none": FDP alone, no L1I prefetcher.
    };
    const Pf pfs[] = {
        {"FDP", "none"},
        {"FDP+NL1", "nl1"},
        {"FDP+EIP-27KB", "eip-27"},
    };
    for (const Pf &pf : pfs) {
        for (unsigned entries : {1024u, 2048u, 4096u, 8192u}) {
            CoreConfig cfg = paperBaselineConfig();
            cfg.bpu.btb.numEntries = entries;
            add(out,
                std::string(pf.label) + "@" + std::to_string(entries),
                cfg, pf.name);
        }
    }
    return out;
}

/** A two-config smoke campaign, small enough for CI kill/resume. */
std::vector<CampaignEntry>
smokeCampaign()
{
    std::vector<CampaignEntry> out;
    add(out, "baseline", noFdpConfig(), "none");
    add(out, "FDP", paperBaselineConfig(), "none");
    return out;
}

} // namespace

std::vector<CampaignPreset>
campaignPresets()
{
    return {
        {"prefetchers",
         "Fig. 6a core: NL1/EIP with and without FDP (6 configs)"},
        {"ftq", "Fig. 14: FTQ size sweep (7 configs)"},
        {"history",
         "Fig. 8: history-management policies, PFC on (7 configs)"},
        {"stall_accounting",
         "cycle accounting by prefetcher x BTB size (12 configs; "
         "bench_stall_accounting's grid)"},
        {"smoke", "baseline vs FDP (2 configs; CI kill/resume smoke)"},
    };
}

std::vector<CampaignEntry>
buildCampaignEntries(const std::string &name)
{
    if (name == "prefetchers")
        return prefetchersCampaign();
    if (name == "ftq")
        return ftqCampaign();
    if (name == "history")
        return historyCampaign();
    if (name == "stall_accounting")
        return stallAccountingCampaign();
    if (name == "smoke")
        return smokeCampaign();

    std::string known;
    for (const CampaignPreset &p : campaignPresets()) {
        if (!known.empty())
            known += ", ";
        known += p.name;
    }
    fdip_fatal("unknown campaign '%s' (valid: %s)", name.c_str(),
               known.c_str());
}

} // namespace fdip
