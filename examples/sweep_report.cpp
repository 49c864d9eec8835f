/**
 * @file
 * Design-space sweep with machine-readable output: runs the FTQ-size
 * sweep of Fig. 14 over a reduced suite through the campaign executor
 * (FDIP_JOBS workers) and writes JSON + CSV reports for external
 * plotting.
 *
 * Usage: sweep_report [out_prefix]   (default /tmp/fdipsim_sweep)
 */

#include <cstdio>
#include <string>

#include "sim/campaign_store.h"
#include "sim/report.h"

int
main(int argc, char **argv)
{
    using namespace fdip;

    const std::string prefix =
        argc > 1 ? argv[1] : "/tmp/fdipsim_sweep";

    const auto suite = buildStandardSuite(300000, /*small=*/true);

    Campaign campaign(suite);
    for (unsigned ftq : {2u, 4u, 8u, 12u, 24u, 32u}) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.ftqEntries = ftq;
        campaign.add("ftq-" + std::to_string(ftq), cfg, noPrefetcher());
    }

    SpoolOptions options; // No spool: simulate everything in memory.
    const std::vector<SuiteResult> results =
        runCampaignSpooled(campaign.entries(), campaign.suite(), options);
    for (const SuiteResult &r : results) {
        std::printf("%-8s geomean IPC %.3f  mean MPKI %.2f\n",
                    r.label.c_str(), r.geomeanIpc(), r.meanMpki());
    }

    const std::string json = prefix + ".json";
    const std::string csv = prefix + ".csv";
    if (!writeSuiteResultsJson(json, results) ||
        !writeSuiteResultsCsv(csv, results)) {
        std::fprintf(stderr, "failed to write reports\n");
        return 1;
    }
    std::printf("\nwrote %s and %s\n", json.c_str(), csv.c_str());
    return 0;
}
