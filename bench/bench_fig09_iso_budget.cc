/**
 * @file
 * Fig. 9 — ISO-storage-budget comparison.
 *
 * A BTB entry costs ~7 bytes (Exynos M3 data), so EIP-27KB's metadata
 * equals a 4K-entry BTB. Compared on top of FDP:
 *   (1) 8K-entry BTB, (2) 4K-entry BTB + EIP-27KB, (3) 4K-entry BTB.
 * Paper: (1) 41.0% vs (2) 40.6%; (1) has 12% fewer mispredictions;
 * (2) has 13.5% fewer starvation cycles but ~3.5x more I-cache tag
 * accesses.
 *
 * The baseline and all three configurations run as one campaign under
 * FDIP_JOBS.
 */

#include "bench/bench_common.h"

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Fig. 9: ISO-budget comparison (BTB capacity vs EIP-27KB)",
           "All configurations run FDP with PFC enabled.");

    const auto workloads = suite(600000);

    struct Config
    {
        const char *label;
        unsigned btbEntries;
        const char *pf;
        const char *paper;
    };
    const Config configs[] = {
        {"8K BTB", 8192, "none", "+41.0%"},
        {"4K BTB + EIP-27KB", 4096, "eip-27", "+40.6%"},
        {"4K BTB (reference)", 4096, "none", "lower"},
    };

    Campaign c(workloads);
    const std::size_t base = c.add("base", noFdpConfig(), noPrefetcher());
    std::vector<std::size_t> indices;
    for (const Config &cc : configs) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.btb.numEntries = cc.btbEntries;
        indices.push_back(c.add(cc.label, cfg, namedPrefetcher(cc.pf), cc.pf));
    }

    const auto results = runTimed(c, "fig09_iso_budget");

    TextTable t({"configuration", "speedup", "MPKI", "starvation/KI",
                 "tag accesses/KI", "paper"});
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const SuiteResult &r = results[indices[i]];
        t.addRow({configs[i].label,
                  speedupStr(r.speedupOver(results[base])),
                  TextTable::num(r.meanMpki()),
                  TextTable::num(r.meanStarvationPerKi(), 1),
                  TextTable::num(r.meanTagAccessesPerKi(), 1),
                  configs[i].paper});
    }
    t.print();
    std::printf("\nPaper checks: 8K-BTB ~12%% fewer mispredicts; EIP "
                "~13.5%% fewer starvation cycles, ~3.5x tag accesses.\n");
    return 0;
}
