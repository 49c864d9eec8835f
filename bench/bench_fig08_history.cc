/**
 * @file
 * Fig. 8 / Tables II & V — Branch history management policies.
 *
 * Policies (Table V): Ideal (oracle direction history), THR
 * (taken-only target history, taken-only BTB allocation), GHR0/1 (no
 * fixup; taken-only / all-branch allocation), GHR2/3 (pre-decode fixup
 * flushes; taken-only / all-branch allocation).
 *
 * Paper: THR ~= Ideal; GHR2 is 23.7% below Ideal (flush cost); GHR0
 * has 19.5% more mispredictions and 1.5% lower performance than Ideal;
 * PFC helps every configuration.
 *
 * All 13 configurations (baseline + 6 policies x PFC on/off) are one
 * campaign, parallelized under FDIP_JOBS; with FDIP_SPOOL set the
 * campaign drains through the content-addressed result spool, so an
 * interrupted sweep resumes and a finished one re-simulates nothing.
 */

#include "bench/bench_common.h"

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Fig. 8: history-management policies (Table V)",
           "Speedup over the no-FDP baseline; MPKI; fixup flushes/KI.");

    const auto workloads = suite(500000);

    struct Policy
    {
        HistoryScheme scheme;
        const char *paperNote;
    };
    const Policy policies[] = {
        {HistoryScheme::kIdeal, "reference"},
        {HistoryScheme::kThr, "~= Ideal (paper headline)"},
        {HistoryScheme::kGhr0, "-1.5% vs Ideal, +19.5% MPKI"},
        {HistoryScheme::kGhr1, "between GHR0 and Ideal"},
        {HistoryScheme::kGhr2, "-23.7% vs Ideal (flushes)"},
        {HistoryScheme::kGhr3, "better than GHR2, BTB pressure"},
    };

    Campaign c(workloads);
    const std::size_t base = c.add("base", noFdpConfig(), noPrefetcher());

    // indices[pfc on=0/off=1][policy]
    std::size_t indices[2][6];
    for (int p = 0; p < 2; ++p) {
        const bool pfc = p == 0;
        for (std::size_t i = 0; i < 6; ++i) {
            CoreConfig cfg = paperBaselineConfig();
            cfg.historyScheme = policies[i].scheme;
            cfg.pfcEnabled = pfc;
            indices[p][i] = c.add(historySchemeName(policies[i].scheme),
                                  cfg, noPrefetcher());
        }
    }

    const auto results = runTimed(c, "fig08_history");

    for (int p = 0; p < 2; ++p) {
        std::printf("\n--- PFC %s ---\n", p == 0 ? "ON" : "OFF");
        TextTable t({"policy", "speedup", "MPKI", "fixups/KI", "paper"});
        for (std::size_t i = 0; i < 6; ++i) {
            const SuiteResult &r = results[indices[p][i]];
            double fixups = 0;
            double insts = 0;
            for (const auto &run : r.runs) {
                fixups += static_cast<double>(run.stats.ghrFixups);
                insts += static_cast<double>(run.stats.committedInsts);
            }
            t.addRow({historySchemeName(policies[i].scheme),
                      speedupStr(r.speedupOver(results[base])),
                      TextTable::num(r.meanMpki()),
                      TextTable::num(1000.0 * fixups / insts),
                      policies[i].paperNote});
        }
        t.print();
    }
    return 0;
}
