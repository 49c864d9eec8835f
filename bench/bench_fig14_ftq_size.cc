/**
 * @file
 * Fig. 14 — FTQ size sensitivity and cache-miss exposure.
 *
 * Paper: speedup grows from +23.7% (4-entry) to +39.5% (12-entry) and
 * is marginal beyond; with a 2-entry FTQ, 76% of misses are fully or
 * partially exposed, and a 24-entry FTQ removes 90.6% of those exposed
 * misses.
 *
 * The whole FTQ sweep is one campaign — the "ftq" preset of
 * `fdipsim --campaign`, so both share spool records — parallelized
 * under FDIP_JOBS; with FDIP_SPOOL set it drains through the
 * content-addressed result spool (resumable, dedup'd — see
 * docs/CAMPAIGN.md).
 */

#include "bench/bench_common.h"

#include "sim/campaign_presets.h"

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Fig. 14: FTQ size sweep and miss-exposure classification",
           "Speedup normalized to the 2-entry FTQ (no FDP).");

    const auto workloads = suite(500000);

    // The "ftq" preset: first the no-FDP baseline (a 2-entry FTQ),
    // then FDP at each larger FTQ size.
    Campaign c(workloads);
    for (CampaignEntry &e : buildCampaignEntries("ftq"))
        c.add(std::move(e));

    const auto results = runTimed(c, "fig14_ftq_size");
    const SuiteResult &base = results.front();

    TextTable t({"FTQ entries", "speedup", "fully exposed", "partial",
                 "covered", "exposed frac", "paper"});

    double exposed_at_2 = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
        const unsigned entries = c.entries()[i].cfg.ftqEntries;
        const SuiteResult &r = results[i];

        double fully = 0;
        double partial = 0;
        double covered = 0;
        for (const auto &run : r.runs) {
            fully += static_cast<double>(run.stats.missFullyExposed);
            partial +=
                static_cast<double>(run.stats.missPartiallyExposed);
            covered += static_cast<double>(run.stats.missCovered);
        }
        const double total = fully + partial + covered;
        const double exposed = fully + partial;
        if (entries == 2)
            exposed_at_2 = exposed;

        const char *paper = entries == 4    ? "+23.7%"
                            : entries == 12 ? "+39.5%"
                            : entries == 24 ? "marginal gain"
                                            : "-";
        t.addRow({std::to_string(entries),
                  speedupStr(r.speedupOver(base)),
                  TextTable::num(fully, 0), TextTable::num(partial, 0),
                  TextTable::num(covered, 0),
                  total > 0 ? TextTable::pct(exposed / total) : "-",
                  paper});

        if (entries == 24 && exposed_at_2 > 0) {
            std::printf("exposed misses removed by 24-entry FTQ vs "
                        "2-entry: %.1f%%  [paper: 90.6%%]\n",
                        100.0 * (1.0 - exposed / exposed_at_2));
        }
    }
    t.print();
    return 0;
}
