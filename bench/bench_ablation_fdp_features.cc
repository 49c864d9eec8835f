/**
 * @file
 * Ablations beyond the paper's figures (DESIGN.md section 5):
 *  - PFC restricted to unconditional branches (the pre-existing scheme
 *    the paper extends) vs full PFC vs no PFC;
 *  - taken-only vs all-branch BTB allocation under THR;
 *  - next-line prefetch degree;
 *  - L1I replacement policy (LRU vs random).
 */

#include "bench/bench_common.h"

#include "prefetch/next_line.h"

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Ablations: PFC scope, BTB allocation, NL degree, L1I repl",
           "Speedup over the no-FDP baseline.");

    const auto workloads = suite(400000);

    struct Mode
    {
        const char *label;
        bool enabled;
        bool uncondOnly;
    };
    const Mode modes[] = {Mode{"off", false, false},
                          Mode{"unconditional-only", true, true},
                          Mode{"full (paper)", true, false}};
    const unsigned degrees[] = {1u, 2u, 4u};
    struct Repl
    {
        ReplacementPolicy policy;
        const char *name;
    };
    const Repl repls[] = {{ReplacementPolicy::kLru, "LRU"},
                          {ReplacementPolicy::kRandom, "random"}};

    Campaign c(workloads);
    const std::size_t base = c.add("base", noFdpConfig(), noPrefetcher());
    std::vector<std::size_t> mode_idx;
    for (const Mode &m : modes) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.btb.numEntries = 2048;
        cfg.pfcEnabled = m.enabled;
        cfg.pfcUnconditionalOnly = m.uncondOnly;
        mode_idx.push_back(
            c.add(std::string("pfc: ") + m.label, cfg, noPrefetcher()));
    }
    std::vector<std::size_t> degree_idx;
    for (unsigned degree : degrees) {
        // The factory is a lambda, so the id is what keeps the three
        // degrees apart in the spool.
        const std::string id = "nl-degree-" + std::to_string(degree);
        degree_idx.push_back(c.add(
            id, noFdpConfig(),
            [degree](const Trace &) {
                return std::make_unique<NextLinePrefetcher>(degree);
            },
            id));
    }
    std::vector<std::size_t> repl_idx;
    for (const Repl &repl : repls) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.l1i.replacement = repl.policy;
        repl_idx.push_back(c.add(std::string("repl: ") + repl.name, cfg,
                                 noPrefetcher()));
    }

    const auto results = runTimed(c, "ablation_fdp_features");

    {
        std::printf("\n-- PFC scope (2K-entry BTB to stress it) --\n");
        TextTable t({"PFC mode", "speedup", "MPKI", "PFC fires/KI"});
        for (std::size_t i = 0; i < mode_idx.size(); ++i) {
            const SuiteResult &r = results[mode_idx[i]];
            double fires = 0;
            double insts = 0;
            for (const auto &run : r.runs) {
                fires += static_cast<double>(run.stats.pfcFires);
                insts += static_cast<double>(run.stats.committedInsts);
            }
            t.addRow({modes[i].label,
                      speedupStr(r.speedupOver(results[base])),
                      TextTable::num(r.meanMpki()),
                      TextTable::num(1000.0 * fires / insts)});
        }
        t.print();
    }

    {
        std::printf("\n-- BTB allocation policy under THR --\n");
        TextTable t({"allocation", "speedup", "MPKI", "BTB hit rate"});
        for (bool taken_only : {true, false}) {
            // Resolving applies the THR scheme, which forces taken-only
            // allocation; override it afterwards and run the resolved
            // config directly, bypassing the executor's own resolution.
            SuiteResult r;
            r.label = taken_only ? "taken-only" : "all-branch";
            CoreConfig cfg = paperBaselineConfig();
            cfg.historyScheme = HistoryScheme::kThr;
            cfg = resolveRunConfig(cfg, r.label);
            cfg.bpu.btb.allocateTakenOnly = taken_only;
            for (const SuiteEntry &entry : workloads) {
                r.runs.push_back(runOne(cfg, entry, noPrefetcher(),
                                        SpoolOptions{}.warmupFraction));
            }
            double hit_rate = 0;
            for (const auto &run : r.runs) {
                hit_rate += static_cast<double>(run.stats.btbHits) /
                            static_cast<double>(
                                std::max<std::uint64_t>(
                                    run.stats.btbLookups, 1));
            }
            hit_rate /= static_cast<double>(r.runs.size());
            t.addRow({taken_only ? "taken-only (paper)" : "all-branch",
                      speedupStr(r.speedupOver(results[base])),
                      TextTable::num(r.meanMpki()),
                      TextTable::pct(hit_rate)});
        }
        t.print();
    }

    {
        std::printf("\n-- Next-line prefetch degree (no FDP) --\n");
        TextTable t({"degree", "speedup", "tag accesses/KI"});
        for (std::size_t i = 0; i < degree_idx.size(); ++i) {
            const SuiteResult &r = results[degree_idx[i]];
            t.addRow({std::to_string(degrees[i]),
                      speedupStr(r.speedupOver(results[base])),
                      TextTable::num(r.meanTagAccessesPerKi(), 1)});
        }
        t.print();
    }

    {
        std::printf("\n-- L1I replacement policy (FDP) --\n");
        TextTable t({"policy", "speedup"});
        for (std::size_t i = 0; i < repl_idx.size(); ++i) {
            t.addRow({repls[i].name,
                      speedupStr(results[repl_idx[i]].speedupOver(
                          results[base]))});
        }
        t.print();
    }
    return 0;
}
