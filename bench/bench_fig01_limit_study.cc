/**
 * @file
 * Fig. 1 — Prefetching limit study in the IPC-1-like framework.
 *
 * All mechanisms use perfect branch prediction (direction + BTB +
 * indirect targets), as in the paper's limit study. The baseline is a
 * shallow-FTQ frontend (no FDP run-ahead); "FDP" enables the
 * 192-instruction FTQ. Paper result: the top-3 IPC-1 prefetchers give
 * >28% (close to perfect's 30.6%), while FDP alone with a larger FTQ
 * gives 30.2%, and prefetchers on top of FDP add little.
 */

#include "bench/bench_common.h"

#include <iterator>

namespace fdip
{
namespace
{

CoreConfig
perfectBpConfig(bool fdp)
{
    CoreConfig cfg = fdp ? paperBaselineConfig() : noFdpConfig();
    cfg.bpu.direction = DirectionPredictorKind::kPerfect;
    cfg.bpu.perfectBtb = true;
    cfg.bpu.perfectIndirect = true;
    return cfg;
}

} // namespace
} // namespace fdip

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Fig. 1: prefetching limit study (perfect branch prediction)",
           "Speedup over the no-FDP, no-prefetch baseline.");

    const auto workloads = suite(600000);

    struct Row
    {
        const char *label;
        const char *pf;
        const char *paperNoFdp;
        const char *paperFdp;
    };
    const Row rows[] = {
        {"NL1", "nl1", "~11%", "-"},
        {"FNL+MMA", "fnl+mma", ">28%", "~30%"},
        {"D-JOLT", "d-jolt", ">28%", "~30%"},
        {"EIP-128KB", "eip-128", ">28%", "~30%"},
        {"Perfect", "perfect", "30.6%", "~31%"},
    };

    Campaign c(workloads);
    const std::size_t base =
        c.add("baseline", perfectBpConfig(false), noPrefetcher());
    // FDP alone (the paper's "simplistic FDP with 192-inst FTQ").
    const std::size_t fdp_alone =
        c.add("fdp", perfectBpConfig(true), noPrefetcher());
    // idx[row][fdp]
    std::size_t idx[std::size(rows)][2];
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        // "Perfect" is an oracle mode of the core, not a prefetcher.
        const bool perfect = std::string(rows[i].pf) == "perfect";
        const char *pf = perfect ? "none" : rows[i].pf;
        for (int fdp = 0; fdp < 2; ++fdp) {
            CoreConfig cfg = perfectBpConfig(fdp == 1);
            cfg.perfectPrefetch = perfect;
            idx[i][fdp] =
                c.add(std::string(fdp == 1 ? "FDP+" : "") + rows[i].label,
                      cfg, namedPrefetcher(pf), pf);
        }
    }

    const auto results = runTimed(c, "fig01_limit_study");

    TextTable t({"prefetcher", "no FDP", "with FDP", "paper no-FDP",
                 "paper FDP"});
    t.addRow({"FDP alone", "-",
              speedupStr(results[fdp_alone].speedupOver(results[base])),
              "-", "30.2%"});
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        t.addRow({rows[i].label,
                  speedupStr(results[idx[i][0]].speedupOver(results[base])),
                  speedupStr(results[idx[i][1]].speedupOver(results[base])),
                  rows[i].paperNoFdp, rows[i].paperFdp});
    }
    t.print();
    std::printf("\nTakeaway check: prefetchers on top of FDP should add "
                "little over FDP alone.\n");
    return 0;
}
