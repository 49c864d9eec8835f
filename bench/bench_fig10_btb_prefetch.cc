/**
 * @file
 * Fig. 10 — BTB prefetching (Divide-and-Conquer) under different BTB
 * sizes, history schemes, and PFC settings.
 *
 * Paper: PFC beats BTB prefetching; THR always beats GHR; BTB
 * prefetching helps small (2K) BTBs with GHR (+8.8%) but *hurts* an
 * 8K-entry BTB under THR (pollution from never-taken branches).
 */

#include "bench/bench_common.h"

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Fig. 10: SN4L+Dis with/without BTB prefetching",
           "FDP frontend; speedup over the no-FDP baseline.");

    const auto workloads = suite(400000);

    struct BtbSetting
    {
        const char *label;
        unsigned entries;
        bool perfect;
    };
    const BtbSetting btbs[] = {
        {"1K", 1024, false}, // Extra point: heavier capacity misses.
        {"2K", 2048, false},
        {"8K", 8192, false},
        {"perfect", 8192, true},
    };
    struct Row
    {
        const char *btb;
        HistoryScheme scheme;
        bool pfc;
        std::size_t without; ///< SN4L+Dis.
        std::size_t with;    ///< SN4L+Dis with BTB prefetching.
    };

    Campaign c(workloads);
    const std::size_t base = c.add("base", noFdpConfig(), noPrefetcher());
    std::vector<Row> rows;
    for (const BtbSetting &btb : btbs) {
        for (HistoryScheme scheme :
             {HistoryScheme::kThr, HistoryScheme::kGhr3}) {
            for (bool pfc : {true, false}) {
                CoreConfig cfg = paperBaselineConfig();
                cfg.bpu.btb.numEntries = btb.entries;
                cfg.bpu.perfectBtb = btb.perfect;
                cfg.historyScheme = scheme;
                cfg.pfcEnabled = pfc;
                const std::string at = std::string("@") + btb.label + "/" +
                                       historySchemeName(scheme) +
                                       (pfc ? "/pfc" : "/nopfc");
                rows.push_back(
                    {btb.label, scheme, pfc,
                     c.add("snd" + at, cfg, namedPrefetcher("sn4l+dis"),
                           "sn4l+dis"),
                     c.add("sndb" + at, cfg,
                           namedPrefetcher("sn4l+dis+btb"),
                           "sn4l+dis+btb")});
            }
        }
    }

    const auto results = runTimed(c, "fig10_btb_prefetch");

    TextTable t({"BTB", "history", "PFC", "SN4L+Dis", "SN4L+Dis+BTBpf",
                 "BTBpf delta"});
    for (const Row &row : rows) {
        const SuiteResult &without = results[row.without];
        const SuiteResult &with = results[row.with];
        t.addRow({row.btb, historySchemeName(row.scheme),
                  row.pfc ? "on" : "off",
                  speedupStr(without.speedupOver(results[base])),
                  speedupStr(with.speedupOver(results[base])),
                  speedupStr(with.speedupOver(without))});
    }
    t.print();
    std::printf("\nPaper checks: BTB prefetch +8.8%% @2K/GHR, +3.2%% "
                "@8K/GHR, negative @8K/THR; THR > GHR everywhere.\n");
    return 0;
}
