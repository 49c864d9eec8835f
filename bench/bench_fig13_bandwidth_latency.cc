/**
 * @file
 * Fig. 13 — Prediction bandwidth and BTB latency sensitivity.
 *
 * Paper: halving bandwidth (B6) costs 0.6%; B18 adds nothing over B12;
 * allowing multiple taken predictions per cycle (B18m) adds 0.2%;
 * 4-cycle BTB latency costs 1.8% vs the 2-cycle baseline.
 */

#include "bench/bench_common.h"

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Fig. 13: prediction bandwidth / BTB latency",
           "FDP frontend; speedup relative to the B12, 2-cycle baseline.");

    const auto workloads = suite(500000);

    struct Bw
    {
        const char *label;
        unsigned width;
        unsigned taken;
        const char *paper;
    };
    const Bw bws[] = {
        {"B6 (half)", 6, 1, "-0.6%"},
        {"B12 (baseline)", 12, 1, "0%"},
        {"B18 (1.5x)", 18, 1, "~0%"},
        {"B18m (2 takens)", 18, 2, "+0.2%"},
    };
    const unsigned latencies[] = {1u, 2u, 3u, 4u};

    Campaign c(workloads);
    const std::size_t baseline =
        c.add("B12", paperBaselineConfig(), noPrefetcher());
    std::vector<std::size_t> bw_idx;
    for (const Bw &bw : bws) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.predictBandwidth = bw.width;
        cfg.maxTakenPerCycle = bw.taken;
        bw_idx.push_back(c.add(bw.label, cfg, noPrefetcher()));
    }
    std::vector<std::size_t> lat_idx;
    for (unsigned lat : latencies) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.btbLatency = lat;
        lat_idx.push_back(
            c.add("lat" + std::to_string(lat), cfg, noPrefetcher()));
    }

    const auto results = runTimed(c, "fig13_bandwidth_latency");

    {
        TextTable t({"bandwidth", "vs B12", "paper"});
        for (std::size_t i = 0; i < bw_idx.size(); ++i) {
            t.addRow({bws[i].label,
                      speedupStr(results[bw_idx[i]].speedupOver(
                          results[baseline])),
                      bws[i].paper});
        }
        t.print();
    }

    {
        std::printf("\n");
        TextTable t({"BTB latency", "vs 2-cycle", "paper"});
        for (std::size_t i = 0; i < lat_idx.size(); ++i) {
            const unsigned lat = latencies[i];
            const char *paper = lat == 4 ? "-1.8%"
                                : lat == 2 ? "0%"
                                           : "-";
            t.addRow({std::to_string(lat),
                      speedupStr(results[lat_idx[i]].speedupOver(
                          results[baseline])),
                      paper});
        }
        t.print();
    }
    return 0;
}
