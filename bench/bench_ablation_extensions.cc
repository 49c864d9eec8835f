/**
 * @file
 * Ablations of the optional extensions beyond the paper's evaluated
 * design: the two-level BTB hierarchy, the loop predictor, the
 * perceptron direction predictor, and the RDIP prefetcher (the
 * pre-IPC-1 ancestor of D-JOLT).
 */

#include "bench/bench_common.h"

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Ablations: two-level BTB, loop predictor, perceptron, RDIP",
           "Speedup over the no-FDP baseline; FDP frontend otherwise.");

    const auto workloads = suite(400000);
    struct Row
    {
        std::size_t idx;
        const char *name;
        const char *note;
    };

    Campaign c(workloads);
    const std::size_t base = c.add("base", noFdpConfig(), noPrefetcher());
    std::vector<Row> rows;
    rows.push_back({c.add("fdp", paperBaselineConfig(), noPrefetcher()),
                    "FDP baseline", "single-level 8K BTB"});
    {
        // Two-level BTB: tiny fast L1 in front of the 8K main BTB,
        // paying a bubble on L2-served taken re-steers.
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.btbHierarchy.enabled = true;
        cfg.bpu.btbHierarchy.l1Entries = 1024;
        cfg.bpu.btbHierarchy.l2ExtraLatency = 2;
        rows.push_back({c.add("2lvl", cfg, noPrefetcher()),
                        "FDP + 2-level BTB (1K L1)",
                        "L2 takens pay a 2-cycle bubble"});
    }
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.useLoopPredictor = true;
        rows.push_back({c.add("loop", cfg, noPrefetcher()),
                        "FDP + loop predictor",
                        "overrides TAGE on loop exits"});
    }
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.direction = DirectionPredictorKind::kPerceptron;
        rows.push_back({c.add("perceptron", cfg, noPrefetcher()),
                        "FDP + perceptron (instead of TAGE)",
                        "academic baseline [22]"});
    }
    rows.push_back({c.add("rdip", noFdpConfig(), namedPrefetcher("rdip"),
                          "rdip"),
                    "RDIP (no FDP)", "MICRO'13 RAS-directed prefetch"});
    rows.push_back({c.add("rdip+fdp", paperBaselineConfig(),
                          namedPrefetcher("rdip"), "rdip"),
                    "FDP + RDIP", "-"});
    {
        // Original-FDP prefetch buffer: prefetches land in a 32-line
        // side buffer instead of the L1I (pollution isolation).
        CoreConfig buffered = noFdpConfig();
        buffered.usePrefetchBuffer = true;
        rows.push_back({c.add("eip-direct", noFdpConfig(),
                              namedPrefetcher("eip-27"), "eip-27"),
                        "EIP-27 -> L1I (no FDP)",
                        "prefetch fills pollute L1I"});
        rows.push_back({c.add("eip-buffered", buffered,
                              namedPrefetcher("eip-27"), "eip-27"),
                        "EIP-27 -> prefetch buffer (no FDP)",
                        "original FDP [8] side buffer"});
    }

    const auto results = runTimed(c, "ablation_extensions");

    TextTable t({"configuration", "speedup", "MPKI", "note"});
    for (const Row &row : rows) {
        const SuiteResult &r = results[row.idx];
        t.addRow({row.name, speedupStr(r.speedupOver(results[base])),
                  TextTable::num(r.meanMpki()), row.note});
    }
    t.print();
    return 0;
}
