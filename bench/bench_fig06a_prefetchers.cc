/**
 * @file
 * Fig. 6a — Instruction-prefetching performance with and without FDP.
 *
 * Paper results (speedup over no-FDP/no-prefetch baseline):
 *   NL1 10.6%, EIP-27KB 32.4% (without FDP); FDP alone 41.0%;
 *   FDP + perfect BTB +3.4%; FDP + EIP-128KB +4.3%;
 *   FDP + Perfect +5.4%; FDP + perfect BTB + perfect prefetch 46.9%.
 *
 * All configurations are batched into one campaign so the
 * (config, workload) pairs run in parallel under FDIP_JOBS.
 */

#include "bench/bench_common.h"

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Fig. 6a: prefetching with and without FDP",
           "Speedup over the no-FDP, no-prefetch baseline (geomean).");

    const auto workloads = suite(600000);

    struct Pf
    {
        const char *label;
        const char *name;
        const char *paperNoFdp;
        const char *paperFdp;
    };
    const Pf pfs[] = {
        {"NL1", "nl1", "+10.6%", "-"},
        {"FNL+MMA", "fnl+mma", "~+28%", "~FDP+1%"},
        {"D-JOLT", "d-jolt", "~+28%", "~FDP+1%"},
        {"EIP-27KB", "eip-27", "+32.4%", "~FDP+3%"},
        {"EIP-128KB", "eip-128", "~+33%", "FDP+4.3%"},
    };

    struct Row
    {
        std::size_t idx;
        std::string name;
        const char *paper;
    };

    Campaign c(workloads);
    const std::size_t base =
        c.add("baseline", noFdpConfig(), noPrefetcher());

    std::vector<Row> rows;
    for (const Pf &pf : pfs) {
        rows.push_back({c.add(pf.label, noFdpConfig(),
                              namedPrefetcher(pf.name), pf.name),
                        std::string(pf.label) + " (no FDP)", pf.paperNoFdp});
    }
    {
        CoreConfig cfg = noFdpConfig();
        cfg.perfectPrefetch = true;
        rows.push_back({c.add("perfect", cfg, noPrefetcher()),
                        "Perfect prefetch (no FDP)", "+30.6%"});
    }
    rows.push_back({c.add("FDP", paperBaselineConfig(), noPrefetcher()),
                    "FDP alone", "+41.0%"});
    for (const Pf &pf : pfs) {
        rows.push_back({c.add(std::string("FDP+") + pf.label,
                              paperBaselineConfig(), namedPrefetcher(pf.name),
                              pf.name),
                        std::string("FDP + ") + pf.label, pf.paperFdp});
    }
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.perfectPrefetch = true;
        rows.push_back({c.add("FDP+perfect", cfg, noPrefetcher()),
                        "FDP + perfect prefetch", "FDP+5.4%"});
    }
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.perfectBtb = true;
        rows.push_back({c.add("FDP+perfBTB", cfg, noPrefetcher()),
                        "FDP + perfect BTB", "FDP+3.4%"});
    }
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.perfectBtb = true;
        cfg.perfectPrefetch = true;
        rows.push_back({c.add("FDP+perfBTB+perfPf", cfg, noPrefetcher()),
                        "FDP + perfect BTB + perfect prefetch", "+46.9%"});
    }

    const auto results = runTimed(c, "fig06a_prefetchers");

    TextTable t({"configuration", "speedup", "MPKI", "paper"});
    for (const Row &row : rows) {
        const SuiteResult &r = results[row.idx];
        t.addRow({row.name, speedupStr(r.speedupOver(results[base])),
                  TextTable::num(r.meanMpki()), row.paper});
    }
    t.print();
    return 0;
}
