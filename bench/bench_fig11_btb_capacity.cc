/**
 * @file
 * Fig. 11 — BTB capacity sensitivity with and without FDP.
 *
 * Paper: with FDP (PFC on), small BTBs are well tolerated; without
 * FDP, gains from BTB capacity are moderate with the largest jump at
 * 16K entries (branch footprint fits); FDP wins at every capacity
 * because it hides BTB and I-cache access latencies.
 */

#include "bench/bench_common.h"

#include <iterator>

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Fig. 11: BTB capacity sensitivity",
           "Speedup over the no-FDP baseline with its default 8K BTB.");

    const auto workloads = suite(500000);
    const unsigned sizes[] = {1024u, 2048u, 4096u, 8192u, 16384u, 32768u};

    struct Pair
    {
        std::size_t noFdp;
        std::size_t fdp;
    };
    Campaign c(workloads);
    std::vector<Pair> pairs;
    const std::size_t base = c.add("base", noFdpConfig(), noPrefetcher());
    for (unsigned entries : sizes) {
        // The no-FDP configuration models the academic baselines: no
        // run-ahead and no post-fetch correction, so BTB capacity is
        // fully exposed.
        CoreConfig no_fdp = noFdpConfig();
        no_fdp.bpu.btb.numEntries = entries;
        no_fdp.pfcEnabled = false;
        CoreConfig fdp = paperBaselineConfig();
        fdp.bpu.btb.numEntries = entries;
        std::string btb = "@";
        btb += std::to_string(entries);
        pairs.push_back({c.add("noFDP" + btb, no_fdp, noPrefetcher()),
                         c.add("FDP" + btb, fdp, noPrefetcher())});
    }

    const auto results = runTimed(c, "fig11_btb_capacity");

    TextTable t({"BTB entries", "no FDP", "MPKI", "FDP", "MPKI(FDP)"});
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const SuiteResult &r_no = results[pairs[i].noFdp];
        const SuiteResult &r_fdp = results[pairs[i].fdp];
        t.addRow({std::to_string(sizes[i]),
                  speedupStr(r_no.speedupOver(results[base])),
                  TextTable::num(r_no.meanMpki()),
                  speedupStr(r_fdp.speedupOver(results[base])),
                  TextTable::num(r_fdp.meanMpki())});
    }
    t.print();
    return 0;
}
