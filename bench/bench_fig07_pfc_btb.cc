/**
 * @file
 * Fig. 7 — Post-fetch correction benefit vs BTB size.
 *
 * Paper: PFC gives +9.3% at a 1K-entry BTB and +2.4% at 8K entries
 * (from 75.0% / 25.2% misprediction reductions); at 32K entries PFC is
 * roughly neutral (+0.1%) and *increases* mispredictions by 1.5%
 * because never-taken branches are mis-resteered.
 */

#include "bench/bench_common.h"

#include <iterator>

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Fig. 7: PFC benefit across BTB sizes",
           "FDP frontend; PFC on vs off per BTB capacity.");

    const auto workloads = suite(500000);

    struct Ref
    {
        unsigned entries;
        const char *paper;
    };
    const Ref refs[] = {
        {1024, "+9.3%"},  {2048, "~+6%"},  {4096, "~+4%"},
        {8192, "+2.4%"},  {16384, "~+1%"}, {32768, "+0.1%"},
    };

    struct Pair
    {
        std::size_t off;
        std::size_t on;
    };
    Campaign c(workloads);
    std::vector<Pair> pairs;
    for (const Ref &ref : refs) {
        CoreConfig off = paperBaselineConfig();
        off.bpu.btb.numEntries = ref.entries;
        off.pfcEnabled = false;
        CoreConfig on = off;
        on.pfcEnabled = true;
        std::string btb = "@";
        btb += std::to_string(ref.entries);
        pairs.push_back({c.add("pfc-off" + btb, off, noPrefetcher()),
                         c.add("pfc-on" + btb, on, noPrefetcher())});
    }

    const auto results = runTimed(c, "fig07_pfc_btb");

    TextTable t({"BTB entries", "PFC speedup", "MPKI off", "MPKI on",
                 "MPKI delta", "paper speedup"});
    for (std::size_t i = 0; i < std::size(refs); ++i) {
        const SuiteResult &r_off = results[pairs[i].off];
        const SuiteResult &r_on = results[pairs[i].on];
        const double delta =
            (r_on.meanMpki() - r_off.meanMpki()) / r_off.meanMpki();
        t.addRow({std::to_string(refs[i].entries),
                  speedupStr(r_on.speedupOver(r_off)),
                  TextTable::num(r_off.meanMpki()),
                  TextTable::num(r_on.meanMpki()),
                  TextTable::pct(delta), refs[i].paper});
    }
    t.print();
    return 0;
}
