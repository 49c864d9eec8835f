/**
 * @file
 * Fig. 12 — Direction-predictor sensitivity.
 *
 * Paper: gshare-8KB 31.4% vs similarly-sized TAGE 37.1%; PFC *hurts*
 * gshare by 6.0% (inaccurate taken predictions mis-resteer BTB-miss
 * never-taken branches); perfect direction makes PFC more effective
 * (+4.6%); perfect direction + targets reaches 49.4%.
 */

#include "bench/bench_common.h"

#include <iterator>

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Fig. 12: direction-predictor sensitivity",
           "FDP frontend; speedup over the no-FDP baseline.");

    const auto workloads = suite(500000);

    struct Pred
    {
        const char *label;
        DirectionPredictorKind kind;
        unsigned tageKb;
        bool perfectAll;
        const char *paper;
    };
    const Pred preds[] = {
        {"Gshare 8KB", DirectionPredictorKind::kGshare, 18, false,
         "+31.4% (PFC -6.0%)"},
        {"TAGE 9KB", DirectionPredictorKind::kTage, 9, false, "~+35%"},
        {"TAGE 18KB (base)", DirectionPredictorKind::kTage, 18, false,
         "+37.1%... +41% w/ PFC"},
        {"TAGE 36KB", DirectionPredictorKind::kTage, 36, false, "~+42%"},
        {"Perfect direction", DirectionPredictorKind::kPerfect, 18,
         false, "PFC +4.6%"},
        {"Perfect all", DirectionPredictorKind::kPerfect, 18, true,
         "+49.4%"},
    };

    struct Pair
    {
        std::size_t off;
        std::size_t on;
    };
    Campaign c(workloads);
    std::vector<Pair> pairs;
    const std::size_t base = c.add("base", noFdpConfig(), noPrefetcher());
    for (const Pred &p : preds) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.direction = p.kind;
        cfg.bpu.tageKilobytes = p.tageKb;
        if (p.perfectAll) {
            cfg.bpu.perfectBtb = true;
            cfg.bpu.perfectIndirect = true;
        }
        CoreConfig off = cfg;
        off.pfcEnabled = false;
        CoreConfig on = cfg;
        on.pfcEnabled = true;
        pairs.push_back(
            {c.add(std::string(p.label) + "/pfc-off", off, noPrefetcher()),
             c.add(std::string(p.label) + "/pfc-on", on, noPrefetcher())});
    }

    const auto results = runTimed(c, "fig12_dirpred");

    TextTable t({"predictor", "PFC off", "PFC on", "PFC delta", "MPKI",
                 "paper"});
    for (std::size_t i = 0; i < std::size(preds); ++i) {
        const SuiteResult &r_off = results[pairs[i].off];
        const SuiteResult &r_on = results[pairs[i].on];
        t.addRow({preds[i].label,
                  speedupStr(r_off.speedupOver(results[base])),
                  speedupStr(r_on.speedupOver(results[base])),
                  speedupStr(r_on.speedupOver(r_off)),
                  TextTable::num(r_on.meanMpki()), preds[i].paper});
    }
    t.print();
    return 0;
}
