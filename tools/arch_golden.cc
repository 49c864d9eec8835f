/**
 * @file
 * The architectural golden: the architecturalChecksum() of every run
 * of a fixed set of campaigns, pinned in tests/data/arch_golden.json so
 * simulated counters are compared across commits, not only across
 * thread counts within one build.
 *
 * The set covers every history scheme (GHR0-3, THR, Ideal), the no-FDP
 * baseline, the FTQ sweep, the prefetchers, BTB sizes, all three TAGE
 * sizes and the frontend's other repair and fetch modes, on the small
 * suite at a short instruction count.
 *
 *   arch_golden --check  tests/data/arch_golden.json   # exit 1 on drift
 *   arch_golden --update tests/data/arch_golden.json   # rewrite
 *
 * A change that means to alter the model reruns --update and says why;
 * a change that means to keep it (an optimisation) must pass --check.
 */

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/campaign_presets.h"
#include "sim/campaign_store.h"
#include "sim/experiment.h"
#include "trace/suite.h"
#include "util/fnv.h"
#include "util/log.h"

namespace
{

using namespace fdip;

/** Instructions per trace: long enough to train and evict every
 *  structure, short enough that the check stays a few seconds. */
constexpr std::size_t kInstsPerTrace = 100000;

/** The pinned campaign presets, in output order. */
const char *const kPresets[] = {"prefetchers", "history", "ftq",
                                "stall_accounting"};

/** The paper baseline at the two non-default TAGE sizes. */
std::vector<CampaignEntry>
tageSizeCampaign()
{
    std::vector<CampaignEntry> out;
    for (unsigned kb : {9u, 36u}) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.tageKilobytes = kb;
        out.push_back(CampaignEntry{"FDP-TAGE-" + std::to_string(kb) + "KB",
                                    cfg, noPrefetcher(), "none"});
    }
    return out;
}

/** Frontend modes no preset pins, one config each: PFC variants, GHR
 *  fixups without PFC, BTB and indirect oracles, the two-level BTB,
 *  the prefetch buffer, perfect prefetch/I-cache, the wide predict
 *  stage and gshare. Each drives a distinct repair or fetch path. */
std::vector<CampaignEntry>
frontendModesCampaign()
{
    std::vector<CampaignEntry> out;
    const auto add = [&out](std::string label, CoreConfig cfg,
                            const std::string &prefetcher = "none") {
        out.push_back(CampaignEntry{std::move(label), std::move(cfg),
                                    namedPrefetcher(prefetcher),
                                    prefetcher});
    };

    CoreConfig cfg = paperBaselineConfig();
    cfg.pfcEnabled = false;
    add("PFC-off", cfg);

    cfg = paperBaselineConfig();
    cfg.pfcUnconditionalOnly = true;
    add("PFC-uncond-only", cfg);

    for (HistoryScheme scheme : {HistoryScheme::kGhr2, HistoryScheme::kGhr3,
                                 HistoryScheme::kIdeal}) {
        cfg = paperBaselineConfig();
        cfg.historyScheme = scheme;
        cfg.pfcEnabled = false;
        add(std::string(historySchemeName(scheme)) + "-PFC-off", cfg);
    }

    cfg = paperBaselineConfig();
    cfg.historyScheme = HistoryScheme::kGhr3;
    cfg.bpu.btb.numEntries = 1024;
    add("GHR3-BTB-1K", cfg);

    cfg = paperBaselineConfig();
    cfg.bpu.perfectBtb = true;
    add("perfect-BTB", cfg);

    cfg = paperBaselineConfig();
    cfg.bpu.perfectIndirect = true;
    add("perfect-indirect", cfg);

    add("two-level-BTB", twoLevelBtbConfig());

    cfg = paperBaselineConfig();
    cfg.usePrefetchBuffer = true;
    add("FDP+NL1-prefetch-buffer", cfg, "nl1");

    cfg = noFdpConfig();
    cfg.perfectPrefetch = true;
    add("noFDP-perfect-prefetch", cfg);

    cfg = paperBaselineConfig();
    cfg.perfectICache = true;
    add("perfect-icache", cfg);

    cfg = paperBaselineConfig();
    cfg.predictBandwidth = 18;
    cfg.maxTakenPerCycle = 2;
    add("B18m", cfg);

    cfg = paperBaselineConfig();
    cfg.bpu.direction = DirectionPredictorKind::kGshare;
    add("gshare", cfg);
    return out;
}

/** Simulates every pinned run and renders the golden file's text:
 *  one run per line so a drift diffs to exactly the runs it moved. */
std::string
renderGolden()
{
    const std::vector<SuiteEntry> suite =
        buildStandardSuite(kInstsPerTrace, /*small=*/true);

    std::vector<std::pair<std::string, std::vector<CampaignEntry>>> sets;
    for (const char *preset : kPresets)
        sets.emplace_back(preset, buildCampaignEntries(preset));
    sets.emplace_back("tage_size", tageSizeCampaign());
    sets.emplace_back("frontend_modes", frontendModesCampaign());

    std::string out = "{\"fdipArchGolden\": 1, \"suite\": \"small\", "
                      "\"instsPerTrace\": " +
                      std::to_string(kInstsPerTrace) + ", \"runs\": [\n";
    bool first = true;
    for (const auto &[name, entries] : sets) {
        const std::vector<SuiteResult> results =
            runCampaignSpooled(entries, suite, SpoolOptions{});
        for (const SuiteResult &res : results) {
            for (const RunResult &run : res.runs) {
                if (!first)
                    out += ",\n";
                first = false;
                out += "  {\"campaign\": \"" + name + "\", \"label\": \"" +
                       res.label + "\", \"workload\": \"" + run.workload +
                       "\", \"checksum\": \"" +
                       toHex16(architecturalChecksum(run.stats)) + "\"}";
            }
        }
    }
    out += "\n]}\n";
    return out;
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

void
usage()
{
    std::printf("usage: arch_golden (--check | --update) FILE\n"
                "  --check   simulate the pinned runs; exit 1 if any\n"
                "            checksum differs from FILE\n"
                "  --update  simulate the pinned runs and rewrite FILE\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if ((a == "--check" || a == "--update") && i + 1 < argc) {
            mode = a;
            path = argv[++i];
        } else {
            usage();
            return 2;
        }
    }
    if (mode.empty()) {
        usage();
        return 2;
    }

    const std::string now = renderGolden();
    if (mode == "--update") {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << now;
        if (!f)
            fdip_fatal("cannot write %s", path.c_str());
        std::printf("arch_golden: wrote %zu runs to %s\n",
                    lines(now).size() - 2, path.c_str());
        return 0;
    }

    std::ifstream f(path, std::ios::binary);
    if (!f)
        fdip_fatal("cannot read %s (create it with --update)", path.c_str());
    std::ostringstream golden;
    golden << f.rdbuf();
    if (golden.str() == now) {
        std::printf("arch_golden: %zu runs match %s\n",
                    lines(now).size() - 2, path.c_str());
        return 0;
    }

    const std::vector<std::string> want = lines(golden.str());
    const std::vector<std::string> got = lines(now);
    const std::set<std::string> want_set(want.begin(), want.end());
    const std::set<std::string> got_set(got.begin(), got.end());
    std::printf("arch_golden: simulated counters differ from %s\n",
                path.c_str());
    for (const std::string &l : want)
        if (got_set.count(l) == 0)
            std::printf("- %s\n", l.c_str());
    for (const std::string &l : got)
        if (want_set.count(l) == 0)
            std::printf("+ %s\n", l.c_str());
    std::printf("If the model change is intended, rerun with --update "
                "and say why in the change log.\n");
    return 1;
}
