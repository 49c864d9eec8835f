/**
 * @file
 * Fig. 6b — Per-trace performance improvement of EIP-128KB with FDP on
 * and off, plotted against each trace's branch MPKI.
 *
 * Paper: without FDP, EIP reaches up to 2.01x on high-MPKI traces;
 * with FDP the max falls to 14.8% and a couple of traces degrade
 * slightly — FDP already covers most I-cache misses.
 */

#include "bench/bench_common.h"

int
main()
{
    using namespace fdip;
    using namespace fdip::bench;

    banner("Fig. 6b: per-trace EIP-128KB improvement vs branch MPKI",
           "Each workload: speedup of adding EIP-128KB, with FDP off/on.");

    const auto workloads = suite(600000);

    Campaign c(workloads);
    c.add("noFDP", noFdpConfig(), noPrefetcher());
    c.add("noFDP+EIP", noFdpConfig(), namedPrefetcher("eip-128"), "eip-128");
    c.add("FDP", paperBaselineConfig(), noPrefetcher());
    c.add("FDP+EIP", paperBaselineConfig(), namedPrefetcher("eip-128"),
          "eip-128");

    const auto results = runTimed(c, "fig06b_per_trace");
    const SuiteResult &base_no = results[0];
    const SuiteResult &eip_no = results[1];
    const SuiteResult &base_fdp = results[2];
    const SuiteResult &eip_fdp = results[3];

    TextTable t({"workload", "branch MPKI", "EIP gain (no FDP)",
                 "EIP gain (FDP)"});
    double max_no = 0;
    double max_fdp = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const double gain_no = eip_no.runs[i].stats.ipc() /
                               base_no.runs[i].stats.ipc();
        const double gain_fdp = eip_fdp.runs[i].stats.ipc() /
                                base_fdp.runs[i].stats.ipc();
        max_no = std::max(max_no, gain_no);
        max_fdp = std::max(max_fdp, gain_fdp);
        t.addRow({workloads[i].name,
                  TextTable::num(base_fdp.runs[i].stats.branchMpki()),
                  speedupStr(gain_no), speedupStr(gain_fdp)});
    }
    t.print();
    std::printf("\nmax EIP gain without FDP: %s  [paper: up to +101%%]\n",
                speedupStr(max_no).c_str());
    std::printf("max EIP gain with FDP:    %s  [paper: +14.8%%]\n",
                speedupStr(max_fdp).c_str());
    return 0;
}
