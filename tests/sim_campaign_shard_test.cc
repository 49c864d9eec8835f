/**
 * @file
 * Multi-process sharding test: two real `fdipsim --campaign`
 * subprocesses drain one spool concurrently. Claims must be disjoint
 * (every run simulated exactly once across both processes), coverage
 * must be complete, and the merged report must be byte-identical to an
 * in-process golden run at jobs=8.
 *
 * The fdipsim binary path is injected by CMake as FDIP_FDIPSIM_PATH.
 */

#include "sim/campaign_store.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "sim/campaign_presets.h"
#include "sim/report.h"
#include "util/atomic_file.h"

namespace fdip
{
namespace
{

constexpr std::size_t kInsts = 30000;

std::string
tempDir()
{
    std::string tmpl = ::testing::TempDir() + "shardXXXXXX";
    char *raw = ::mkdtemp(tmpl.data());
    EXPECT_NE(raw, nullptr);
    return tmpl;
}

std::string
slurp(const std::string &path)
{
    std::string out;
    std::string err;
    EXPECT_TRUE(readFileToString(path, &out, &err)) << path << ": " << err;
    return out;
}

/** One running fdipsim subprocess (stdout captured via popen). */
struct Worker
{
    std::FILE *pipe = nullptr;
    std::string output;
    int exitStatus = -1;

    void
    start(const std::string &args)
    {
        const std::string cmd = std::string(FDIP_FDIPSIM_PATH) + " " +
                                args + " 2>/dev/null";
        pipe = ::popen(cmd.c_str(), "r");
        ASSERT_NE(pipe, nullptr) << cmd;
    }

    void
    finish()
    {
        ASSERT_NE(pipe, nullptr);
        char buf[512];
        while (std::fgets(buf, sizeof(buf), pipe) != nullptr)
            output += buf;
        exitStatus = ::pclose(pipe);
        pipe = nullptr;
    }

    /** The "N simulated" count from the campaign summary line. */
    std::size_t
    simulated() const
    {
        const std::size_t comma = output.find(" runs, ");
        EXPECT_NE(comma, std::string::npos) << output;
        return static_cast<std::size_t>(
            std::atol(output.c_str() + comma + 7));
    }
};

TEST(CampaignShard, TwoProcessesDrainOneSpoolDisjointly)
{
    const std::string spool = tempDir();
    const std::string common =
        "--campaign smoke --workload suite-small --insts " +
        std::to_string(kInsts) + " --spool " + spool + " --jobs 2";

    // Launch both workers before reading either: they race on the
    // spool's claim files while running concurrently.
    Worker a;
    Worker b;
    a.start(common);
    b.start(common);
    a.finish();
    b.finish();

    // Either worker may observe in-flight claims of the other and
    // report incomplete (exit 1); crashing or any other status is a
    // failure.
    for (const Worker *w : {&a, &b}) {
        ASSERT_TRUE(WIFEXITED(w->exitStatus)) << w->output;
        EXPECT_LE(WEXITSTATUS(w->exitStatus), 1) << w->output;
        EXPECT_NE(w->output.find("campaign 'smoke'"), std::string::npos)
            << w->output;
    }

    // Disjoint claims, full coverage: the per-process simulation
    // counts sum to exactly the manifest size — nothing ran twice,
    // nothing was skipped.
    const auto entries = buildCampaignEntries("smoke");
    const auto suite = buildStandardSuite(kInsts, /*small=*/true);
    const std::size_t total = entries.size() * suite.size();
    EXPECT_EQ(a.simulated() + b.simulated(), total)
        << "A: " << a.output << "\nB: " << b.output;

    // The merged report equals the in-process jobs=8 golden, byte for
    // byte.
    std::vector<SuiteResult> merged;
    SpoolSummary summary;
    std::string error;
    ASSERT_TRUE(mergeCampaignSpool(entries, suite, spool, 0.2, &merged,
                                   &summary, &error))
        << error;
    EXPECT_TRUE(summary.complete);
    EXPECT_EQ(summary.cacheHits, total);

    SpoolOptions in_memory;
    in_memory.jobs = 8;
    const auto golden = runCampaignSpooled(entries, suite, in_memory);
    const std::string merged_json = spool + "/merged.json";
    const std::string golden_json = spool + "/golden.json";
    ASSERT_TRUE(writeSuiteResultsJson(merged_json, merged));
    ASSERT_TRUE(writeSuiteResultsJson(golden_json, golden));
    EXPECT_EQ(slurp(golden_json), slurp(merged_json));
}

TEST(CampaignPresets, StallAccountingGridMatchesTheBench)
{
    // The preset mirrors bench_stall_accounting's sweep: three
    // prefetcher identities x four BTB sizes, "<pf>@<entries>".
    const auto entries = buildCampaignEntries("stall_accounting");
    ASSERT_EQ(entries.size(), 12u);
    EXPECT_EQ(entries.front().label, "FDP@1024");
    EXPECT_EQ(entries.back().label, "FDP+EIP-27KB@8192");
    for (const CampaignEntry &e : entries) {
        const auto at = e.label.find('@');
        ASSERT_NE(at, std::string::npos) << e.label;
        EXPECT_EQ(e.cfg.bpu.btb.numEntries,
                  std::stoul(e.label.substr(at + 1)))
            << e.label;
        EXPECT_FALSE(e.prefetcherId.empty()) << e.label;
    }
    // ...and it is advertised.
    bool listed = false;
    for (const CampaignPreset &p : campaignPresets())
        listed = listed || std::string(p.name) == "stall_accounting";
    EXPECT_TRUE(listed);
}

TEST(CampaignShard, MergeFlagAssemblesWithoutSimulating)
{
    const std::string spool = tempDir();
    const std::string common =
        "--campaign smoke --workload suite-small --insts " +
        std::to_string(kInsts) + " --spool " + spool;

    // Drain once, then `--merge` must assemble with zero simulations.
    Worker drain;
    drain.start(common);
    drain.finish();
    ASSERT_TRUE(WIFEXITED(drain.exitStatus));
    ASSERT_EQ(WEXITSTATUS(drain.exitStatus), 0) << drain.output;

    const std::string report = spool + "/merge.json";
    Worker merge;
    merge.start(common + " --merge --json " + report);
    merge.finish();
    ASSERT_TRUE(WIFEXITED(merge.exitStatus));
    EXPECT_EQ(WEXITSTATUS(merge.exitStatus), 0) << merge.output;
    EXPECT_EQ(merge.simulated(), 0u) << merge.output;
    EXPECT_NE(merge.output.find("complete"), std::string::npos);
    EXPECT_TRUE(fileExists(report));

    // An emptied spool makes --merge fail loudly (exit 1).
    for (const auto &n : listDirectory(spool)) {
        if (n.size() > 5 && n.compare(n.size() - 5, 5, ".json") == 0 &&
            n.find("merge") == std::string::npos) {
            ASSERT_TRUE(removeFile(spool + "/" + n));
        }
    }
    Worker broken;
    broken.start(common + " --merge");
    broken.finish();
    ASSERT_TRUE(WIFEXITED(broken.exitStatus));
    EXPECT_EQ(WEXITSTATUS(broken.exitStatus), 1) << broken.output;
    EXPECT_NE(broken.output.find("incomplete"), std::string::npos)
        << broken.output;
}

} // namespace
} // namespace fdip
