/**
 * @file
 * Golden determinism tests for the campaign executor
 * (runCampaignSpooled): for any worker count, with or without a
 * result spool, per-run SimStats must be bit-identical to the plain
 * serial runSuite() reference and results must come back in suite
 * order. This is the serial-equivalence test the determinism policy
 * (docs/ANALYSIS.md) requires of the executor.
 */

#include "sim/campaign_store.h"

#include <cstdlib>
#include <stdexcept>

#include <unistd.h>

#include <gtest/gtest.h>

#include "prefetch/factory.h"
#include "util/sync.h"

namespace fdip
{
namespace
{

std::vector<SuiteEntry>
tinySuite(std::size_t workloads = 3, std::size_t insts = 40000)
{
    std::vector<SuiteEntry> suite;
    for (std::size_t i = 0; i < workloads; ++i) {
        WorkloadSpec s = specCpuSpec("tiny", 9001 + i);
        s.numFunctions = 48;
        auto wl = std::make_shared<Workload>(buildWorkload(s));
        SuiteEntry e;
        e.name = "tiny-" + std::to_string(9001 + i);
        e.trace = generateTrace(wl, insts);
        suite.push_back(std::move(e));
    }
    return suite;
}

std::string
tempDir()
{
    std::string tmpl = ::testing::TempDir() + "parallelXXXXXX";
    char *raw = ::mkdtemp(tmpl.data());
    EXPECT_NE(raw, nullptr);
    return tmpl;
}

/** Runs one labeled config through the executor: in memory when
 *  @p spool is empty, through that spool directory otherwise. */
SuiteResult
execute(const std::string &label, const CoreConfig &cfg,
        const std::vector<SuiteEntry> &suite,
        const PrefetcherFactory &make_prefetcher, unsigned jobs,
        const std::string &spool = {})
{
    SpoolOptions options;
    options.spoolDir = spool;
    options.jobs = jobs;
    auto results = runCampaignSpooled(
        {CampaignEntry{label, cfg, make_prefetcher, label}}, suite,
        options);
    return std::move(results.front());
}

/** Asserts @p par is run-for-run bit-identical to @p serial. */
void
expectBitIdentical(const SuiteResult &serial, const SuiteResult &par)
{
    ASSERT_EQ(serial.runs.size(), par.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        EXPECT_EQ(serial.runs[i].workload, par.runs[i].workload);
        EXPECT_TRUE(serial.runs[i].stats.architecturallyEqual(
            par.runs[i].stats))
            << "stats diverged on run " << i << " ("
            << serial.runs[i].workload << ")";
    }
    EXPECT_DOUBLE_EQ(serial.geomeanIpc(), par.geomeanIpc());
    EXPECT_DOUBLE_EQ(serial.meanMpki(), par.meanMpki());
}

TEST(Parallel, GoldenBitIdenticalToSerialAcrossConfigs)
{
    const auto suite = tinySuite();

    CoreConfig ghr2 = paperBaselineConfig();
    ghr2.historyScheme = HistoryScheme::kGhr2;

    const CoreConfig configs[] = {paperBaselineConfig(), noFdpConfig(),
                                  ghr2};
    for (const CoreConfig &cfg : configs) {
        const SuiteResult serial =
            runSuite("golden", cfg, suite, noPrefetcher());
        for (unsigned jobs : {1u, 2u, 8u}) {
            const SuiteResult par =
                execute("golden", cfg, suite, noPrefetcher(), jobs);
            EXPECT_EQ(par.label, "golden");
            expectBitIdentical(serial, par);
        }
    }
}

TEST(Parallel, GoldenBitIdenticalWithStatefulPrefetcher)
{
    const auto suite = tinySuite(2);
    const PrefetcherFactory eip = [](const Trace &) {
        return makePrefetcher("eip-27");
    };
    const SuiteResult serial =
        runSuite("eip", paperBaselineConfig(), suite, eip);
    for (unsigned jobs : {1u, 2u, 8u}) {
        expectBitIdentical(serial, execute("eip", paperBaselineConfig(),
                                           suite, eip, jobs));
    }
}

TEST(Parallel, GoldenBitIdenticalOnStandardSyntheticSuite)
{
    const auto suite = buildStandardSuite(20000, /*small=*/true);
    const SuiteResult serial =
        runSuite("std", paperBaselineConfig(), suite, noPrefetcher());
    expectBitIdentical(serial, execute("std", paperBaselineConfig(), suite,
                                       noPrefetcher(), 2));
}

TEST(Parallel, ResultsComeBackInSuiteOrder)
{
    const auto suite = tinySuite(5, 15000);
    const SuiteResult par =
        execute("order", paperBaselineConfig(), suite, noPrefetcher(), 8);
    ASSERT_EQ(par.runs.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(par.runs[i].workload, suite[i].name);
}

TEST(Parallel, EmptySuiteReturnsEmptyResult)
{
    const std::vector<SuiteEntry> empty;
    for (unsigned jobs : {1u, 8u}) {
        const SuiteResult par = execute("empty", paperBaselineConfig(),
                                        empty, noPrefetcher(), jobs);
        EXPECT_EQ(par.label, "empty");
        EXPECT_TRUE(par.runs.empty());
    }
}

TEST(Parallel, MoreJobsThanWorkStillExact)
{
    const auto suite = tinySuite(2, 15000);
    const SuiteResult serial =
        runSuite("tiny", paperBaselineConfig(), suite, noPrefetcher());
    expectBitIdentical(serial, execute("tiny", paperBaselineConfig(),
                                       suite, noPrefetcher(), 8));
}

TEST(Parallel, CampaignMatchesPerConfigSerialRuns)
{
    const auto suite = tinySuite(2, 20000);

    CoreConfig ghr3 = paperBaselineConfig();
    ghr3.historyScheme = HistoryScheme::kGhr3;

    Campaign c(suite);
    const std::size_t a = c.add("fdp", paperBaselineConfig(),
                                noPrefetcher());
    const std::size_t b = c.add("nofdp", noFdpConfig(), noPrefetcher());
    const std::size_t d = c.add("ghr3", ghr3, noPrefetcher());
    ASSERT_EQ(c.size(), 3u);

    SpoolOptions options;
    options.jobs = 4;
    const auto results =
        runCampaignSpooled(c.entries(), c.suite(), options);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[a].label, "fdp");
    EXPECT_EQ(results[b].label, "nofdp");
    EXPECT_EQ(results[d].label, "ghr3");

    expectBitIdentical(
        runSuite("fdp", paperBaselineConfig(), suite, noPrefetcher()),
        results[a]);
    expectBitIdentical(
        runSuite("nofdp", noFdpConfig(), suite, noPrefetcher()),
        results[b]);
    expectBitIdentical(runSuite("ghr3", ghr3, suite, noPrefetcher()),
                       results[d]);
}

TEST(Parallel, CampaignHonorsFdipJobsEnv)
{
    const auto suite = tinySuite(2, 15000);
    Campaign c(suite);
    c.add("fdp", paperBaselineConfig(), noPrefetcher());

    ::setenv("FDIP_JOBS", "2", 1);
    const auto par = runCampaignSpooled(c.entries(), c.suite(),
                                        SpoolOptions{}); // jobs = 0
    ::unsetenv("FDIP_JOBS");

    expectBitIdentical(
        runSuite("fdp", paperBaselineConfig(), suite, noPrefetcher()),
        par[0]);
}

TEST(Parallel, SpooledExecutorBitIdenticalToSerial)
{
    const auto suite = tinySuite(3, 20000);
    CoreConfig ghr3 = paperBaselineConfig();
    ghr3.historyScheme = HistoryScheme::kGhr3;
    const SuiteResult serial = runSuite("ghr3", ghr3, suite, noPrefetcher());
    for (unsigned jobs : {1u, 2u, 8u}) {
        // A cold spool simulates every run; a warm one serves every
        // run from its records. Both must match the serial reference.
        const std::string spool = tempDir();
        expectBitIdentical(
            serial, execute("ghr3", ghr3, suite, noPrefetcher(), jobs, spool));
        expectBitIdentical(
            serial, execute("ghr3", ghr3, suite, noPrefetcher(), jobs, spool));
    }
}

TEST(Parallel, InMemoryDrainSimulatesAndReportsEveryRun)
{
    const auto suite = tinySuite(2, 15000);
    Campaign c(suite);
    c.add("fdp", paperBaselineConfig(), noPrefetcher());
    c.add("nofdp", noFdpConfig(), noPrefetcher());

    for (unsigned jobs : {1u, 4u}) {
        Atomic<std::size_t> simulations{0};
        SpoolOptions options; // Empty spoolDir: no spool.
        options.jobs = jobs;
        options.onSimulate = [&](std::size_t, std::size_t) {
            simulations.fetchAdd(1, std::memory_order_relaxed);
        };
        SpoolSummary summary;
        const auto results =
            runCampaignSpooled(c.entries(), c.suite(), options, &summary);
        EXPECT_EQ(summary.totalRuns, 4u);
        EXPECT_EQ(summary.simulated, 4u);
        EXPECT_EQ(summary.cacheHits, 0u);
        EXPECT_EQ(summary.claimedElsewhere, 0u);
        EXPECT_TRUE(summary.complete);
        EXPECT_EQ(simulations.load(std::memory_order_relaxed), 4u);
        ASSERT_EQ(results.size(), 2u);
        for (const SuiteResult &r : results)
            for (const RunResult &run : r.runs)
                EXPECT_GT(run.stats.committedInsts, 0u) << r.label;
    }
}

TEST(Parallel, WorkerExceptionPropagatesToCaller)
{
    const auto suite = tinySuite(3, 15000);
    const PrefetcherFactory boom =
        [](const Trace &) -> std::unique_ptr<InstPrefetcher> {
        throw std::runtime_error("boom");
    };
    for (unsigned jobs : {1u, 4u}) {
        EXPECT_THROW(
            execute("boom", paperBaselineConfig(), suite, boom, jobs),
            std::runtime_error);
    }
}

TEST(Parallel, HostTelemetryIsFilledButExcludedFromEquality)
{
    const auto suite = tinySuite(1, 15000);
    const SuiteResult r =
        execute("tel", paperBaselineConfig(), suite, noPrefetcher(), 1);
    ASSERT_EQ(r.runs.size(), 1u);
    EXPECT_GT(r.runs[0].stats.hostWallSeconds, 0.0);
    EXPECT_GT(r.runs[0].stats.hostInstrsPerSecond(), 0.0);

    SimStats a = r.runs[0].stats;
    SimStats b = a;
    b.hostWallSeconds = a.hostWallSeconds * 2 + 1;
    EXPECT_TRUE(a.architecturallyEqual(b));
    b.committedInsts += 1;
    EXPECT_FALSE(a.architecturallyEqual(b));
}

} // namespace
} // namespace fdip
