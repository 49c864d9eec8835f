/** @file Tests for the Chrome trace-event backend. */

#include "obs/trace_events.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/core.h"
#include "obs/obs_config.h"
#include "prefetch/factory.h"
#include "sim/campaign_store.h"
#include "sim/experiment.h"

namespace fdip
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
havePython()
{
    return std::system("python3 -c 'pass' >/dev/null 2>&1") == 0;
}

/** json.loads round-trip; callers skip when python3 is unavailable. */
bool
pythonValidatesJson(const std::string &path)
{
    const std::string cmd =
        "python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \"" +
        path + "\" >/dev/null 2>&1";
    return std::system(cmd.c_str()) == 0;
}

Trace
tinyTrace(std::size_t insts = 20000)
{
    WorkloadSpec s = serverSpec("trc", 77);
    s.numFunctions = 64;
    auto wl = std::make_shared<Workload>(buildWorkload(s));
    return generateTrace(wl, insts);
}

TEST(TraceWriter, EmitsWellFormedDocument)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/writer.json";
    {
        TraceWriter w(path);
        ASSERT_TRUE(w.ok());
        w.threadName(kTraceTidFetch, "fetch");
        w.instant("pfc_fire", "pfc", kTraceTidFetch, 100,
                  {{"pc", 0x400100}, {"target", 0x400200}});
        w.asyncBegin("demand_fill", "mem", 0x1234, 150, {{"line", 0x40}});
        w.asyncEnd("demand_fill", "mem", 0x1234, 180);
        w.counter("ftq", 200, "occupancy", 17);
        // 4 lane-name metadata events from the constructor + 5 here.
        EXPECT_EQ(w.eventsWritten(), 9u);
    } // Destructor finishes the document.

    const std::string body = slurp(path);
    EXPECT_EQ(body.find("{\"displayTimeUnit\""), 0u);
    EXPECT_NE(body.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(body.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(body.find("\"ph\": \"b\""), std::string::npos);
    EXPECT_NE(body.find("\"ph\": \"e\""), std::string::npos);
    EXPECT_NE(body.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(body.find("\"name\": \"pfc_fire\""), std::string::npos);

    if (havePython()) {
        EXPECT_TRUE(pythonValidatesJson(path)) << path;
    }
    std::remove(path.c_str());
}

TEST(TraceWriter, BadPathReportsNotOk)
{
    TraceWriter w("/nonexistent/dir/trace.json");
    EXPECT_FALSE(w.ok());
    // Events are swallowed, not a crash.
    w.instant("x", "y", kTraceTidFetch, 0);
    EXPECT_EQ(w.eventsWritten(), 0u);
}

TEST(Tracing, FullRunProducesParseableTrace)
{
    if (!kTracingCompiledIn)
        GTEST_SKIP() << "built with FDIP_TRACING=OFF";
    const std::string path =
        std::string(::testing::TempDir()) + "/run_trace.json";

    SuiteEntry e;
    e.name = "trc";
    e.trace = tinyTrace();
    CoreConfig cfg = paperBaselineConfig();
    cfg.applyHistoryScheme();
    cfg.obs.tracePath = path;
    cfg.obs.traceExactPath = true;
    const RunResult run = runOne(
        cfg, e, [](const Trace &) { return makePrefetcher("nl1"); },
        /*warmup_fraction=*/0.1);
    EXPECT_GT(run.stats.committedInsts, 0u);

    const std::string body = slurp(path);
    // The frontend's life shows up: FTQ flow, flushes, fills.
    EXPECT_NE(body.find("ftq_enqueue"), std::string::npos);
    EXPECT_NE(body.find("ftq_dequeue"), std::string::npos);
    EXPECT_NE(body.find("pipeline_flush"), std::string::npos);
    EXPECT_NE(body.find("demand_fill"), std::string::npos);
    EXPECT_NE(body.find("prefetch_issue"), std::string::npos);

    if (!havePython())
        GTEST_SKIP() << "python3 unavailable; structural checks only";
    EXPECT_TRUE(pythonValidatesJson(path)) << path;
    std::remove(path.c_str());
}

TEST(Tracing, OnVersusOffIsBitIdenticalUnderParallelRuns)
{
    // The acceptance bar for the whole observability layer: attaching
    // a tracer (and heartbeats) to every run of a jobs=8 campaign must
    // not move a single architectural counter.
    std::vector<SuiteEntry> suite;
    for (int i = 0; i < 4; ++i) {
        SuiteEntry e;
        e.name = "trc-" + std::to_string(i);
        e.trace = tinyTrace(15000 + 1000 * static_cast<std::size_t>(i));
        suite.push_back(std::move(e));
    }

    CoreConfig traced = paperBaselineConfig();
    traced.obs.tracePath =
        std::string(::testing::TempDir()) + "/campaign.json";
    traced.obs.heartbeatInterval = 1000;
    SpoolOptions options;
    options.warmupFraction = 0.1;
    options.jobs = 8;
    const auto results = runCampaignSpooled(
        {CampaignEntry{"off", paperBaselineConfig(), namedPrefetcher("nl1"),
                       "nl1"},
         CampaignEntry{"on", traced, namedPrefetcher("nl1"), "nl1"}},
        suite, options);
    const SuiteResult &off = results[0];
    const SuiteResult &on = results[1];

    ASSERT_EQ(off.runs.size(), on.runs.size());
    for (std::size_t i = 0; i < off.runs.size(); ++i) {
        EXPECT_TRUE(
            off.runs[i].stats.architecturallyEqual(on.runs[i].stats))
            << "tracing/heartbeat perturbed run " << off.runs[i].workload;
        if (kTracingCompiledIn) {
            // Each run got its own woven trace file.
            const std::string path = tracePathForRun(
                [&] {
                    ObsConfig o = traced.obs;
                    o.traceLabel = "on";
                    return o;
                }(),
                on.runs[i].workload);
            std::FILE *f = std::fopen(path.c_str(), "r");
            EXPECT_NE(f, nullptr) << path;
            if (f != nullptr)
                std::fclose(f);
            std::remove(path.c_str());
        }
    }
    EXPECT_DOUBLE_EQ(off.geomeanIpc(), on.geomeanIpc());
}

} // namespace
} // namespace fdip
