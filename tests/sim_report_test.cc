/** @file Tests for the JSON/CSV experiment reports. */

#include "sim/report.h"

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

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

std::vector<SuiteResult>
fakeResults()
{
    SuiteResult a;
    a.label = "fdp";
    RunResult r1;
    r1.workload = "srv-a";
    r1.stats.cycles = 1000;
    r1.stats.committedInsts = 1500;
    r1.stats.mispredicts = 9;
    RunResult r2;
    r2.workload = "clt-a";
    r2.stats.cycles = 2000;
    r2.stats.committedInsts = 2400;
    a.runs = {r1, r2};

    SuiteResult b = a;
    b.label = "no-fdp";
    b.runs[0].stats.cycles = 1400;
    return {a, b};
}

TEST(Report, JsonRoundStructure)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/report.json";
    ASSERT_TRUE(writeSuiteResultsJson(path, fakeResults()));
    const std::string body = slurp(path);
    EXPECT_NE(body.find("\"results\""), std::string::npos);
    EXPECT_NE(body.find("\"label\": \"fdp\""), std::string::npos);
    EXPECT_NE(body.find("\"workload\": \"srv-a\""), std::string::npos);
    EXPECT_NE(body.find("\"ipc\": 1.5"), std::string::npos);
    // Valid-ish JSON: balanced braces/brackets.
    EXPECT_EQ(std::count(body.begin(), body.end(), '{'),
              std::count(body.begin(), body.end(), '}'));
    EXPECT_EQ(std::count(body.begin(), body.end(), '['),
              std::count(body.begin(), body.end(), ']'));
    std::remove(path.c_str());
}

TEST(Report, CsvHasHeaderAndRows)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/report.csv";
    ASSERT_TRUE(writeSuiteResultsCsv(path, fakeResults()));
    const std::string body = slurp(path);
    EXPECT_EQ(body.find("label,workload,ipc"), 0u);
    // Header + 2 configs x 2 workloads.
    EXPECT_EQ(std::count(body.begin(), body.end(), '\n'), 5);
    EXPECT_NE(body.find("no-fdp,srv-a"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Report, CsvCarriesPrefetchQualityColumns)
{
    auto results = fakeResults();
    SimStats &s = results[0].runs[0].stats;
    s.prefetchesIssued = 200;
    s.prefetchesUseful = 150;
    s.prefetchesRedundant = 20;
    s.l1iDemandMisses = 50;

    const std::string path =
        std::string(::testing::TempDir()) + "/pfq.csv";
    ASSERT_TRUE(writeSuiteResultsCsv(path, results));
    const std::string body = slurp(path);
    EXPECT_NE(body.find(",prefetch_accuracy,prefetch_coverage,"
                        "prefetch_redundant_rate"),
              std::string::npos);
    // accuracy 150/200, coverage 150/200, redundant 20/200.
    EXPECT_NE(body.find("0.7500,0.7500,0.1000"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Report, JsonEmbedsHeartbeats)
{
    auto results = fakeResults();
    HeartbeatSample hb;
    hb.instrs = 500;
    hb.cycles = 800;
    hb.dInstrs = 500;
    hb.dCycles = 800;
    results[0].runs[0].heartbeats = {hb, hb};

    const std::string path =
        std::string(::testing::TempDir()) + "/hb.json";
    ASSERT_TRUE(writeSuiteResultsJson(path, results));
    const std::string body = slurp(path);
    EXPECT_NE(body.find("\"heartbeats\": ["), std::string::npos);
    EXPECT_NE(body.find("\"instrs\": 500"), std::string::npos);
    // Runs without samples omit the key entirely.
    EXPECT_EQ(body.find("\"heartbeats\": []"), std::string::npos);
    EXPECT_EQ(std::count(body.begin(), body.end(), '{'),
              std::count(body.begin(), body.end(), '}'));
    EXPECT_EQ(std::count(body.begin(), body.end(), '['),
              std::count(body.begin(), body.end(), ']'));
    std::remove(path.c_str());
}

TEST(Report, HeartbeatsJsonl)
{
    auto results = fakeResults();
    HeartbeatSample hb;
    hb.instrs = 123;
    results[0].runs[1].heartbeats = {hb};
    results[1].runs[0].heartbeats = {hb, hb};

    const std::string path =
        std::string(::testing::TempDir()) + "/hb.jsonl";
    ASSERT_TRUE(writeHeartbeatsJsonl(path, results));
    const std::string body = slurp(path);
    // One line per sample; runs without samples contribute nothing.
    EXPECT_EQ(std::count(body.begin(), body.end(), '\n'), 3);
    EXPECT_NE(body.find("\"label\": \"fdp\", \"workload\": \"clt-a\""),
              std::string::npos);
    EXPECT_NE(body.find("\"label\": \"no-fdp\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Report, StatDumpsJson)
{
    auto results = fakeResults();
    StatSample counter;
    counter.name = "bpu.btb.hits";
    counter.kind = StatKind::kCounter;
    counter.intValue = 77;
    StatSample derived;
    derived.name = "core.ipc";
    derived.kind = StatKind::kDerived;
    derived.value = 1.25;
    results[0].runs[0].statDump = {counter, derived};

    const std::string path =
        std::string(::testing::TempDir()) + "/stats.json";
    ASSERT_TRUE(writeStatDumpsJson(path, results));
    const std::string body = slurp(path);
    EXPECT_NE(body.find("\"bpu.btb.hits\": 77"), std::string::npos);
    EXPECT_NE(body.find("\"core.ipc\": 1.25"), std::string::npos);
    EXPECT_EQ(std::count(body.begin(), body.end(), '{'),
              std::count(body.begin(), body.end(), '}'));
    std::remove(path.c_str());
}

TEST(Report, FailsOnBadPath)
{
    // One heartbeat, so that every writer has bytes to write.
    auto results = fakeResults();
    results[0].runs[0].heartbeats = {HeartbeatSample{}};
    // /dev/full opens fine, but every write to it fails with ENOSPC.
    for (const char *path : {"/nonexistent/x", "/dev/full"}) {
        EXPECT_FALSE(writeSuiteResultsJson(path, results)) << path;
        EXPECT_FALSE(writeSuiteResultsCsv(path, results)) << path;
        EXPECT_FALSE(writeHeartbeatsJsonl(path, results)) << path;
        EXPECT_FALSE(writeStatDumpsJson(path, results)) << path;
    }
}

TEST(Report, EscapesQuotes)
{
    SuiteResult r;
    r.label = "we\"ird";
    const std::string path =
        std::string(::testing::TempDir()) + "/esc.json";
    ASSERT_TRUE(writeSuiteResultsJson(path, {r}));
    const std::string body = slurp(path);
    EXPECT_NE(body.find("we\\\"ird"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace fdip
