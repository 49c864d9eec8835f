/** @file Tests for the named configurations and Table V mapping. */

#include "core/core_config.h"

#include <gtest/gtest.h>

namespace fdip
{
namespace
{

TEST(CoreConfig, SchemeNamesMatchPaper)
{
    EXPECT_STREQ(historySchemeName(HistoryScheme::kThr), "THR");
    EXPECT_STREQ(historySchemeName(HistoryScheme::kGhr0), "GHR0");
    EXPECT_STREQ(historySchemeName(HistoryScheme::kGhr3), "GHR3");
    EXPECT_STREQ(historySchemeName(HistoryScheme::kIdeal), "Ideal");
}

TEST(CoreConfig, TableVMapping)
{
    struct Expect
    {
        HistoryScheme scheme;
        HistoryPolicy policy;
        bool takenOnly;
        bool fixup;
    };
    const Expect table[] = {
        {HistoryScheme::kThr, HistoryPolicy::kTargetHistory, true,
         false},
        {HistoryScheme::kGhr0, HistoryPolicy::kDirectionHistory, true,
         false},
        {HistoryScheme::kGhr1, HistoryPolicy::kDirectionHistory, false,
         false},
        {HistoryScheme::kGhr2, HistoryPolicy::kDirectionHistory, true,
         true},
        {HistoryScheme::kGhr3, HistoryPolicy::kDirectionHistory, false,
         true},
        {HistoryScheme::kIdeal, HistoryPolicy::kIdealDirectionHistory,
         true, false},
    };
    for (const Expect &e : table) {
        CoreConfig cfg;
        cfg.historyScheme = e.scheme;
        cfg.applyHistoryScheme();
        EXPECT_EQ(cfg.bpu.historyPolicy, e.policy)
            << historySchemeName(e.scheme);
        EXPECT_EQ(cfg.bpu.btb.allocateTakenOnly, e.takenOnly)
            << historySchemeName(e.scheme);
        EXPECT_EQ(cfg.ghrFixup(), e.fixup)
            << historySchemeName(e.scheme);
    }
}

TEST(CoreConfig, PaperBaselineMatchesTableIV)
{
    const CoreConfig cfg = paperBaselineConfig();
    EXPECT_EQ(cfg.ftqEntries, 24u);
    EXPECT_EQ(cfg.predictBandwidth, 12u);
    EXPECT_EQ(cfg.fetchBandwidth, 6u);
    EXPECT_EQ(cfg.maxTakenPerCycle, 1u);
    EXPECT_EQ(cfg.btbLatency, 2u);
    EXPECT_EQ(cfg.bpu.btb.numEntries, 8192u);
    EXPECT_EQ(cfg.bpu.tageKilobytes, 18u);
    EXPECT_TRUE(cfg.pfcEnabled);
    EXPECT_EQ(cfg.historyScheme, HistoryScheme::kThr);
    EXPECT_EQ(cfg.l1i.sizeBytes, 32u * 1024);
}

TEST(CoreConfig, NoFdpIsTwoEntryFtqOnly)
{
    const CoreConfig base = paperBaselineConfig();
    const CoreConfig no_fdp = noFdpConfig();
    EXPECT_EQ(no_fdp.ftqEntries, 2u);
    // Everything else stays identical (the paper disables FDP purely
    // by removing run-ahead capability).
    EXPECT_EQ(no_fdp.predictBandwidth, base.predictBandwidth);
    EXPECT_EQ(no_fdp.bpu.btb.numEntries, base.bpu.btb.numEntries);
    EXPECT_EQ(no_fdp.pfcEnabled, base.pfcEnabled);
}

TEST(CoreConfig, PredictionBandwidthIsTwiceFetch)
{
    // Paper Section V: prediction bandwidth is double the fetch
    // bandwidth to support run-ahead.
    const CoreConfig cfg = paperBaselineConfig();
    EXPECT_EQ(cfg.predictBandwidth, 2 * cfg.fetchBandwidth);
}

TEST(CoreConfig, IllegalConfigsAreFatal)
{
    const CoreConfig base = paperBaselineConfig();
    EXPECT_EQ(&validateCoreConfig(base), &base);
    (void)validateCoreConfig(noFdpConfig());
    CoreConfig largest = base;
    largest.ftqEntries = kMaxFtqEntries;
    (void)validateCoreConfig(largest);

    struct Case
    {
        unsigned CoreConfig::*field;
        unsigned value;
        const char *name;
    };
    const Case cases[] = {
        {&CoreConfig::ftqEntries, 0, "ftqEntries"},
        {&CoreConfig::ftqEntries, 1, "ftqEntries"}, // Below no-FDP's 2.
        {&CoreConfig::ftqEntries, kMaxFtqEntries + 1, "ftqEntries"},
        {&CoreConfig::predictBandwidth, 0, "predictBandwidth"},
        {&CoreConfig::maxTakenPerCycle, 0, "maxTakenPerCycle"},
        {&CoreConfig::fetchBandwidth, 0, "fetchBandwidth"},
        {&CoreConfig::fetchProbesPerCycle, 0, "fetchProbesPerCycle"},
        {&CoreConfig::l1iMshrs, 0, "l1iMshrs"},
        {&CoreConfig::itlbEntries, 0, "itlbEntries"},
        {&CoreConfig::decodeQueueEntries, 0, "decodeQueueEntries"},
        {&CoreConfig::robEntries, 0, "robEntries"},
        {&CoreConfig::commitWidth, 0, "commitWidth"},
    };
    for (const Case &c : cases) {
        CoreConfig cfg = base;
        cfg.*c.field = c.value;
        EXPECT_EXIT((void)validateCoreConfig(cfg),
                    ::testing::ExitedWithCode(1), c.name)
            << c.name << " = " << c.value;
    }
    CoreConfig no_lines = base;
    no_lines.usePrefetchBuffer = true;
    no_lines.prefetchBufferLines = 0;
    EXPECT_EXIT((void)validateCoreConfig(no_lines),
                ::testing::ExitedWithCode(1), "prefetchBufferLines");
}

} // namespace
} // namespace fdip
