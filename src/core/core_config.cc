#include "core/core_config.h"
#include "util/hotpath.h"
#include "util/log.h"

namespace fdip
{

const char *
historySchemeName(HistoryScheme s)
{
    switch (s) {
      case HistoryScheme::kThr: return "THR";
      case HistoryScheme::kGhr0: return "GHR0";
      case HistoryScheme::kGhr1: return "GHR1";
      case HistoryScheme::kGhr2: return "GHR2";
      case HistoryScheme::kGhr3: return "GHR3";
      case HistoryScheme::kIdeal: return "Ideal";
    }
    return "?";
}

void
CoreConfig::applyHistoryScheme()
{
    switch (historyScheme) {
      case HistoryScheme::kThr:
        bpu.historyPolicy = HistoryPolicy::kTargetHistory;
        bpu.btb.allocateTakenOnly = true;
        break;
      case HistoryScheme::kGhr0:
        bpu.historyPolicy = HistoryPolicy::kDirectionHistory;
        bpu.btb.allocateTakenOnly = true;
        break;
      case HistoryScheme::kGhr1:
        bpu.historyPolicy = HistoryPolicy::kDirectionHistory;
        bpu.btb.allocateTakenOnly = false;
        break;
      case HistoryScheme::kGhr2:
        bpu.historyPolicy = HistoryPolicy::kDirectionHistory;
        bpu.btb.allocateTakenOnly = true;
        break;
      case HistoryScheme::kGhr3:
        bpu.historyPolicy = HistoryPolicy::kDirectionHistory;
        bpu.btb.allocateTakenOnly = false;
        break;
      case HistoryScheme::kIdeal:
        bpu.historyPolicy = HistoryPolicy::kIdealDirectionHistory;
        bpu.btb.allocateTakenOnly = true;
        break;
    }
}

FDIP_HOT_PATH bool
CoreConfig::ghrFixup() const
{
    return historyScheme == HistoryScheme::kGhr2 ||
           historyScheme == HistoryScheme::kGhr3;
}

const CoreConfig &
validateCoreConfig(const CoreConfig &cfg)
{
    if (cfg.ftqEntries < 2 || cfg.ftqEntries > kMaxFtqEntries)
        fdip_fatal("ftqEntries %u outside [2, %u] (2 disables FDP)",
                   cfg.ftqEntries, kMaxFtqEntries);
    const struct
    {
        const char *field;
        unsigned value;
    } non_zero[] = {
        {"predictBandwidth", cfg.predictBandwidth},
        {"maxTakenPerCycle", cfg.maxTakenPerCycle},
        {"fetchBandwidth", cfg.fetchBandwidth},
        {"fetchProbesPerCycle", cfg.fetchProbesPerCycle},
        {"l1iMshrs", cfg.l1iMshrs},
        {"itlbEntries", cfg.itlbEntries},
        {"decodeQueueEntries", cfg.decodeQueueEntries},
        {"robEntries", cfg.robEntries},
        {"commitWidth", cfg.commitWidth},
    };
    for (const auto &f : non_zero) {
        if (f.value == 0)
            fdip_fatal("%s must be > 0", f.field);
    }
    if (cfg.usePrefetchBuffer && cfg.prefetchBufferLines == 0)
        fdip_fatal("prefetchBufferLines must be > 0 with the prefetch "
                   "buffer enabled");
    return cfg;
}

CoreConfig
paperBaselineConfig()
{
    CoreConfig cfg;
    cfg.applyHistoryScheme();
    return cfg;
}

CoreConfig
noFdpConfig()
{
    CoreConfig cfg = paperBaselineConfig();
    cfg.ftqEntries = 2; // 16-instruction FTQ: no run-ahead capability.
    return cfg;
}

CoreConfig
twoLevelBtbConfig()
{
    CoreConfig cfg = paperBaselineConfig();
    cfg.bpu.btbHierarchy.enabled = true;
    return cfg;
}

CacheConfig
itlbCacheConfig(unsigned entries)
{
    CacheConfig cfg;
    cfg.name = "ITLB";
    cfg.lineBytes = 4096;
    cfg.ways = entries;
    cfg.sizeBytes = static_cast<std::uint64_t>(entries) * 4096;
    return cfg;
}

CacheConfig
prefetchBufferConfig(unsigned lines)
{
    CacheConfig cfg;
    cfg.name = "PFB";
    cfg.lineBytes = kCacheLineBytes;
    cfg.ways = lines; // Fully associative.
    cfg.sizeBytes = std::uint64_t{lines} * kCacheLineBytes;
    return cfg;
}

} // namespace fdip
