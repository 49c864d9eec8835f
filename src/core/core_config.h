/**
 * @file
 * Whole-core configuration, defaulting to the paper's Table IV
 * parameters (Sunny-Cove-like core, IPC-1 memory hierarchy).
 */

#ifndef FDIP_CORE_CORE_CONFIG_H_
#define FDIP_CORE_CORE_CONFIG_H_

#include <string>

#include "bpu/bpu.h"
#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "obs/obs_config.h"
#include "util/types.h"

namespace fdip
{

/** Named history-management configurations of Table V. */
enum class HistoryScheme : std::uint8_t
{
    kThr,   ///< Taken-only target history; taken-only BTB allocation.
    kGhr0,  ///< Direction history, no fixup, taken-only BTB allocation.
    kGhr1,  ///< Direction history, no fixup, all-branch BTB allocation.
    kGhr2,  ///< Direction history, fixup flushes, taken-only allocation.
    kGhr3,  ///< Direction history, fixup flushes, all-branch allocation.
    kIdeal, ///< Oracle direction history, no fixup cost (280-bit).
};

/** Display name matching the paper's Fig. 8 legend. */
const char *historySchemeName(HistoryScheme s);

/** Core configuration. */
struct CoreConfig
{
    /// @{ Decoupled-frontend shape (paper Table IV defaults).
    unsigned ftqEntries = 24;        ///< 24 x 8 insts; 2 disables FDP.
    unsigned predictBandwidth = 12;  ///< Insts scanned per cycle.
    unsigned maxTakenPerCycle = 1;   ///< Predicted-taken branches/cycle.
    unsigned fetchBandwidth = 6;     ///< Insts delivered to decode/cycle.
    unsigned btbLatency = 2;         ///< Prediction pipeline depth.
    unsigned fetchProbesPerCycle = 2; ///< FTQ entries probing ITLB+tags.
    /// @}

    /// @{ FDP features under evaluation.
    bool pfcEnabled = true;
    /** Restrict PFC to unconditional branches (the pre-existing scheme
     *  the paper extends; ablation). */
    bool pfcUnconditionalOnly = false;
    HistoryScheme historyScheme = HistoryScheme::kThr;
    /// @}

    /// @{ Backend (Sunny-Cove-like interval model).
    unsigned decodeQueueEntries = 64;
    unsigned decodeLatency = 4;
    unsigned commitWidth = 6;
    unsigned robEntries = 352;
    unsigned branchResolveLatency = 12; ///< Dispatch-to-execute depth.
    /// @}

    /// @{ Instruction-side memory.
    CacheConfig l1i{"L1I", 32 * 1024, 8, kCacheLineBytes,
                    ReplacementPolicy::kLru};
    /** I-cache access pipeline depth on a hit (tag + data + way mux).
     *  Exposed per-entry when the FTQ is too shallow to pipeline it —
     *  the latency-hiding effect of FDP run-ahead (paper VI-F). */
    unsigned l1iHitLatency = 2;
    unsigned l1iMshrs = 16;
    unsigned itlbEntries = 64;
    unsigned itlbMissPenalty = 20;
    MemoryConfig mem;
    /// @}

    /// @{ Branch prediction.
    BpuConfig bpu;
    /// @}

    /// @{ Prefetching modes.
    /** Perfect prefetching (paper [32]): fills are instantaneous but
     *  the request still goes to the memory subsystem for traffic. */
    bool perfectPrefetch = false;
    /** Perfect I-cache: every access hits (limit studies / workload
     *  selection criterion). */
    bool perfectICache = false;
    unsigned prefetchesPerCycle = 4; ///< Prefetch-queue drain rate.
    /** Deliver prefetches into a small fully-associative prefetch
     *  buffer probed in parallel with the L1I (the original FDP paper
     *  [8] did this) instead of filling the L1I directly. Buffer hits
     *  promote the line into the L1I. Avoids prefetch pollution at the
     *  cost of buffer capacity. */
    bool usePrefetchBuffer = false;
    unsigned prefetchBufferLines = 32;
    /// @}

    /// @{ Observability (heartbeat / tracing / stat collection). Never
    /// affects simulated state: bit-identical stats either way.
    ObsConfig obs;
    /// @}

    /**
     * Applies a HistoryScheme to the BPU config (history policy +
     * BTB allocation policy) and records whether fixup flushes are
     * performed. Call after editing historyScheme.
     */
    void applyHistoryScheme();

    /** True when the scheme performs pre-decode GHR fixup flushes. */
    bool ghrFixup() const;
};

/** Largest FTQ the model builds: 128x the largest Fig. 14 point (32
 *  entries). A fixed bound, not a knob: a mistyped size ends in a
 *  fatal: line, not an allocation failure. */
inline constexpr unsigned kMaxFtqEntries = 4096;

/**
 * Rejects an illegal core shape with a fatal: line naming the field:
 * an FTQ outside [2, kMaxFtqEntries], a zero bandwidth, MSHR, ITLB,
 * decode-queue, ROB or commit-width size, or an enabled prefetch
 * buffer without lines. Structure geometry (BTB, caches, RAS) is
 * checked by each structure's constructor. Returns @p cfg, so Core
 * can validate before it builds any member.
 */
const CoreConfig &validateCoreConfig(const CoreConfig &cfg);

/** The paper's baseline FDP configuration (Table IV). */
CoreConfig paperBaselineConfig();

/** Baseline with FDP disabled (2-entry / 16-instruction FTQ). */
CoreConfig noFdpConfig();

/** Baseline with the optional two-level BTB (1K-entry L1 filter). */
CoreConfig twoLevelBtbConfig();

/** ITLB geometry used by the frontend's timing model: @p entries
 *  fully-associative translations over 4KB pages. (The budget layer
 *  charges translation entries, not the 4KB modeling lines.) */
CacheConfig itlbCacheConfig(unsigned entries);

/** Prefetch-buffer geometry: @p lines fully-associative cache lines
 *  probed in parallel with the L1I (original-FDP style). */
CacheConfig prefetchBufferConfig(unsigned lines);

} // namespace fdip

#endif // FDIP_CORE_CORE_CONFIG_H_
