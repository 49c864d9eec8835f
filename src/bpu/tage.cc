#include "bpu/tage.h"

#include "util/bits.h"
#include "util/log.h"
#include "util/hotpath.h"

namespace fdip
{

namespace
{

/** Saturation bounds of a tagged entry's counters: a 3-bit signed
 *  prediction counter and a 2-bit usefulness counter. */
constexpr std::int8_t kCtrMin = -4;
constexpr std::int8_t kCtrMax = 3;
constexpr std::uint8_t kUsefulMax = 3;

/** The weak states of a signed prediction counter (0 and -1). */
FDIP_HOT_PATH bool
weak(std::int8_t ctr)
{
    return ctr == 0 || ctr == -1;
}

} // namespace

Tage::Tage(const TageConfig &cfg, BranchHistory &hist)
    : cfg_(cfg),
      hist_(hist),
      useAltOnNa_(4, 0),
      rng_(0x7467652d726e67ULL) // Fixed seed: deterministic allocation.
{
    if (cfg_.numTables > TagePrediction::kMaxTables)
        fdip_fatal("TAGE numTables %u exceeds metadata capacity",
                   cfg_.numTables);

    if (cfg_.tagBits > 16)
        fdip_fatal("TAGE tags must be at most 16 bits");

    histLens_ = geometricHistoryLengths(cfg_.numTables, cfg_.minHistory,
                                        cfg_.maxHistory);
    for (const unsigned len : histLens_)
        hash_.push_back(hist_.registerTable(len, cfg_.logEntries,
                                            cfg_.tagBits));

    table_.assign(std::size_t{cfg_.numTables} << cfg_.logEntries, Entry{});
    base_.assign(std::size_t{1} << cfg_.logBaseEntries, 1);
}

FDIP_HOT_PATH void
Tage::updateCtr(Entry &e, bool taken)
{
    if (taken) {
        if (e.ctr < kCtrMax)
            ++e.ctr;
    } else if (e.ctr > kCtrMin) {
        --e.ctr;
    }
}

FDIP_HOT_PATH bool
Tage::predict(Addr pc, TagePrediction &meta) const
{
    meta = TagePrediction{};
    meta.baseIndex = static_cast<std::uint32_t>(
        ((pc >> 2) ^ (pc >> (2 + cfg_.logBaseEntries))) &
        mask(cfg_.logBaseEntries));
    const bool base_pred = base_[meta.baseIndex] >= 2;

    // One pass over the tables: hash each index and tag from the
    // folded images, and find the two longest-history matches.
    const std::uint32_t *img = hist_.images();
    const std::uint64_t pc_idx = (pc >> 2) ^ (pc >> (2 + cfg_.logEntries));
    const std::uint64_t pc_tag = pc >> 2;
    const std::uint64_t idx_mask = mask(cfg_.logEntries);
    const std::uint64_t tag_mask = mask(cfg_.tagBits);
    int provider = -1;
    int alt = -1;
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        const TableImages &h = hash_[t];
        const auto idx = static_cast<std::uint32_t>(
            (pc_idx ^ img[h.idx] ^ (std::uint64_t{t} << 3)) & idx_mask);
        const auto tag = static_cast<std::uint16_t>(
            (pc_tag ^ img[h.tagA] ^ (std::uint64_t{img[h.tagB]} << 1)) &
            tag_mask);
        meta.indices[t] = idx;
        meta.tags[t] = tag;
        if (entry(t, idx).tag == tag) {
            alt = provider;
            provider = static_cast<int>(t);
        }
    }

    meta.provider = provider;
    meta.altProvider = alt;
    meta.altPred = alt >= 0 ? entry(static_cast<unsigned>(alt),
                                    meta.indices[alt]).ctr >= 0
                            : base_pred;
    if (provider >= 0) {
        const Entry &e =
            entry(static_cast<unsigned>(provider), meta.indices[provider]);
        meta.providerPred = e.ctr >= 0;
        meta.providerWeak = weak(e.ctr);
        // Newly-allocated (weak ctr, low usefulness) entries may be less
        // reliable than the alternate prediction.
        const bool newly_allocated = weak(e.ctr) && e.useful == 0;
        if (newly_allocated && useAltOnNa_.taken()) {
            meta.usedAlt = true;
            meta.taken = meta.altPred;
        } else {
            meta.taken = meta.providerPred;
        }
    } else {
        meta.providerPred = base_pred;
        meta.taken = base_pred;
    }
    return meta.taken;
}

FDIP_HOT_PATH void
Tage::update(Addr pc, bool taken, const TagePrediction &meta)
{
    (void)pc;
    const bool mispredicted = meta.taken != taken;

    if (meta.provider >= 0) {
        Entry &e = entry(static_cast<unsigned>(meta.provider),
                         meta.indices[meta.provider]);

        // useAltOnNa bookkeeping: when the provider was newly allocated
        // and provider/alt disagree, learn which one to trust.
        const bool newly_allocated = weak(e.ctr) && e.useful == 0;
        if (newly_allocated && meta.providerPred != meta.altPred)
            useAltOnNa_.update(meta.altPred == taken);

        updateCtr(e, taken);
        // Usefulness: provider was right where the alternate was wrong.
        if (meta.providerPred != meta.altPred) {
            if (meta.providerPred != taken) {
                if (e.useful > 0)
                    --e.useful;
            } else if (e.useful < kUsefulMax) {
                ++e.useful;
            }
        }
    } else {
        std::uint8_t &b = base_[meta.baseIndex];
        if (taken) {
            if (b < 3)
                ++b;
        } else if (b > 0) {
            --b;
        }
    }

    // Allocate a new entry on a misprediction, in a table with longer
    // history than the provider.
    if (mispredicted &&
        meta.provider < static_cast<int>(cfg_.numTables) - 1) {
        const unsigned start = static_cast<unsigned>(meta.provider + 1);
        // Randomized start avoids ping-pong allocation (Seznec).
        unsigned first = start;
        if (start + 1 < cfg_.numTables && (rng_.next() & 1))
            first = start + 1;

        bool allocated = false;
        for (unsigned t = first; t < cfg_.numTables; ++t) {
            Entry &e = entry(t, meta.indices[t]);
            if (e.useful == 0) {
                e.tag = static_cast<std::uint16_t>(meta.tags[t]);
                e.ctr = taken ? 0 : -1;
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            // All candidates useful: age them so future allocations win.
            for (unsigned t = start; t < cfg_.numTables; ++t) {
                Entry &e = entry(t, meta.indices[t]);
                if (e.useful > 0)
                    --e.useful;
            }
        }

        // Periodic graceful reset of usefulness counters.
        if (++allocCount_ >= cfg_.usefulResetPeriod) {
            allocCount_ = 0;
            for (Entry &e : table_)
                e.useful >>= 1;
        }
    }
}

std::uint64_t
Tage::storageBits() const
{
    return tageStorageBits(cfg_);
}

StorageSchema
Tage::storageSchema() const
{
    const std::uint64_t tagged =
        cfg_.numTables * (std::uint64_t{1} << cfg_.logEntries);
    StorageSchema s("TAGE");
    s.add("tagged.ctr", cfg_.counterBits, tagged)
        .add("tagged.tag", cfg_.tagBits, tagged)
        .add("tagged.useful", cfg_.usefulBits, tagged)
        .add("base.ctr", kTageBaseCtrBits,
             std::uint64_t{1} << cfg_.logBaseEntries)
        .add("use_alt_on_na", kTageUseAltOnNaBits)
        .add("useful_reset_tick", ceilLog2(cfg_.usefulResetPeriod))
        .add("alloc_lfsr", kTageAllocRngBits);
    return s;
}

} // namespace fdip
