#include "bpu/ittage.h"

#include "util/bits.h"
#include "util/log.h"
#include "util/hotpath.h"

namespace fdip
{

Ittage::Ittage(const IttageConfig &cfg, BranchHistory &hist)
    : cfg_(cfg), hist_(hist), rng_(0x697474616765ULL)
{
    if (cfg_.numTables > IttagePrediction::kMaxTables)
        fdip_fatal("ITTAGE numTables %u exceeds metadata capacity",
                   cfg_.numTables);

    if (cfg_.tagBits > 16)
        fdip_fatal("ITTAGE tags are at most 16 bits, not %u", cfg_.tagBits);

    for (const unsigned len : geometricHistoryLengths(
             cfg_.numTables, cfg_.minHistory, cfg_.maxHistory))
        hash_.push_back(hist_.registerTable(len, cfg_.logEntries,
                                            cfg_.tagBits));

    table_.assign(std::size_t{cfg_.numTables} << cfg_.logEntries, Entry{});
    base_.assign(std::size_t{1} << cfg_.logBaseEntries, kNoAddr);
}

FDIP_HOT_PATH Addr
Ittage::predict(Addr pc, IttagePrediction &meta) const
{
    meta = IttagePrediction{};
    meta.baseIndex = static_cast<std::uint32_t>(
        ((pc >> 2) ^ (pc >> (2 + cfg_.logBaseEntries))) &
        mask(cfg_.logBaseEntries));

    // One pass: hash every index and tag from the folded images and
    // keep the longest-history valid match.
    const std::uint32_t *img = hist_.images();
    const std::uint64_t pc_idx = (pc >> 2) ^ (pc >> (2 + cfg_.logEntries));
    const std::uint64_t pc_tag = pc >> 2;
    const std::uint64_t idx_mask = mask(cfg_.logEntries);
    const std::uint64_t tag_mask = mask(cfg_.tagBits);
    int provider = -1;
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        const TableImages &h = hash_[t];
        const auto idx = static_cast<std::uint32_t>(
            (pc_idx ^ img[h.idx] ^ (std::uint64_t{t} * 0x51ed)) & idx_mask);
        const auto tag = static_cast<std::uint16_t>(
            (pc_tag ^ img[h.tagA] ^ (std::uint64_t{img[h.tagB]} << 1)) &
            tag_mask);
        meta.indices[t] = idx;
        meta.tags[t] = tag;
        const Entry &e = entry(t, idx);
        if (e.valid && e.tag == tag)
            provider = static_cast<int>(t);
    }

    meta.provider = provider;
    if (provider >= 0) {
        const Entry &e =
            entry(static_cast<unsigned>(provider), meta.indices[provider]);
        meta.providerConfident = e.conf >= 1;
        if (meta.providerConfident) {
            meta.target = e.target;
            return meta.target;
        }
    }
    meta.target = base_[meta.baseIndex];
    return meta.target;
}

FDIP_HOT_PATH void
Ittage::update(Addr pc, Addr target, const IttagePrediction &meta)
{
    (void)pc;
    const bool mispredicted = meta.target != target;

    base_[meta.baseIndex] = target;

    if (meta.provider >= 0) {
        Entry &e = entry(static_cast<unsigned>(meta.provider),
                         meta.indices[meta.provider]);
        if (e.target == target) {
            if (e.conf < mask(kIttageConfBits))
                ++e.conf;
            if (e.useful < mask(kIttageUsefulBits))
                ++e.useful;
        } else if (e.conf == 0) {
            e.target = target;
        } else {
            --e.conf;
        }
    }

    // Allocate on misprediction in a longer-history table.
    if (mispredicted &&
        meta.provider < static_cast<int>(cfg_.numTables) - 1) {
        const unsigned start = static_cast<unsigned>(meta.provider + 1);
        unsigned first = start;
        if (start + 1 < cfg_.numTables && (rng_.next() & 1))
            first = start + 1;
        for (unsigned t = first; t < cfg_.numTables; ++t) {
            Entry &e = entry(t, meta.indices[t]);
            if (!e.valid || e.useful == 0) {
                e.valid = true;
                e.tag = static_cast<std::uint16_t>(meta.tags[t]);
                e.target = target;
                e.conf = 0;
                e.useful = 0;
                break;
            }
            --e.useful;
        }
    }
}

std::uint64_t
Ittage::storageBits() const
{
    return ittageStorageBits(cfg_);
}

StorageSchema
Ittage::storageSchema() const
{
    const std::uint64_t tagged =
        cfg_.numTables * (std::uint64_t{1} << cfg_.logEntries);
    StorageSchema s("ITTAGE");
    s.add("tagged.tag", cfg_.tagBits, tagged)
        .add("tagged.valid", 1, tagged)
        .add("tagged.target", kSchemaAddrBits, tagged)
        .add("tagged.conf", kIttageConfBits, tagged)
        .add("tagged.useful", kIttageUsefulBits, tagged)
        .add("base.target", kSchemaAddrBits,
             std::uint64_t{1} << cfg_.logBaseEntries)
        .add("alloc_lfsr", kIttageAllocRngBits);
    return s;
}

} // namespace fdip
