/**
 * @file
 * Plain reference models of the prediction-path structures, for the
 * differential tests in bpu_differential_test.cc.
 *
 * RefTage, RefIttage and RefBtb are the straightforward
 * array-of-structs implementations the packed src/bpu versions
 * replaced: one std::vector per table, SatCounter/SignedSatCounter
 * entries, per-table index/tag hashing through BranchHistory::folded().
 * RefFolds recomputes every folded history image from the raw list of
 * pushed bits. None of them is tuned: they are the specification the
 * optimised structures must match bit for bit.
 */

#ifndef FDIP_TESTS_BPU_REFERENCE_MODELS_H_
#define FDIP_TESTS_BPU_REFERENCE_MODELS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "bpu/btb.h"
#include "bpu/history.h"
#include "bpu/ittage.h"
#include "bpu/tage.h"
#include "util/bits.h"
#include "util/rng.h"
#include "util/sat_counter.h"

namespace fdip::ref
{

/**
 * The raw history bit list and folds recomputed from it: bit i of the
 * window (0 = newest) lands at fold position i mod width.
 */
class RefFolds
{
  public:
    RefFolds(HistoryPolicy policy, unsigned bits_per_event)
        : policy_(policy), bitsPerEvent_(bits_per_event)
    {
    }

    void
    pushBranch(Addr pc, Addr target, bool taken)
    {
        if (policy_ == HistoryPolicy::kTargetHistory) {
            if (!taken)
                return;
            const std::uint64_t h = mix64((pc >> 2) ^ (target >> 1));
            for (unsigned i = 0; i < bitsPerEvent_; ++i)
                bits_.push_back(static_cast<std::uint8_t>((h >> i) & 1));
        } else {
            bits_.push_back(taken ? 1 : 0);
        }
    }

    std::size_t snapshot() const { return bits_.size(); }
    void restore(std::size_t n) { bits_.resize(n); }

    std::uint32_t
    fold(unsigned length, unsigned width) const
    {
        std::uint32_t v = 0;
        const std::size_t n = bits_.size();
        for (std::size_t i = 0; i < length && i < n; ++i)
            v ^= static_cast<std::uint32_t>(bits_[n - 1 - i]) << (i % width);
        return v;
    }

    /** The last 64 bits, newest in bit 0. */
    std::uint64_t
    recentBits() const
    {
        std::uint64_t v = 0;
        const std::size_t n = bits_.size();
        for (std::size_t i = 0; i < 64 && i < n; ++i)
            v |= static_cast<std::uint64_t>(bits_[n - 1 - i]) << i;
        return v;
    }

  private:
    HistoryPolicy policy_;
    unsigned bitsPerEvent_;
    std::vector<std::uint8_t> bits_;
};

/** The array-of-structs TAGE the packed Tage replaced. */
class RefTage
{
  public:
    RefTage(const TageConfig &cfg, BranchHistory &hist)
        : cfg_(cfg), hist_(hist), useAltOnNa_(4, 0),
          rng_(0x7467652d726e67ULL)
    {
        histLens_ = geometricHistoryLengths(cfg_.numTables, cfg_.minHistory,
                                            cfg_.maxHistory);
        const unsigned bpe = hist_.bitsPerEvent();
        for (unsigned t = 0; t < cfg_.numTables; ++t) {
            const unsigned bits = histLens_[t] * bpe;
            idxFold_.push_back(hist_.registerFold(bits, cfg_.logEntries));
            tagFoldA_.push_back(hist_.registerFold(bits, cfg_.tagBits));
            tagFoldB_.push_back(hist_.registerFold(bits, cfg_.tagBits - 1));
        }
        tables_.assign(cfg_.numTables,
                       std::vector<Entry>(std::size_t{1} << cfg_.logEntries));
        base_.assign(std::size_t{1} << cfg_.logBaseEntries, SatCounter(2, 1));
    }

    bool
    predict(Addr pc, TagePrediction &meta) const
    {
        meta = TagePrediction{};
        meta.baseIndex = static_cast<std::uint32_t>(
            ((pc >> 2) ^ (pc >> (2 + cfg_.logBaseEntries))) &
            mask(cfg_.logBaseEntries));
        const bool base_pred = base_[meta.baseIndex].taken();
        int provider = -1;
        int alt = -1;
        for (unsigned t = 0; t < cfg_.numTables; ++t) {
            meta.indices[t] = tableIndex(pc, t);
            meta.tags[t] = tableTag(pc, t);
            if (tables_[t][meta.indices[t]].tag == meta.tags[t]) {
                alt = provider;
                provider = static_cast<int>(t);
            }
        }
        meta.provider = provider;
        meta.altProvider = alt;
        meta.altPred = alt >= 0 ? tables_[alt][meta.indices[alt]].ctr.taken()
                                : base_pred;
        if (provider >= 0) {
            const Entry &e = tables_[provider][meta.indices[provider]];
            meta.providerPred = e.ctr.taken();
            meta.providerWeak = e.ctr.weak();
            const bool newly = e.ctr.weak() && e.useful.value() == 0;
            if (newly && useAltOnNa_.taken()) {
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

    void
    update(Addr, bool taken, const TagePrediction &meta)
    {
        const bool mispredicted = meta.taken != taken;
        if (meta.provider >= 0) {
            Entry &e = tables_[meta.provider][meta.indices[meta.provider]];
            const bool newly = e.ctr.weak() && e.useful.value() == 0;
            if (newly && meta.providerPred != meta.altPred)
                useAltOnNa_.update(meta.altPred == taken);
            e.ctr.update(taken);
            if (meta.providerPred != meta.altPred) {
                if (meta.providerPred == taken)
                    e.useful.increment();
                else
                    e.useful.decrement();
            }
        } else {
            base_[meta.baseIndex].update(taken);
        }
        if (mispredicted &&
            meta.provider < static_cast<int>(cfg_.numTables) - 1) {
            const unsigned start = static_cast<unsigned>(meta.provider + 1);
            unsigned first = start;
            if (start + 1 < cfg_.numTables && (rng_.next() & 1))
                first = start + 1;
            bool allocated = false;
            for (unsigned t = first; t < cfg_.numTables; ++t) {
                Entry &e = tables_[t][meta.indices[t]];
                if (e.useful.value() == 0) {
                    e.tag = static_cast<std::uint16_t>(meta.tags[t]);
                    e.ctr.reset(taken);
                    allocated = true;
                    break;
                }
            }
            if (!allocated) {
                for (unsigned t = start; t < cfg_.numTables; ++t)
                    tables_[t][meta.indices[t]].useful.decrement();
            }
            if (++allocCount_ >= cfg_.usefulResetPeriod) {
                allocCount_ = 0;
                for (auto &table : tables_)
                    for (auto &e : table)
                        e.useful.set(e.useful.value() >> 1);
            }
        }
    }

  private:
    struct Entry
    {
        SignedSatCounter ctr;
        std::uint16_t tag = 0;
        SatCounter useful;
        Entry() : ctr(3, 0), useful(2, 0) {}
    };

    std::uint32_t
    tableIndex(Addr pc, unsigned t) const
    {
        const std::uint64_t h = (pc >> 2) ^ (pc >> (2 + cfg_.logEntries)) ^
                                hist_.folded(idxFold_[t]) ^
                                (static_cast<std::uint64_t>(t) << 3);
        return static_cast<std::uint32_t>(h & mask(cfg_.logEntries));
    }

    std::uint16_t
    tableTag(Addr pc, unsigned t) const
    {
        const std::uint64_t h = (pc >> 2) ^ hist_.folded(tagFoldA_[t]) ^
                                (hist_.folded(tagFoldB_[t]) << 1);
        return static_cast<std::uint16_t>(h & mask(cfg_.tagBits));
    }

    TageConfig cfg_;
    BranchHistory &hist_;
    std::vector<unsigned> histLens_, idxFold_, tagFoldA_, tagFoldB_;
    std::vector<std::vector<Entry>> tables_;
    std::vector<SatCounter> base_;
    SignedSatCounter useAltOnNa_;
    std::uint32_t allocCount_ = 0;
    Rng rng_;
};

/** The array-of-structs ITTAGE the packed Ittage replaced. */
class RefIttage
{
  public:
    RefIttage(const IttageConfig &cfg, BranchHistory &hist)
        : cfg_(cfg), hist_(hist), rng_(0x697474616765ULL)
    {
        histLens_ = geometricHistoryLengths(cfg_.numTables, cfg_.minHistory,
                                            cfg_.maxHistory);
        const unsigned bpe = hist_.bitsPerEvent();
        for (unsigned t = 0; t < cfg_.numTables; ++t) {
            const unsigned bits = histLens_[t] * bpe;
            idxFold_.push_back(hist_.registerFold(bits, cfg_.logEntries));
            tagFoldA_.push_back(hist_.registerFold(bits, cfg_.tagBits));
            tagFoldB_.push_back(hist_.registerFold(bits, cfg_.tagBits - 1));
        }
        tables_.assign(cfg_.numTables,
                       std::vector<Entry>(std::size_t{1} << cfg_.logEntries));
        base_.assign(std::size_t{1} << cfg_.logBaseEntries, kNoAddr);
    }

    Addr
    predict(Addr pc, IttagePrediction &meta) const
    {
        meta = IttagePrediction{};
        meta.baseIndex = static_cast<std::uint32_t>(
            ((pc >> 2) ^ (pc >> (2 + cfg_.logBaseEntries))) &
            mask(cfg_.logBaseEntries));
        int provider = -1;
        for (unsigned t = 0; t < cfg_.numTables; ++t) {
            meta.indices[t] = tableIndex(pc, t);
            meta.tags[t] = tableTag(pc, t);
            const Entry &e = tables_[t][meta.indices[t]];
            if (e.valid && e.tag == meta.tags[t])
                provider = static_cast<int>(t);
        }
        meta.provider = provider;
        if (provider >= 0) {
            const Entry &e = tables_[provider][meta.indices[provider]];
            meta.providerConfident = e.conf.value() >= 1;
            if (meta.providerConfident) {
                meta.target = e.target;
                return meta.target;
            }
        }
        meta.target = base_[meta.baseIndex];
        return meta.target;
    }

    void
    update(Addr, Addr target, const IttagePrediction &meta)
    {
        const bool mispredicted = meta.target != target;
        base_[meta.baseIndex] = target;
        if (meta.provider >= 0) {
            Entry &e = tables_[meta.provider][meta.indices[meta.provider]];
            if (e.target == target) {
                e.conf.increment();
                e.useful.increment();
            } else if (e.conf.value() == 0) {
                e.target = target;
            } else {
                e.conf.decrement();
            }
        }
        if (mispredicted &&
            meta.provider < static_cast<int>(cfg_.numTables) - 1) {
            const unsigned start = static_cast<unsigned>(meta.provider + 1);
            unsigned first = start;
            if (start + 1 < cfg_.numTables && (rng_.next() & 1))
                first = start + 1;
            for (unsigned t = first; t < cfg_.numTables; ++t) {
                Entry &e = tables_[t][meta.indices[t]];
                if (!e.valid || e.useful.value() == 0) {
                    e.valid = true;
                    e.tag = static_cast<std::uint16_t>(meta.tags[t]);
                    e.target = target;
                    e.conf.set(0);
                    e.useful.set(0);
                    break;
                }
                e.useful.decrement();
            }
        }
    }

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        bool valid = false;
        Addr target = kNoAddr;
        SatCounter conf;
        SatCounter useful;
        Entry() : conf(2, 0), useful(1, 0) {}
    };

    std::uint32_t
    tableIndex(Addr pc, unsigned t) const
    {
        const std::uint64_t h = (pc >> 2) ^ (pc >> (2 + cfg_.logEntries)) ^
                                hist_.folded(idxFold_[t]) ^
                                (static_cast<std::uint64_t>(t) * 0x51ed);
        return static_cast<std::uint32_t>(h & mask(cfg_.logEntries));
    }

    std::uint16_t
    tableTag(Addr pc, unsigned t) const
    {
        const std::uint64_t h = (pc >> 2) ^ hist_.folded(tagFoldA_[t]) ^
                                (hist_.folded(tagFoldB_[t]) << 1);
        return static_cast<std::uint16_t>(h & mask(cfg_.tagBits));
    }

    IttageConfig cfg_;
    BranchHistory &hist_;
    std::vector<unsigned> histLens_, idxFold_, tagFoldA_, tagFoldB_;
    std::vector<std::vector<Entry>> tables_;
    std::vector<Addr> base_;
    Rng rng_;
};

/** The array-of-structs BTB (valid flag, full PC tag, global LRU
 *  clock) the split-tag Btb replaced. */
class RefBtb
{
  public:
    explicit RefBtb(const BtbConfig &cfg)
        : cfg_(cfg), numSets_(cfg.numEntries / cfg.ways),
          entries_(cfg.numEntries)
    {
    }

    std::optional<BtbHit>
    lookup(Addr pc)
    {
        ++lookups_;
        Entry *e = find(pc);
        if (e == nullptr)
            return std::nullopt;
        ++hits_;
        e->lru = ++lruClock_;
        return BtbHit{e->kind, e->target};
    }

    std::optional<BtbHit>
    peek(Addr pc)
    {
        const Entry *e = find(pc);
        if (e == nullptr)
            return std::nullopt;
        return BtbHit{e->kind, e->target};
    }

    void
    install(Addr pc, InstClass kind, Addr target, bool taken)
    {
        Entry *e = find(pc);
        if (e != nullptr) {
            e->kind = kind;
            e->target = target;
            e->lru = ++lruClock_;
            return;
        }
        if (cfg_.allocateTakenOnly && !taken)
            return;
        Entry *row = &entries_[std::size_t{setOf(pc)} * cfg_.ways];
        Entry *victim = &row[0];
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (!row[w].valid) {
                victim = &row[w];
                break;
            }
            if (row[w].lru < victim->lru)
                victim = &row[w];
        }
        if (victim->valid)
            ++evictions_;
        ++allocations_;
        *victim = Entry{true, pc, kind, target, ++lruClock_};
    }

    void
    invalidate(Addr pc)
    {
        if (Entry *e = find(pc))
            e->valid = false;
    }

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = kNoAddr;
        InstClass kind = InstClass::kCondDirect;
        Addr target = kNoAddr;
        std::uint64_t lru = 0;
    };

    std::uint32_t
    setOf(Addr pc) const
    {
        const std::uint64_t chunk = pc >> 4;
        return static_cast<std::uint32_t>(
            (chunk ^ (chunk >> floorLog2(numSets_))) & (numSets_ - 1));
    }

    Entry *
    find(Addr pc)
    {
        Entry *row = &entries_[std::size_t{setOf(pc)} * cfg_.ways];
        for (unsigned w = 0; w < cfg_.ways; ++w)
            if (row[w].valid && row[w].pc == pc)
                return &row[w];
        return nullptr;
    }

    BtbConfig cfg_;
    unsigned numSets_;
    std::vector<Entry> entries_;
    std::uint64_t lruClock_ = 0;
    std::uint64_t lookups_ = 0, hits_ = 0, allocations_ = 0, evictions_ = 0;
};

} // namespace fdip::ref

#endif // FDIP_TESTS_BPU_REFERENCE_MODELS_H_
