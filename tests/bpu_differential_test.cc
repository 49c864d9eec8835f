/**
 * @file
 * Differential tests: the optimised prediction-path structures against
 * the plain reference models of bpu_reference_models.h, over random
 * operation streams drawn from the repo's Rng.
 *
 *  - History: push/snapshot/restore under THR and GHR with the real
 *    TAGE+ITTAGE view set; every folded view must equal the fold
 *    recomputed from the raw pushed-bit list.
 *  - TAGE/ITTAGE: the packed predictors against the array-of-structs
 *    reference; every prediction and metadata field must match.
 *  - BTB: the split-tag BTB against the array-of-structs reference over
 *    install/lookup/peek/invalidate streams.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "bpu/btb.h"
#include "bpu/history.h"
#include "bpu/ittage.h"
#include "bpu/tage.h"
#include "bpu_reference_models.h"
#include "util/rng.h"

namespace fdip
{
namespace
{

struct ViewGeometry
{
    unsigned view;
    unsigned length; ///< History bits.
    unsigned width;  ///< Folded bits.
};

/** Registers the view set a Tage(@p tage) plus an Ittage(@p itt) would
 *  register, in the same order, and returns each view's geometry. */
std::vector<ViewGeometry>
registerPredictorViews(BranchHistory &h, const TageConfig &tage,
                       const IttageConfig &itt)
{
    std::vector<ViewGeometry> views;
    const unsigned bpe = h.bitsPerEvent();
    auto add = [&](unsigned tables, unsigned min_h, unsigned max_h,
                   unsigned log_entries, unsigned tag_bits) {
        for (unsigned len : geometricHistoryLengths(tables, min_h, max_h)) {
            for (unsigned width : {log_entries, tag_bits, tag_bits - 1}) {
                views.push_back(ViewGeometry{
                    h.registerFold(len * bpe, width), len * bpe, width});
            }
        }
    };
    add(tage.numTables, tage.minHistory, tage.maxHistory, tage.logEntries,
        tage.tagBits);
    add(itt.numTables, itt.minHistory, itt.maxHistory, itt.logEntries,
        itt.tagBits);
    return views;
}

struct HistoryCase
{
    HistoryPolicy policy;
    unsigned tageKb;
};

/** Prints the case name, so ctest names never carry raw bytes. */
void
PrintTo(const HistoryCase &c, std::ostream *os)
{
    *os << historyPolicyName(c.policy) << c.tageKb << "KB";
}

class HistoryDifferential : public ::testing::TestWithParam<HistoryCase>
{
};

TEST_P(HistoryDifferential, FoldsMatchRawBitRecomputation)
{
    const HistoryCase c = GetParam();
    BranchHistory h(c.policy);
    ref::RefFolds raw(c.policy, h.bitsPerEvent());
    const TageConfig tcfg = TageConfig::sized(c.tageKb);
    const std::vector<ViewGeometry> views =
        registerPredictorViews(h, tcfg, IttageConfig{});

    // The helper registers exactly the views the real predictors do.
    BranchHistory real(c.policy);
    Tage tage(tcfg, real);
    Ittage itt(IttageConfig{}, real);
    ASSERT_EQ(real.numFolds(), views.size());
    ASSERT_EQ(h.storageBits(), real.storageBits());

    auto expect_equal = [&](int step) {
        for (const ViewGeometry &v : views) {
            ASSERT_EQ(h.folded(v.view), raw.fold(v.length, v.width))
                << "step " << step << " view " << v.view << " ("
                << v.length << " bits -> " << v.width << ")";
        }
        ASSERT_EQ(h.recentBits(), raw.recentBits()) << "step " << step;
    };

    // Stack of (snapshot, raw bit count); younger snapshots are dropped
    // on restore, as the frontend drops squashed FTQ entries.
    std::vector<std::pair<HistorySnapshot, std::size_t>> snaps;
    Rng rng(0x5eed0000 + c.tageKb + 7 * static_cast<unsigned>(c.policy));
    for (int step = 0; step < 6000; ++step) {
        const std::uint64_t op = rng.below(100);
        if (op < 80) {
            const Addr pc = rng.below(1 << 20) * 4;
            const Addr target = rng.below(1 << 20) * 4;
            const bool taken = rng.chancePermille(600);
            h.pushBranch(pc, target, taken);
            raw.pushBranch(pc, target, taken);
        } else if (op < 92) {
            snaps.emplace_back(h.snapshot(), raw.snapshot());
        } else if (!snaps.empty()) {
            const std::size_t pick = rng.below(snaps.size());
            // Snapshots older than half the ring may not be restored.
            if (raw.snapshot() - snaps[pick].second <= 2048) {
                h.restore(snaps[pick].first);
                raw.restore(snaps[pick].second);
                snaps.resize(pick + 1);
            } else {
                snaps.erase(snaps.begin(),
                            snaps.begin() +
                                static_cast<std::ptrdiff_t>(pick + 1));
            }
        }
        expect_equal(step);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ViewSets, HistoryDifferential,
    ::testing::Values(HistoryCase{HistoryPolicy::kTargetHistory, 9},
                      HistoryCase{HistoryPolicy::kTargetHistory, 18},
                      HistoryCase{HistoryPolicy::kTargetHistory, 36},
                      HistoryCase{HistoryPolicy::kDirectionHistory, 18},
                      HistoryCase{HistoryPolicy::kDirectionHistory, 36}),
    [](const ::testing::TestParamInfo<HistoryCase> &info) {
        return std::string(historyPolicyName(info.param.policy)) +
               std::to_string(info.param.tageKb) + "KB";
    });

TEST(HistoryDifferential, OddGeometriesMatchRawBits)
{
    // Event widths that straddle ring words, windows shorter than one
    // event or not a multiple of it, and folds up to 31 bits wide.
    for (unsigned bpe : {1u, 2u, 3u, 5u, 8u}) {
        BranchHistory h(HistoryPolicy::kTargetHistory, bpe);
        ref::RefFolds raw(HistoryPolicy::kTargetHistory, bpe);
        std::vector<ViewGeometry> views;
        for (unsigned len : {0u, 1u, 3u, 7u, 64u, 65u, 127u, 1000u, 3583u}) {
            for (unsigned width : {bpe, bpe + 1, 13u, 31u}) {
                views.push_back(
                    ViewGeometry{h.registerFold(len, width), len, width});
            }
        }
        Rng rng(0x0dd + bpe);
        for (int step = 0; step < 3000; ++step) {
            const Addr pc = rng.next();
            const Addr target = rng.next();
            h.pushBranch(pc, target, true);
            raw.pushBranch(pc, target, true);
            for (const ViewGeometry &v : views) {
                ASSERT_EQ(h.folded(v.view), raw.fold(v.length, v.width))
                    << bpe << " bits/event, step " << step << ", "
                    << v.length << " bits -> " << v.width;
            }
            ASSERT_EQ(h.recentBits(), raw.recentBits());
        }
    }
}

void
expectSameMeta(const TagePrediction &a, const TagePrediction &b, int step)
{
    ASSERT_EQ(a.taken, b.taken) << "step " << step;
    ASSERT_EQ(a.providerPred, b.providerPred) << "step " << step;
    ASSERT_EQ(a.altPred, b.altPred) << "step " << step;
    ASSERT_EQ(a.provider, b.provider) << "step " << step;
    ASSERT_EQ(a.altProvider, b.altProvider) << "step " << step;
    ASSERT_EQ(a.providerWeak, b.providerWeak) << "step " << step;
    ASSERT_EQ(a.usedAlt, b.usedAlt) << "step " << step;
    ASSERT_EQ(a.baseIndex, b.baseIndex) << "step " << step;
    ASSERT_EQ(a.indices, b.indices) << "step " << step;
    ASSERT_EQ(a.tags, b.tags) << "step " << step;
}

void
expectSameMeta(const IttagePrediction &a, const IttagePrediction &b,
               int step)
{
    ASSERT_EQ(a.target, b.target) << "step " << step;
    ASSERT_EQ(a.provider, b.provider) << "step " << step;
    ASSERT_EQ(a.providerConfident, b.providerConfident) << "step " << step;
    ASSERT_EQ(a.baseIndex, b.baseIndex) << "step " << step;
    ASSERT_EQ(a.indices, b.indices) << "step " << step;
    ASSERT_EQ(a.tags, b.tags) << "step " << step;
}

struct PredictorCase
{
    const char *name;
    HistoryPolicy policy;
    TageConfig tage;
    IttageConfig ittage;
};

/** A deliberately tiny geometry: short tags and small tables alias
 *  constantly, and a short reset period exercises the useful decay. */
PredictorCase
tinyCase(HistoryPolicy policy, const char *name)
{
    PredictorCase c{name, policy, TageConfig::sized(9), IttageConfig{}};
    c.tage.logEntries = 5;
    c.tage.logBaseEntries = 6;
    c.tage.tagBits = 3;
    c.tage.usefulResetPeriod = 97;
    c.ittage.logEntries = 4;
    c.ittage.logBaseEntries = 5;
    c.ittage.tagBits = 3;
    return c;
}

void
PrintTo(const PredictorCase &c, std::ostream *os)
{
    *os << c.name;
}

class PredictorDifferential
    : public ::testing::TestWithParam<PredictorCase>
{
};

TEST_P(PredictorDifferential, PackedMatchesReference)
{
    const PredictorCase &c = GetParam();
    BranchHistory hist(c.policy);
    Tage tage(c.tage, hist);
    ref::RefTage ref_tage(c.tage, hist);
    Ittage itt(c.ittage, hist);
    ref::RefIttage ref_itt(c.ittage, hist);

    // A few hundred static branches with per-branch bias, some of them
    // history-correlated, plus indirect sites with a handful of targets.
    Rng rng(0xd1ff + c.tage.logEntries);
    std::vector<Addr> cond_pcs, ind_pcs;
    std::vector<unsigned> bias;
    for (int i = 0; i < 300; ++i) {
        cond_pcs.push_back(0x400000 + rng.below(1 << 16) * 4);
        bias.push_back(static_cast<unsigned>(rng.below(1001)));
    }
    for (int i = 0; i < 40; ++i)
        ind_pcs.push_back(0x800000 + rng.below(1 << 14) * 4);

    std::vector<HistorySnapshot> snaps;
    bool last = false;
    for (int step = 0; step < 40000; ++step) {
        if (rng.below(8) != 0) {
            const std::size_t i = rng.below(cond_pcs.size());
            const Addr pc = cond_pcs[i];
            const bool taken = (i % 3 == 0) ? (last ^ (i % 2 == 0))
                                            : rng.chancePermille(bias[i]);
            TagePrediction m, rm;
            const bool p = tage.predict(pc, m);
            const bool rp = ref_tage.predict(pc, rm);
            ASSERT_EQ(p, rp) << "step " << step;
            expectSameMeta(m, rm, step);
            tage.update(pc, taken, m);
            ref_tage.update(pc, taken, rm);
            hist.pushBranch(pc, pc + 64, taken);
            last = taken;
        } else {
            const std::size_t i = rng.below(ind_pcs.size());
            const Addr pc = ind_pcs[i];
            const Addr target =
                0x900000 + 0x40 * ((i + (last ? 1 : 0) + rng.below(2)) % 5);
            IttagePrediction m, rm;
            const Addr p = itt.predict(pc, m);
            const Addr rp = ref_itt.predict(pc, rm);
            ASSERT_EQ(p, rp) << "step " << step;
            expectSameMeta(m, rm, step);
            itt.update(pc, target, m);
            ref_itt.update(pc, target, rm);
            hist.pushBranch(pc, target, true);
        }
        // Occasional wrong-path excursions: snapshot, push noise,
        // restore. Both predictors read the same restored images.
        if (rng.below(50) == 0) {
            snaps.push_back(hist.snapshot());
            for (int k = 0, n = static_cast<int>(rng.below(12)); k < n; ++k)
                hist.pushBranch(rng.next(), rng.next(), true);
            hist.restore(snaps.back());
            snaps.pop_back();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PredictorDifferential,
    ::testing::Values(
        PredictorCase{"THR18KB", HistoryPolicy::kTargetHistory,
                      TageConfig::sized(18), IttageConfig{}},
        PredictorCase{"THR9KB", HistoryPolicy::kTargetHistory,
                      TageConfig::sized(9), IttageConfig{}},
        PredictorCase{"GHR36KB", HistoryPolicy::kDirectionHistory,
                      TageConfig::sized(36), IttageConfig{}},
        tinyCase(HistoryPolicy::kTargetHistory, "THRtiny"),
        tinyCase(HistoryPolicy::kDirectionHistory, "GHRtiny")),
    [](const ::testing::TestParamInfo<PredictorCase> &info) {
        return std::string(info.param.name);
    });

struct BtbCase
{
    const char *name;
    unsigned entries;
    unsigned ways;
    bool takenOnly;
};

void
PrintTo(const BtbCase &c, std::ostream *os)
{
    *os << c.name;
}

class BtbDifferential : public ::testing::TestWithParam<BtbCase>
{
};

TEST_P(BtbDifferential, SplitTagMatchesReference)
{
    const BtbCase &c = GetParam();
    BtbConfig cfg;
    cfg.numEntries = c.entries;
    cfg.ways = c.ways;
    cfg.allocateTakenOnly = c.takenOnly;
    Btb btb(cfg);
    ref::RefBtb ref_btb(cfg);

    // A pool several times the capacity, packed into a narrow range so
    // 16B chunks share sets and LRU victims are exercised.
    Rng rng(0xb7b0 + c.entries + c.ways);
    std::vector<Addr> pool;
    for (unsigned i = 0; i < c.entries * 3; ++i)
        pool.push_back(0x10000 + rng.below(c.entries * 16) * 4);
    const InstClass kinds[] = {
        InstClass::kCondDirect,   InstClass::kJumpDirect,
        InstClass::kCallDirect,   InstClass::kJumpIndirect,
        InstClass::kCallIndirect, InstClass::kReturn};

    auto same = [](const std::optional<BtbHit> &a,
                   const std::optional<BtbHit> &b) {
        if (a.has_value() != b.has_value())
            return false;
        return !a.has_value() ||
               (a->kind == b->kind && a->target == b->target);
    };

    for (int step = 0; step < 50000; ++step) {
        const Addr pc = pool[rng.below(pool.size())];
        const std::uint64_t op = rng.below(100);
        if (op < 45) {
            ASSERT_TRUE(same(btb.lookup(pc), ref_btb.lookup(pc)))
                << "lookup step " << step;
        } else if (op < 55) {
            ASSERT_TRUE(same(btb.peek(pc), ref_btb.peek(pc)))
                << "peek step " << step;
        } else if (op < 97) {
            const InstClass kind = kinds[rng.below(6)];
            const Addr target = 0x200000 + rng.below(1 << 12) * 4;
            const bool taken = rng.chancePermille(700);
            btb.install(pc, kind, target, taken);
            ref_btb.install(pc, kind, target, taken);
        } else {
            btb.invalidate(pc);
            ref_btb.invalidate(pc);
        }
        ASSERT_EQ(btb.hits(), ref_btb.hits()) << "step " << step;
        ASSERT_EQ(btb.allocations(), ref_btb.allocations())
            << "step " << step;
        ASSERT_EQ(btb.evictions(), ref_btb.evictions()) << "step " << step;
    }
    EXPECT_EQ(btb.lookups(), ref_btb.lookups());
    // Final contents: every pool PC resolves identically.
    for (const Addr pc : pool)
        ASSERT_TRUE(same(btb.peek(pc), ref_btb.peek(pc)));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BtbDifferential,
    ::testing::Values(BtbCase{"e64w4Taken", 64, 4, true},
                      BtbCase{"e64w4All", 64, 4, false},
                      BtbCase{"e32w2Taken", 32, 2, true},
                      BtbCase{"e128w8All", 128, 8, false},
                      BtbCase{"e16w1Taken", 16, 1, true},
                      BtbCase{"e8192w4Taken", 8192, 4, true}),
    [](const ::testing::TestParamInfo<BtbCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace fdip
