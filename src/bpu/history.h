/**
 * @file
 * Global branch history with pluggable management policy.
 *
 * This implements the paper's central history mechanisms (Section
 * III-A, Table V):
 *
 *  - THR  : taken-only branch *target* history. Only predicted-taken
 *           branches push events (a hash of PC and target), so BTB-miss
 *           not-taken branches cannot disturb the history.
 *  - GHR  : all-branch *direction* history. Every detected branch
 *           pushes its predicted direction. Whether BTB-miss not-taken
 *           branches are later fixed up (GHR2/3) or silently lost
 *           (GHR0/1) is decided by the frontend, not here.
 *  - Ideal: direction history updated by an oracle for every branch.
 *
 * The history is a bit ring-buffer plus incrementally folded images
 * (Seznec-style): image (L, C) is the XOR of the last L history bits,
 * bit i (0 = newest) landing at position i mod C.
 *
 * Views and images. TAGE and ITTAGE register one folded *view* per
 * table and hash (index, tag A, tag B). Many views share a geometry:
 * under TAGE-18KB the index and first tag fold of a table have the
 * same width, and ITTAGE reuses three of TAGE's lengths. A view is
 * therefore only a name for an *image*, one per distinct (length,
 * width) pair, and only images are maintained, snapshotted and
 * restored. The budget still charges every view (storageBits(),
 * storageSchema()): the hardware keeps one folded register per table
 * and hash.
 *
 * Whole-event folding. An event is bitsPerEvent() bits (THR: 2,
 * direction: 1). Pushing it rotates each image left by that many bits
 * within its width, XORs in the new bits, and XORs out the bits that
 * leave the window, rotated to where they sit (L mod C, precomputed at
 * registration). The leaving bits are read from the ring once per
 * distinct length, not once per image.
 *
 * Note on Eq. (3): the paper folds the full-width target hash into the
 * shifted history. Like the public gem5/ChampSim FDIP implementations,
 * we push a fixed number of hash bits per taken branch instead, which
 * keeps the shift-register model (and incremental folding) exact.
 */

#ifndef FDIP_BPU_HISTORY_H_
#define FDIP_BPU_HISTORY_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "check/schema.h"
#include "util/bits.h"
#include "util/hotpath.h"
#include "util/state.h"
#include "util/types.h"

namespace fdip
{

/** History management policy (paper Table V). */
enum class HistoryPolicy : std::uint8_t
{
    kTargetHistory, ///< THR: taken-only branch target history.
    kDirectionHistory, ///< GHR: all-(detected-)branch direction history.
    kIdealDirectionHistory, ///< Oracle direction history (no BTB needs).
};

/** Human-readable policy name. */
const char *historyPolicyName(HistoryPolicy p);

/**
 * Geometric history lengths, in events: @p num_tables strictly
 * increasing lengths from @p min_history to about @p max_history, as
 * TAGE and ITTAGE assign them to their tagged tables.
 */
std::vector<unsigned> geometricHistoryLengths(unsigned num_tables,
                                              unsigned min_history,
                                              unsigned max_history);

/** The images one tagged predictor table hashes: its index fold and
 *  its two tag folds. Indices into BranchHistory::images(). */
struct TableImages
{
    std::uint8_t idx = 0;
    std::uint8_t tagA = 0;
    std::uint8_t tagB = 0;
};

/**
 * Snapshot of the speculative history state: the head position and
 * the folded images. Restoring one rewinds the history to the snapshot
 * point exactly. Fixed capacity so per-block snapshots never allocate;
 * copies move only the images in use.
 */
struct HistorySnapshot
{
    /** Maximum distinct folded images (TAGE-36KB + ITTAGE need 45). */
    static constexpr std::size_t kMaxImages = 64;

    std::uint64_t headPos = 0; ///< Bit-ring head position.
    std::uint8_t numImages = 0;
    /** Images [0, numImages); the rest is never read. */
    std::array<std::uint32_t, kMaxImages> images;

    HistorySnapshot() = default;

    FDIP_HOT_PATH HistorySnapshot(const HistorySnapshot &o) noexcept
    {
        *this = o;
    }

    FDIP_HOT_PATH HistorySnapshot &
    operator=(const HistorySnapshot &o) noexcept
    {
        headPos = o.headPos;
        numImages = o.numImages;
        std::copy_n(o.images.data(), numImages, images.data());
        return *this;
    }
};

/**
 * The global history register with registered folded views.
 */
class BranchHistory
{
  public:
    /**
     * @param policy        management policy.
     * @param bits_per_event history bits pushed per event: 0 picks the
     *                      policy default (2 for THR, 1 otherwise).
     *                      Direction policies push exactly 1.
     */
    explicit BranchHistory(HistoryPolicy policy, unsigned bits_per_event = 0);

    FDIP_HOT_PATH HistoryPolicy policy() const { return policy_; }
    unsigned bitsPerEvent() const { return bitsPerEvent_; }

    /**
     * Registers a folded view over the last @p length_bits history bits
     * compressed to @p folded_bits (bitsPerEvent() to 31). Views with
     * the same geometry share one image. Returns a view id for
     * folded() and imageOf().
     */
    unsigned registerFold(unsigned length_bits, unsigned folded_bits);

    /**
     * Registers one tagged table's three views over its last @p events
     * history events: the index fold (@p index_bits wide) and the two
     * tag folds (@p tag_bits and @p tag_bits - 1 wide). Returns their
     * images.
     */
    TableImages registerTable(unsigned events, unsigned index_bits,
                              unsigned tag_bits);

    /** Current folded value of view @p view. */
    FDIP_HOT_PATH std::uint32_t
    folded(unsigned view) const
    {
        return images_[viewImage_[view]];
    }

    /** The image behind view @p view: an index into images(). */
    unsigned imageOf(unsigned view) const { return viewImage_[view]; }

    /** Every image's current value, contiguous, indexed by imageOf().
     *  Stable for the lifetime of this history. */
    FDIP_HOT_PATH const std::uint32_t *images() const { return images_.data(); }

    /** The last 64 raw history bits (newest in bit 0). */
    std::uint64_t recentBits() const;

    /**
     * Pushes one branch event.
     *
     * Under a direction policy this pushes 1 bit (@p taken). Under the
     * target policy, events are pushed only for taken branches and
     * consist of bitsPerEvent() bits hashed from @p pc and @p target.
     */
    void pushBranch(Addr pc, Addr target, bool taken);

    /** True if this policy records an event for this outcome. */
    FDIP_HOT_PATH bool
    recordsEvent(bool taken) const
    {
        return policy_ != HistoryPolicy::kTargetHistory || taken;
    }

    /** Captures the entire speculative state. */
    FDIP_HOT_PATH HistorySnapshot
    snapshot() const
    {
        HistorySnapshot s;
        s.headPos = headPos_;
        s.numImages = static_cast<std::uint8_t>(images_.size());
        std::copy_n(images_.data(), images_.size(), s.images.data());
        return s;
    }

    /** Restores a snapshot taken earlier on this object. */
    void restore(const HistorySnapshot &snap);

    /** Number of registered folded views. */
    std::size_t numFolds() const { return viewImage_.size(); }

    /** Number of distinct folded images behind the views. */
    std::size_t numImages() const { return images_.size(); }

    /**
     * Modeled storage in bits: the exact sum of the registered folded
     * views' widths. The folds are the only history state the
     * predictors read at prediction time; the 4Kb ring is a simulator
     * convenience (it replays out-bits that real hardware keeps inside
     * each fold's shift window) and is not charged, and neither is the
     * host-side sharing of equal views. Equals
     * storageSchema().totalBits().
     */
    std::uint64_t storageBits() const;

    /**
     * Exact per-field storage declaration: one field per distinct view
     * width (in registration order), counting the views of that width.
     */
    StorageSchema storageSchema() const;

  private:
    /** Geometry of one image, fixed at registration. */
    struct ImageGeom
    {
        std::uint32_t length; ///< Window length in history bits.
        std::uint32_t mask;   ///< (1 << width) - 1.
        /** 1 << (length % width): leaving bits sit at length % width. */
        std::uint32_t outMul;
        std::uint8_t width;   ///< Folded width in bits.
        std::uint8_t lengthIdx; ///< Index into lengths_.
    };

    void pushEvent(unsigned bits);

    /** The @p n (<= 64) ring bits at positions [@p pos, @p pos + n),
     *  newest (highest position) in bit 0. Position p is bit
     *  63 - p % 64 of its word, so a window reads out with one shift. */
    FDIP_HOT_PATH std::uint64_t
    ringBits(std::uint64_t pos, unsigned n) const
    {
        const std::size_t word = (pos / 64) % kRingWords;
        const unsigned off = pos % 64;
        if (off + n <= 64)
            return (ring_[word] >> (64 - off - n)) & mask(n);
        const unsigned tail = off + n - 64; // Bits in the next word.
        return ((ring_[word] & mask(64 - off)) << tail) |
               (ring_[(word + 1) % kRingWords] >> (64 - tail));
    }

    /** Ring capacity in 64-bit words (4096 bits). */
    static constexpr std::size_t kRingWords = 64;

    FDIP_STATE_MICRO HistoryPolicy policy_;
    FDIP_STATE_MICRO unsigned bitsPerEvent_;
    FDIP_STATE_MICRO std::uint64_t headPos_ = 0; ///< Next bit position to write.
    FDIP_STATE_MICRO std::uint64_t ring_[kRingWords] = {};
    FDIP_STATE_MICRO std::vector<std::uint32_t> lengths_; ///< Distinct lengths.
    FDIP_STATE_MICRO std::vector<ImageGeom> geom_;        ///< Per image.
    FDIP_STATE_MICRO std::vector<std::uint8_t> viewImage_; ///< View -> image.
    FDIP_STATE_ARCH(fold...) std::vector<std::uint32_t> images_;
};

} // namespace fdip

#endif // FDIP_BPU_HISTORY_H_
