#include "bpu/history.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/bits.h"
#include "util/log.h"
#include "util/hotpath.h"

namespace fdip
{

namespace
{

/** Bit reversal of every byte value. */
constexpr std::array<std::uint8_t, 256> kReverseByte = [] {
    std::array<std::uint8_t, 256> t{};
    for (unsigned v = 0; v < 256; ++v) {
        unsigned r = 0;
        for (unsigned b = 0; b < 8; ++b)
            r |= ((v >> b) & 1u) << (7 - b);
        t[v] = static_cast<std::uint8_t>(r);
    }
    return t;
}();

/**
 * Reverses the low @p k (<= 8) bits of @p v: an event's hash bits are
 * pushed lowest first, so its newest bit is bit k - 1.
 */
FDIP_HOT_PATH std::uint32_t
reverseEvent(std::uint64_t v, unsigned k)
{
    return kReverseByte[v & 0xff] >> (8 - k);
}

} // namespace

std::vector<unsigned>
geometricHistoryLengths(unsigned num_tables, unsigned min_history,
                        unsigned max_history)
{
    const double ratio =
        std::pow(static_cast<double>(max_history) / min_history,
                 1.0 / (num_tables - 1));
    std::vector<unsigned> lens(num_tables);
    double len = min_history;
    for (unsigned t = 0; t < num_tables; ++t) {
        lens[t] = std::max<unsigned>(static_cast<unsigned>(len + 0.5),
                                     t == 0 ? min_history : lens[t - 1] + 1);
        len *= ratio;
    }
    return lens;
}

const char *
historyPolicyName(HistoryPolicy p)
{
    switch (p) {
      case HistoryPolicy::kTargetHistory: return "THR";
      case HistoryPolicy::kDirectionHistory: return "GHR";
      case HistoryPolicy::kIdealDirectionHistory: return "Ideal";
    }
    return "?";
}

BranchHistory::BranchHistory(HistoryPolicy policy, unsigned bits_per_event)
    : policy_(policy), bitsPerEvent_(bits_per_event)
{
    const bool target = policy_ == HistoryPolicy::kTargetHistory;
    if (bitsPerEvent_ == 0)
        bitsPerEvent_ = target ? 2 : 1;
    if (bitsPerEvent_ > 8)
        fdip_fatal("bits per history event must be <= 8");
    if (!target && bitsPerEvent_ != 1)
        fdip_fatal("direction history pushes 1 bit per event, not %u",
                   bitsPerEvent_);
}

unsigned
BranchHistory::registerFold(unsigned length_bits, unsigned folded_bits)
{
    if (folded_bits < bitsPerEvent_ || folded_bits > 31) {
        fdip_fatal("folded history width %u out of range [%u, 31]",
                   folded_bits, bitsPerEvent_);
    }
    if (length_bits + 512 > kRingWords * 64)
        fdip_fatal("history length %u exceeds ring capacity", length_bits);
    if (headPos_ != 0)
        fdip_fatal("folded history views must be registered before the "
                   "first push");

    std::size_t img = 0;
    while (img < geom_.size() &&
           (geom_[img].length != length_bits ||
            geom_[img].width != folded_bits))
        ++img;
    if (img == geom_.size()) {
        if (geom_.size() >= HistorySnapshot::kMaxImages)
            fdip_fatal("too many folded history images (max %zu)",
                       HistorySnapshot::kMaxImages);
        auto len = std::find(lengths_.begin(), lengths_.end(), length_bits);
        if (len == lengths_.end()) {
            lengths_.push_back(length_bits);
            len = lengths_.end() - 1;
        }
        ImageGeom g;
        g.length = length_bits;
        g.mask = static_cast<std::uint32_t>(mask(folded_bits));
        g.width = static_cast<std::uint8_t>(folded_bits);
        g.outMul = std::uint32_t{1} << (length_bits % folded_bits);
        g.lengthIdx = static_cast<std::uint8_t>(len - lengths_.begin());
        geom_.push_back(g);
        images_.push_back(0);
    }
    viewImage_.push_back(static_cast<std::uint8_t>(img));
    return static_cast<unsigned>(viewImage_.size() - 1);
}

TableImages
BranchHistory::registerTable(unsigned events, unsigned index_bits,
                             unsigned tag_bits)
{
    const unsigned bits = events * bitsPerEvent_;
    TableImages t;
    t.idx = static_cast<std::uint8_t>(imageOf(registerFold(bits, index_bits)));
    t.tagA = static_cast<std::uint8_t>(imageOf(registerFold(bits, tag_bits)));
    t.tagB =
        static_cast<std::uint8_t>(imageOf(registerFold(bits, tag_bits - 1)));
    return t;
}

FDIP_HOT_PATH void
BranchHistory::pushEvent(unsigned bits)
{
    const unsigned k = bitsPerEvent_;
    const std::uint32_t fresh = reverseEvent(bits, k); // Newest lowest.

    // Write the event at the head.
    const std::size_t word = (headPos_ / 64) % kRingWords;
    const unsigned off = headPos_ % 64;
    if (off + k <= 64) {
        const unsigned at = 64 - off - k;
        ring_[word] = (ring_[word] & ~(mask(k) << at)) |
                      (std::uint64_t{fresh} << at);
    } else {
        const unsigned tail = off + k - 64;
        const std::size_t next = (word + 1) % kRingWords;
        ring_[word] = (ring_[word] & ~mask(64 - off)) | (fresh >> tail);
        ring_[next] = (ring_[next] & mask(64 - tail)) |
                      (std::uint64_t{fresh} << (64 - tail));
    }

    // The bits leaving each distinct window: positions
    // [head - L, head - L + k), newest lowest. Before the first L bits,
    // part or all of that range precedes the first push and reads as 0.
    std::array<std::uint32_t, HistorySnapshot::kMaxImages> out{};
    for (std::size_t l = 0; l < lengths_.size(); ++l) {
        const std::uint64_t len = lengths_[l];
        std::uint64_t leaving = 0;
        if (headPos_ >= len)
            leaving = ringBits(headPos_ - len, k);
        else if (headPos_ + k > len)
            leaving = ringBits(0, static_cast<unsigned>(headPos_ + k - len));
        out[l] = static_cast<std::uint32_t>(leaving);
    }

    // Rotate each image left by k within its width, XOR in the new
    // bits and XOR out the leaving ones at L mod width. Every term fits
    // in 2 x width bits, so one fold of the bits above the width
    // completes all three rotations at once. The shifts by
    // loop-varying amounts are multiplies, which cost the host one
    // instruction where a variable shift costs several.
    std::uint32_t *img = images_.data();
    const ImageGeom *geom = geom_.data();
    const std::uint64_t shift_k = std::uint64_t{1} << k;
    for (std::size_t i = 0, n = images_.size(); i < n; ++i) {
        const ImageGeom g = geom[i];
        const std::uint64_t t = (img[i] * shift_k) ^ fresh ^
                                (out[g.lengthIdx] * std::uint64_t{g.outMul});
        img[i] = static_cast<std::uint32_t>((t ^ (t >> g.width)) & g.mask);
    }
    headPos_ += k;
}

FDIP_HOT_PATH void
BranchHistory::pushBranch(Addr pc, Addr target, bool taken)
{
    if (policy_ == HistoryPolicy::kTargetHistory) {
        if (!taken)
            return; // Taken-only target history ignores not-taken.
        // Eq. (2): hash PC and target; push bitsPerEvent_ bits of it.
        const std::uint64_t h = mix64((pc >> 2) ^ (target >> 1));
        pushEvent(static_cast<unsigned>(h & mask(bitsPerEvent_)));
    } else {
        pushEvent(taken ? 1 : 0);
    }
}

std::uint64_t
BranchHistory::recentBits() const
{
    const unsigned n =
        static_cast<unsigned>(std::min<std::uint64_t>(headPos_, 64));
    return n == 0 ? 0 : ringBits(headPos_ - n, n);
}

FDIP_HOT_PATH void
BranchHistory::restore(const HistorySnapshot &snap)
{
    if (snap.numImages != images_.size())
        fdip_panic("history snapshot image count mismatch");
    if (headPos_ - snap.headPos > (kRingWords * 64) / 2) {
        fdip_panic("history snapshot too old to restore (%llu bits behind)",
                   static_cast<unsigned long long>(headPos_ - snap.headPos));
    }
    headPos_ = snap.headPos;
    std::copy_n(snap.images.data(), images_.size(), images_.data());
}

std::uint64_t
BranchHistory::storageBits() const
{
    std::uint64_t bits = 0;
    for (const std::uint8_t img : viewImage_)
        bits += geom_[img].width;
    return bits;
}

StorageSchema
BranchHistory::storageSchema() const
{
    // Group registered views by width, preserving first-seen order so
    // the certificate is deterministic for a given registration order.
    std::vector<std::pair<unsigned, std::uint64_t>> widths;
    for (const std::uint8_t img : viewImage_) {
        const unsigned w = geom_[img].width;
        auto it = std::find_if(widths.begin(), widths.end(),
                               [&](const auto &e) { return e.first == w; });
        if (it == widths.end())
            widths.emplace_back(w, 1);
        else
            ++it->second;
    }
    StorageSchema s("history");
    for (const auto &[width, count] : widths)
        s.add("fold[" + std::to_string(width) + "b]", width, count);
    return s;
}

} // namespace fdip
