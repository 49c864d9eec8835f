#include "cache/cache.h"

#include <algorithm>

#include "util/bits.h"
#include "util/log.h"
#include "util/hotpath.h"

namespace fdip
{

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg), rng_(0xcac4e + cfg.sizeBytes)
{
    if (cfg_.ways == 0)
        fdip_fatal("%s: ways must be > 0", cfg_.name.c_str());
    if (!isPowerOf2(cfg_.lineBytes))
        fdip_fatal("%s: line size must be a power of two",
                   cfg_.name.c_str());
    if (cfg_.sizeBytes < std::uint64_t{cfg_.lineBytes} * cfg_.ways)
        fdip_fatal("%s: size %llu is smaller than one set (%u ways x %u B)",
                   cfg_.name.c_str(),
                   static_cast<unsigned long long>(cfg_.sizeBytes),
                   cfg_.ways, cfg_.lineBytes);
    const std::uint64_t lines = cfg_.sizeBytes / cfg_.lineBytes;
    if (lines % cfg_.ways != 0)
        fdip_fatal("%s: %llu lines not divisible by %u ways",
                   cfg_.name.c_str(),
                   static_cast<unsigned long long>(lines), cfg_.ways);
    numSets_ = static_cast<unsigned>(lines / cfg_.ways);
    if (!isPowerOf2(numSets_))
        fdip_fatal("%s: set count %u must be a power of two",
                   cfg_.name.c_str(), numSets_);
    lineShift_ = floorLog2(cfg_.lineBytes);
    tags_.assign(lines, kInvalidTag);
    lru_.assign(lines, 0);
    prefetched_.assign(lines, 0);
}

FDIP_HOT_PATH std::size_t
Cache::rowOf(Addr addr) const
{
    return static_cast<std::size_t>((addr >> lineShift_) & (numSets_ - 1)) *
           cfg_.ways;
}

FDIP_HOT_PATH unsigned
Cache::findWay(std::size_t row, Addr tag) const
{
    const Addr *set = &tags_[row];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (set[w] == tag)
            return w;
    }
    return cfg_.ways;
}

FDIP_HOT_PATH std::optional<unsigned>
Cache::probe(Addr addr) FDIP_HOT_NOEXCEPT
{
    ++tagAccesses_;
    const unsigned w = findWay(rowOf(addr), addr >> lineShift_);
    if (w == cfg_.ways) {
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    return w;
}

FDIP_HOT_PATH std::optional<unsigned>
Cache::access(Addr addr, bool *prefetched_out) FDIP_HOT_NOEXCEPT
{
    ++tagAccesses_;
    const std::size_t row = rowOf(addr);
    const unsigned w = findWay(row, addr >> lineShift_);
    if (w == cfg_.ways) {
        ++misses_;
        if (prefetched_out != nullptr)
            *prefetched_out = false;
        return std::nullopt;
    }
    ++hits_;
    const std::size_t i = row + w;
    lru_[i] = ++lruClock_;
    if (prefetched_out != nullptr)
        *prefetched_out = prefetched_[i] != 0;
    prefetched_[i] = 0;
    return w;
}

FDIP_HOT_PATH Addr
Cache::fill(Addr addr, unsigned *way_out, bool prefetch) FDIP_HOT_NOEXCEPT
{
    // One walk finds the hit, else the first empty way, else the LRU
    // way (the first of equal stamps).
    const std::size_t row = rowOf(addr);
    const Addr tag = addr >> lineShift_;
    const Addr *set = &tags_[row];
    const std::uint64_t *stamp = &lru_[row];
    unsigned w = 0;
    unsigned empty = cfg_.ways;
    unsigned oldest = 0;
    for (; w < cfg_.ways; ++w) {
        if (set[w] == tag)
            break;
        if (set[w] == kInvalidTag) {
            if (empty == cfg_.ways)
                empty = w;
        } else if (stamp[w] < stamp[oldest]) {
            oldest = w;
        }
    }

    Addr evicted = kNoAddr;
    if (w == cfg_.ways) {
        w = empty;
        if (w == cfg_.ways) {
            w = cfg_.replacement == ReplacementPolicy::kRandom
                    ? static_cast<unsigned>(rng_.below(cfg_.ways))
                    : oldest;
            ++evictions_;
            evicted = set[w] << lineShift_;
        }
        tags_[row + w] = tag;
    }
    lru_[row + w] = ++lruClock_;
    prefetched_[row + w] = prefetch;
    if (way_out != nullptr)
        *way_out = w;
    return evicted;
}

FDIP_HOT_PATH bool
Cache::contains(Addr addr) const FDIP_HOT_NOEXCEPT
{
    return findWay(rowOf(addr), addr >> lineShift_) != cfg_.ways;
}

FDIP_HOT_PATH void
Cache::invalidate(Addr addr) FDIP_HOT_NOEXCEPT
{
    const std::size_t row = rowOf(addr);
    const unsigned w = findWay(row, addr >> lineShift_);
    if (w != cfg_.ways) {
        tags_[row + w] = kInvalidTag;
        prefetched_[row + w] = 0;
    }
}

void
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(prefetched_.begin(), prefetched_.end(), 0);
}

std::uint64_t
Cache::storageBitsFor(const CacheConfig &cfg)
{
    return storageSchemaFor(cfg).totalBits();
}

StorageSchema
Cache::storageSchemaFor(const CacheConfig &cfg)
{
    const std::uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    const std::uint64_t sets = lines / cfg.ways;
    const unsigned offsetBits = floorLog2(cfg.lineBytes);
    const unsigned setBits = floorLog2(sets);
    const unsigned tagBits = kSchemaAddrBits - offsetBits - setBits;
    StorageSchema s(cfg.name);
    s.add("data", std::uint64_t{cfg.lineBytes} * 8, lines)
        .add("tag", tagBits, lines)
        .add("valid", 1, lines);
    if (cfg.replacement == ReplacementPolicy::kLru)
        s.add("lru", ceilLog2(cfg.ways), lines);
    else
        s.add("victim_lfsr", 64); // The replacement Rng's state.
    return s;
}

void
Cache::resetStats()
{
    tagAccesses_ = 0;
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

void
Cache::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    reg.addCounter(prefix + ".tag_accesses",
                   [this] { return tagAccesses_; },
                   "tag-array probes (demand + prefetch)");
    reg.addCounter(prefix + ".hits", [this] { return hits_; });
    reg.addCounter(prefix + ".misses", [this] { return misses_; });
    reg.addCounter(prefix + ".evictions", [this] { return evictions_; });
    reg.addCounter(prefix + ".storage_bits",
                   [this] { return storageBits(); },
                   "modeled storage (data + tags + valid)");
    reg.addDerived(prefix + ".miss_rate",
                   [this] {
                       return tagAccesses_ == 0
                                  ? 0.0
                                  : static_cast<double>(misses_) /
                                        static_cast<double>(tagAccesses_);
                   },
                   "misses / tag accesses");
}

} // namespace fdip
