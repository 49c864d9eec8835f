/**
 * @file
 * A plain reference model of the set-associative cache, for the
 * differential tests in cache_differential_test.cc.
 *
 * RefCache is the straightforward array-of-structs implementation the
 * src/cache version replaced: one {valid, tag, lru, prefetched} record
 * per line, a lookup walk per operation, and a separate victim walk
 * (first empty way, else the random way or the least recently used
 * one). It is not tuned: it is the specification the optimised cache
 * must match operation for operation, replacement-Rng draws included.
 */

#ifndef FDIP_TESTS_CACHE_REFERENCE_MODEL_H_
#define FDIP_TESTS_CACHE_REFERENCE_MODEL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache.h"
#include "util/bits.h"
#include "util/rng.h"
#include "util/types.h"

namespace fdip::ref
{

class RefCache
{
  public:
    explicit RefCache(const CacheConfig &cfg)
        : cfg_(cfg),
          numSets_(static_cast<unsigned>(cfg.sizeBytes / cfg.lineBytes /
                                         cfg.ways)),
          lineShift_(floorLog2(cfg.lineBytes)),
          lines_(cfg.sizeBytes / cfg.lineBytes), rng_(0xcac4e + cfg.sizeBytes)
    {
    }

    std::optional<unsigned>
    probe(Addr addr)
    {
        ++tagAccesses_;
        const Line *l = findLine(addr);
        if (l == nullptr) {
            ++misses_;
            return std::nullopt;
        }
        ++hits_;
        return static_cast<unsigned>(l - row(addr));
    }

    std::optional<unsigned>
    access(Addr addr, bool *prefetched_out)
    {
        ++tagAccesses_;
        Line *l = findLine(addr);
        if (l == nullptr) {
            ++misses_;
            *prefetched_out = false;
            return std::nullopt;
        }
        ++hits_;
        l->lru = ++lruClock_;
        *prefetched_out = l->prefetched;
        l->prefetched = false;
        return static_cast<unsigned>(l - row(addr));
    }

    Addr
    fill(Addr addr, unsigned *way_out, bool prefetch)
    {
        Line *existing = findLine(addr);
        if (existing != nullptr) {
            existing->lru = ++lruClock_;
            existing->prefetched = prefetch;
            *way_out = static_cast<unsigned>(existing - row(addr));
            return kNoAddr;
        }

        Line *r = row(addr);
        Line *victim = nullptr;
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (!r[w].valid) {
                victim = &r[w];
                break;
            }
        }
        if (victim == nullptr) {
            if (cfg_.replacement == ReplacementPolicy::kRandom) {
                victim = &r[rng_.below(cfg_.ways)];
            } else {
                victim = &r[0];
                for (unsigned w = 1; w < cfg_.ways; ++w) {
                    if (r[w].lru < victim->lru)
                        victim = &r[w];
                }
            }
        }

        Addr evicted = kNoAddr;
        if (victim->valid) {
            ++evictions_;
            evicted = victim->tag << lineShift_;
        }
        victim->valid = true;
        victim->tag = addr >> lineShift_;
        victim->lru = ++lruClock_;
        victim->prefetched = prefetch;
        *way_out = static_cast<unsigned>(victim - r);
        return evicted;
    }

    bool contains(Addr addr) { return findLine(addr) != nullptr; }

    void
    invalidate(Addr addr)
    {
        Line *l = findLine(addr);
        if (l != nullptr) {
            l->valid = false;
            l->prefetched = false;
        }
    }

    void
    reset()
    {
        for (Line &l : lines_) {
            l.valid = false;
            l.prefetched = false;
        }
    }

    std::uint64_t tagAccesses() const { return tagAccesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
        bool prefetched = false;
    };

    Line *
    row(Addr addr)
    {
        const std::size_t set = (addr >> lineShift_) & (numSets_ - 1);
        return &lines_[set * cfg_.ways];
    }

    Line *
    findLine(Addr addr)
    {
        Line *r = row(addr);
        const Addr tag = addr >> lineShift_;
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (r[w].valid && r[w].tag == tag)
                return &r[w];
        }
        return nullptr;
    }

    CacheConfig cfg_;
    unsigned numSets_;
    unsigned lineShift_;
    std::vector<Line> lines_;
    std::uint64_t lruClock_ = 0;
    Rng rng_;

    std::uint64_t tagAccesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace fdip::ref

#endif // FDIP_TESTS_CACHE_REFERENCE_MODEL_H_
