#include "bpu/btb.h"

#include "util/bits.h"
#include "util/log.h"
#include "util/hotpath.h"

namespace fdip
{

Btb::Btb(const BtbConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.ways == 0)
        fdip_fatal("BTB ways must be > 0");
    if (cfg_.numEntries < cfg_.ways)
        fdip_fatal("BTB of %u entries is smaller than one %u-way set",
                   cfg_.numEntries, cfg_.ways);
    if (cfg_.numEntries > kMaxBtbEntries)
        fdip_fatal("BTB entries %u exceed the %u-entry cap",
                   cfg_.numEntries, kMaxBtbEntries);
    if (cfg_.bytesPerEntry == 0)
        fdip_fatal("BTB bytesPerEntry must be > 0");
    if (cfg_.numEntries % cfg_.ways != 0)
        fdip_fatal("BTB entries %u not divisible by ways %u",
                   cfg_.numEntries, cfg_.ways);
    numSets_ = cfg_.numEntries / cfg_.ways;
    if (!isPowerOf2(numSets_))
        fdip_fatal("BTB set count %u must be a power of two", numSets_);
    setShift_ = floorLog2(numSets_);
    TagLine empty;
    empty.way.fill(kNoAddr);
    tags_.assign((cfg_.numEntries + 7) / 8, empty);
    payload_.assign(cfg_.numEntries, Payload{});
}

FDIP_HOT_PATH std::uint32_t
Btb::setOf(Addr pc) const
{
    // 16B-indexed: drop the low 4 bits so all branches in a 16B chunk
    // share a set; mix upper bits to spread large footprints.
    const std::uint64_t chunk = pc >> 4;
    return static_cast<std::uint32_t>(
        (chunk ^ (chunk >> setShift_)) & (numSets_ - 1));
}

FDIP_HOT_PATH std::size_t
Btb::find(Addr pc) const
{
    if (pc == kNoAddr)
        return kNotFound; // The invalid-way tag matches nothing.
    const std::size_t base = std::size_t{setOf(pc)} * cfg_.ways;
    for (std::size_t i = base; i < base + cfg_.ways; ++i) {
        if (tagAt(i) == pc)
            return i;
    }
    return kNotFound;
}

FDIP_HOT_PATH std::optional<BtbHit>
Btb::lookup(Addr pc)
{
    ++lookups_;
    const std::size_t i = find(pc);
    if (i == kNotFound)
        return std::nullopt;
    ++hits_;
    Payload &p = payload_[i];
    p.lru = ++lruClock_;
    return BtbHit{static_cast<InstClass>(p.kind), p.target};
}

FDIP_HOT_PATH std::optional<BtbHit>
Btb::peek(Addr pc) const
{
    const std::size_t i = find(pc);
    if (i == kNotFound)
        return std::nullopt;
    return BtbHit{static_cast<InstClass>(payload_[i].kind),
                  payload_[i].target};
}

FDIP_HOT_PATH void
Btb::install(Addr pc, InstClass kind, Addr target, bool taken)
{
    const std::size_t hit = find(pc);
    if (hit != kNotFound) {
        // Refresh: indirect branches update their last target.
        touch(hit, kind, target);
        return;
    }

    if ((cfg_.allocateTakenOnly && !taken) || pc == kNoAddr)
        return;

    // First invalid way, else the least recently used.
    const std::size_t base = std::size_t{setOf(pc)} * cfg_.ways;
    std::size_t victim = base;
    for (std::size_t i = base; i < base + cfg_.ways; ++i) {
        if (tagAt(i) == kNoAddr) {
            victim = i;
            break;
        }
        if (payload_[i].lru < payload_[victim].lru)
            victim = i;
    }
    if (tagAt(victim) != kNoAddr)
        ++evictions_;
    ++allocations_;
    tagAt(victim) = pc;
    touch(victim, kind, target);
}

FDIP_HOT_PATH void
Btb::invalidate(Addr pc)
{
    const std::size_t i = find(pc);
    if (i != kNotFound)
        tagAt(i) = kNoAddr;
}

StorageSchema
Btb::storageSchema(const std::string &structure) const
{
    const std::uint64_t entry_bits = btbEntryBits(cfg_);
    const std::uint64_t fixed =
        1 + kBtbKindBits + ceilLog2(cfg_.ways) + kBtbTargetBits;
    if (fixed > entry_bits)
        fdip_fatal("BTB bytesPerEntry %u too small for its fixed fields",
                   cfg_.bytesPerEntry);
    StorageSchema s(structure);
    s.add("valid", 1, cfg_.numEntries)
        .add("kind", kBtbKindBits, cfg_.numEntries)
        .add("lru", ceilLog2(cfg_.ways), cfg_.numEntries)
        .add("target", kBtbTargetBits, cfg_.numEntries)
        .add("tag", entry_bits - fixed, cfg_.numEntries);
    return s;
}

void
Btb::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    reg.addCounter(prefix + ".lookups", [this] { return lookups_; });
    reg.addCounter(prefix + ".hits", [this] { return hits_; });
    reg.addCounter(prefix + ".allocations",
                   [this] { return allocations_; });
    reg.addCounter(prefix + ".evictions", [this] { return evictions_; });
    reg.addCounter(prefix + ".storage_bits",
                   [this] { return storageBits(); });
    reg.addDerived(prefix + ".hit_rate",
                   [this] {
                       return lookups_ == 0
                                  ? 0.0
                                  : static_cast<double>(hits_) /
                                        static_cast<double>(lookups_);
                   },
                   "hits / lookups");
}

} // namespace fdip
