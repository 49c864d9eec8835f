#include "bpu/ras.h"

#include "util/bits.h"
#include "util/hotpath.h"
#include "util/log.h"

namespace fdip
{

Ras::Ras(unsigned depth)
    : stack_(depth, kNoAddr)
{
    if (depth == 0)
        fdip_fatal("RAS depth must be > 0");
}

FDIP_HOT_PATH void
Ras::push(Addr return_addr)
{
    topIndex_ = (topIndex_ + 1) % stack_.size();
    stack_[topIndex_] = return_addr;
    if (live_ < stack_.size())
        ++live_;
}

FDIP_HOT_PATH Addr
Ras::pop()
{
    if (live_ == 0) {
        FDIP_CHECK(!strictUnderflow_,
                   "RAS underflow: pop with no live entries (depth %u)",
                   depth());
        ++underflows_;
    } else {
        --live_;
    }
    const Addr v = stack_[topIndex_];
    topIndex_ = (topIndex_ + static_cast<std::uint32_t>(stack_.size()) - 1) %
                stack_.size();
    return v;
}

FDIP_HOT_PATH Addr
Ras::top() const
{
    return stack_[topIndex_];
}

FDIP_HOT_PATH RasSnapshot
Ras::snapshot() const
{
    return RasSnapshot{topIndex_, stack_[topIndex_], live_};
}

FDIP_HOT_PATH RasSnapshot
Ras::snapshotAfterPush(Addr return_addr) const
{
    const auto idx =
        static_cast<std::uint32_t>((topIndex_ + 1) % stack_.size());
    const auto live = static_cast<std::uint32_t>(
        live_ < stack_.size() ? live_ + 1 : live_);
    return RasSnapshot{idx, return_addr, live};
}

FDIP_HOT_PATH RasSnapshot
Ras::snapshotAfterPop() const
{
    const auto idx = static_cast<std::uint32_t>(
        (topIndex_ + stack_.size() - 1) % stack_.size());
    return RasSnapshot{idx, stack_[idx], live_ > 0 ? live_ - 1 : 0};
}

FDIP_HOT_PATH void
Ras::restore(const RasSnapshot &snap)
{
    FDIP_CHECK(snap.topIndex < stack_.size(),
               "RAS restore to index %u beyond depth %u", snap.topIndex,
               depth());
    FDIP_CHECK(snap.liveCount <= stack_.size(),
               "RAS restore with %u live entries beyond depth %u",
               snap.liveCount, depth());
    topIndex_ = snap.topIndex;
    stack_[topIndex_] = snap.topValue;
    live_ = snap.liveCount;
}

std::uint64_t
Ras::storageBits() const
{
    return rasStorageBitsFor(depth());
}

StorageSchema
Ras::storageSchema() const
{
    StorageSchema s("RAS");
    s.add("entry", kSchemaAddrBits, depth())
        .add("top_ptr", ceilLog2(depth()));
    return s;
}

void
Ras::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    reg.addCounter(prefix + ".underflows", [this] { return underflows_; },
                   "pops that found no live entry (wrong-path over-pops)");
    reg.addCounter(prefix + ".live_entries",
                   [this] { return std::uint64_t{live_}; });
    reg.addCounter(prefix + ".depth",
                   [this] { return std::uint64_t{depth()}; });
    reg.addCounter(prefix + ".storage_bits",
                   [this] { return storageBits(); });
}

} // namespace fdip
