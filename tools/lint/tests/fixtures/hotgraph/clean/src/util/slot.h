// Multiple inheritance: a class with two bases is indexed with both,
// so a call through it binds to its own method, not to an unrelated
// unannotated method of the same name elsewhere.
#ifndef FDIP_UTIL_SLOT_H_
#define FDIP_UTIL_SLOT_H_

#ifndef FDIP_HOT_PATH
#define FDIP_HOT_PATH __attribute__((hot))
#endif

namespace fdip
{

struct SlotHead
{
    unsigned start = 0;
};

struct SlotBody
{
    unsigned count = 0;
};

struct Slot : SlotHead, SlotBody
{
    FDIP_HOT_PATH unsigned width() const { return count - start; }
};

class Catalog
{
  public:
    unsigned width() const { return 99; }
};

FDIP_HOT_PATH inline unsigned
slotWidth(const Slot &s)
{
    return s.width();
}

} // namespace fdip

#endif // FDIP_UTIL_SLOT_H_
