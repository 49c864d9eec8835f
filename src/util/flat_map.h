/**
 * @file
 * A preallocated open-addressing hash map for tick-path bookkeeping.
 */

#ifndef FDIP_UTIL_FLAT_MAP_H_
#define FDIP_UTIL_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/hotpath.h"
#include "util/invariant.h"

namespace fdip
{

/**
 * Open-addressing hash map (linear probing, backward-shift deletion)
 * whose slot array is allocated once, at construction, for an expected
 * entry count. std::unordered_map allocates a node per insertion —
 * unacceptable on the per-tick hot path, where the memory hierarchy's
 * in-flight fill tables are touched every cycle (docs/ANALYSIS.md §7).
 * FlatMap keeps those maps allocation-free in steady state: `put` only
 * allocates if the live entry count outgrows the construction-time
 * capacity the owner chose.
 *
 * Keys must be trivially copyable integers; the hash is a fixed
 * multiplicative mix (deterministic across platforms and runs — map
 * behavior can never depend on pointer values or a seeded hash).
 */
template <typename K, typename V>
class FlatMap
{
  public:
    /** Map sized to hold @p expected_entries without reallocating. */
    explicit FlatMap(std::size_t expected_entries)
        : slot_count_(slotCountFor(expected_entries)),
          slots_(std::make_unique<Slot[]>(slot_count_))
    {
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    /** Slots before a put() must reallocate (2x the expected count). */
    [[nodiscard]] FDIP_HOT_PATH std::size_t capacity() const noexcept
    {
        return slot_count_ - slot_count_ / 4;
    }

    /** Pointer to the value for @p key, or nullptr when absent. */
    [[nodiscard]] FDIP_HOT_PATH V *
    find(K key) noexcept
    {
        for (std::size_t i = indexOf(key);; i = next(i)) {
            Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (s.key == key)
                return &s.value;
        }
    }

    [[nodiscard]] FDIP_HOT_PATH const V *
    find(K key) const noexcept
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    [[nodiscard]] bool contains(K key) const noexcept
    {
        return find(key) != nullptr;
    }

    /**
     * Inserts or overwrites the entry for @p key. Allocation-free
     * while the live entry count stays within capacity(); beyond it
     * the table doubles (correct, but a steady-state perf bug the
     * hot-path allocation test will catch).
     */
    FDIP_HOT_PATH void
    put(K key, V value)
    {
        if (size_ + 1 > capacity())
            grow();
        for (std::size_t i = indexOf(key);; i = next(i)) {
            Slot &s = slots_[i];
            if (!s.used) {
                s.used = true;
                s.key = key;
                s.value = value;
                ++size_;
                return;
            }
            if (s.key == key) {
                s.value = value;
                return;
            }
        }
    }

    /** Removes @p key's entry if present; true when one was removed. */
    FDIP_HOT_PATH bool
    erase(K key) noexcept
    {
        std::size_t i = indexOf(key);
        for (;; i = next(i)) {
            if (!slots_[i].used)
                return false;
            if (slots_[i].key == key)
                break;
        }
        // Backward-shift deletion: pull every displaced successor in
        // the probe chain up one slot so lookups never need tombstones.
        std::size_t hole = i;
        for (std::size_t j = next(i);; j = next(j)) {
            Slot &s = slots_[j];
            if (!s.used)
                break;
            const std::size_t home = indexOf(s.key);
            // s may move into the hole only if the hole lies on its
            // probe path (cyclically between home and current slot).
            const bool movable =
                (j > hole) ? (home <= hole || home > j)
                           : (home <= hole && home > j);
            if (movable) {
                slots_[hole] = s;
                hole = j;
            }
        }
        slots_[hole].used = false;
        --size_;
        return true;
    }

    /** Removes every entry (keeps the slot array). */
    void
    clear() noexcept
    {
        for (std::size_t i = 0; i < slot_count_; ++i)
            slots_[i].used = false;
        size_ = 0;
    }

  private:
    struct Slot
    {
        K key{};
        V value{};
        bool used = false;
    };

    static std::size_t
    slotCountFor(std::size_t expected_entries)
    {
        // Slot array is a power of two at least 2x the expected entry
        // count (load factor <= 0.75 at capacity, typically <= 0.5).
        std::size_t n = 8;
        while (n < expected_entries * 2)
            n *= 2;
        return n;
    }

    [[nodiscard]] FDIP_HOT_PATH std::size_t
    indexOf(K key) const noexcept
    {
        // Fibonacci multiplicative hash: deterministic and platform
        // independent, so map behavior can never perturb determinism.
        const auto mixed =
            static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
        return static_cast<std::size_t>(mixed & (slot_count_ - 1));
    }

    [[nodiscard]] FDIP_HOT_PATH std::size_t next(std::size_t i) const noexcept
    {
        return (i + 1) & (slot_count_ - 1);
    }

    void
    grow()
    {
        const std::size_t old_count = slot_count_;
        auto old = std::move(slots_);
        slot_count_ = old_count * 2;
        slots_ = std::make_unique<Slot[]>(slot_count_);
        size_ = 0;
        for (std::size_t i = 0; i < old_count; ++i)
            if (old[i].used)
                put(old[i].key, old[i].value);
    }

    std::size_t slot_count_;
    std::unique_ptr<Slot[]> slots_;
    std::size_t size_ = 0;
};

} // namespace fdip

#endif // FDIP_UTIL_FLAT_MAP_H_
