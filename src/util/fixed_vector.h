/**
 * @file
 * A fixed-capacity vector for tick-path sets with structural bounds.
 */

#ifndef FDIP_UTIL_FIXED_VECTOR_H_
#define FDIP_UTIL_FIXED_VECTOR_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "util/hotpath.h"
#include "util/invariant.h"
#include "util/log.h"

namespace fdip
{

/**
 * Contiguous random-access container whose capacity is fixed at
 * construction — the modeled hardware bounds it (MSHR count, return
 * stack depth, in-flight resolve count), so growth is a simulator bug,
 * not a need. Unlike std::vector, pushBack never reallocates: it
 * FDIP_CHECKs against the structural capacity instead. This keeps the
 * per-tick hot path allocation-free (docs/ANALYSIS.md §7).
 *
 * Elements are default-constructed up front; pushBack assigns into
 * storage. Removal is either order-preserving (removeAt — for queues
 * whose drain order is architectural) or swap-with-last (removeSwap —
 * for unordered in-flight sets).
 */
template <typename T>
class FixedVector
{
  public:
    explicit FixedVector(std::size_t capacity)
        : capacity_(capacity), data_(std::make_unique<T[]>(capacity))
    {
        if (capacity == 0)
            fdip_fatal("a zero-capacity vector models no hardware");
    }

    [[nodiscard]] std::size_t capacity() const noexcept
    {
        return capacity_;
    }
    [[nodiscard]] FDIP_HOT_PATH std::size_t size() const noexcept { return size_; }
    [[nodiscard]] FDIP_HOT_PATH bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] FDIP_HOT_PATH bool full() const noexcept
    {
        return size_ == capacity_;
    }

    /** Appends an element. The vector must not be full. */
    FDIP_HOT_PATH void
    pushBack(const T &v)
    {
        FDIP_CHECK(!full(), "push onto a full vector (capacity %zu)",
                   capacity_);
        data_[size_++] = v;
    }

    /** Appends an element (move). The vector must not be full. */
    FDIP_HOT_PATH void
    pushBack(T &&v)
    {
        FDIP_CHECK(!full(), "push onto a full vector (capacity %zu)",
                   capacity_);
        data_[size_++] = std::move(v);
    }

    /** Removes the last element. The vector must not be empty. */
    FDIP_HOT_PATH void
    popBack()
    {
        FDIP_CHECK(!empty(), "pop from an empty vector");
        --size_;
    }

    /** Removes element @p i, preserving the order of the rest. */
    FDIP_HOT_PATH void
    removeAt(std::size_t i)
    {
        FDIP_CHECK(i < size_, "removeAt(%zu) out of bounds (size %zu)",
                   i, size_);
        for (std::size_t j = i + 1; j < size_; ++j)
            data_[j - 1] = std::move(data_[j]);
        --size_;
    }

    /** Removes element @p i by swapping the last element into it. */
    FDIP_HOT_PATH void
    removeSwap(std::size_t i)
    {
        FDIP_CHECK(i < size_, "removeSwap(%zu) out of bounds (size %zu)",
                   i, size_);
        data_[i] = std::move(data_[size_ - 1]);
        --size_;
    }

    /** Removes all elements. */
    void clear() noexcept { size_ = 0; }

    [[nodiscard]] T &
    operator[](std::size_t i)
    {
        FDIP_CHECK(i < size_, "index %zu out of bounds (size %zu)", i,
                   size_);
        return data_[i];
    }

    [[nodiscard]] const T &
    operator[](std::size_t i) const
    {
        FDIP_CHECK(i < size_, "index %zu out of bounds (size %zu)", i,
                   size_);
        return data_[i];
    }

    [[nodiscard]] T &front() { return (*this)[0]; }
    [[nodiscard]] const T &front() const { return (*this)[0]; }
    [[nodiscard]] T &back() { return (*this)[size_ - 1]; }
    [[nodiscard]] const T &back() const { return (*this)[size_ - 1]; }

    [[nodiscard]] T *begin() noexcept { return data_.get(); }
    [[nodiscard]] T *end() noexcept { return data_.get() + size_; }
    [[nodiscard]] const T *begin() const noexcept { return data_.get(); }
    [[nodiscard]] const T *end() const noexcept
    {
        return data_.get() + size_;
    }

  private:
    std::size_t capacity_;
    std::unique_ptr<T[]> data_;
    std::size_t size_ = 0;
};

} // namespace fdip

#endif // FDIP_UTIL_FIXED_VECTOR_H_
