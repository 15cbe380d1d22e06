// ChunkedStore: an append-only sequence with stable element addresses.
//
// Per-flow records are created once and then referenced by pointer from
// elsewhere (sources hold their FlowStats, a flow's embedded sink points
// back at its own record), so they must never move.  std::deque gives that
// but, in libstdc++, packs only 512 bytes per node: a record of a few
// hundred bytes gets a node — one malloc — of its own.  This store keeps
// elements in fixed-size chunks of kChunk, so n records cost n/kChunk
// allocations and no per-record malloc header.
//
// A chunk's storage is left uninitialised until elements are constructed
// in it, so a small run that opens a handful of records touches only the
// pages those records occupy.  Elements are destroyed in insertion order.

#pragma once

#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace ispn::util {

template <typename T, std::size_t kChunk = 256>
class ChunkedStore {
  static_assert(kChunk > 0);

 public:
  ChunkedStore() = default;
  ChunkedStore(const ChunkedStore&) = delete;
  ChunkedStore& operator=(const ChunkedStore&) = delete;
  ~ChunkedStore() {
    for (std::size_t i = 0; i < size_; ++i) (*this)[i].~T();
  }

  /// Constructs an element at the end; the reference stays valid for the
  /// store's lifetime.
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == chunks_.size() * kChunk) {
      chunks_.emplace_back(new Raw[kChunk]);  // uninitialised storage
    }
    T* p = ::new (static_cast<void*>(raw(size_)))
        T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return *std::launder(reinterpret_cast<T*>(raw(i)));
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return *std::launder(reinterpret_cast<const T*>(raw(i)));
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Insertion-order iteration (range-for).
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;

    iterator(ChunkedStore* store, std::size_t i) : store_(store), i_(i) {}
    T& operator*() const { return (*store_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    ChunkedStore* store_;
    std::size_t i_;
  };

  [[nodiscard]] iterator begin() { return {this, 0}; }
  [[nodiscard]] iterator end() { return {this, size_}; }

 private:
  struct alignas(T) Raw {
    std::byte bytes[sizeof(T)];
  };

  [[nodiscard]] Raw* raw(std::size_t i) const {
    return &chunks_[i / kChunk][i % kChunk];
  }

  std::vector<std::unique_ptr<Raw[]>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace ispn::util
