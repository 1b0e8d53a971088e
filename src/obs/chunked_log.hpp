// Append-only record log in fixed-size chunks.
//
// A std::vector grown by doubling copies every record at each step and
// leaves the old buffers behind as free but resident heap.  The obs layer
// records hundreds of thousands of spans and samples per run, so it keeps
// them here instead: chunks of kChunkBytes that are never copied, moved or
// freed while the log lives.  References to records therefore stay valid
// across appends, and growth costs one allocation per chunk filled.  A
// chunk is left uninitialized until records land in it, so the unused tail
// of the last chunk is address space, not resident memory.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <vector>

namespace paraio::obs {

template <typename T>
class ChunkedLog {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "chunks hold plain records, copied in by value");

 public:
  /// Large enough that a run's records take fewer allocations than a
  /// doubling vector's steps (HTF: ten chunks for 196,705 spans).
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
  static constexpr std::size_t kPerChunk = kChunkBytes / sizeof(T);

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    reference operator*() const { return (*log_)[index_]; }
    pointer operator->() const { return &(*log_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++index_;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class ChunkedLog;
    const_iterator(const ChunkedLog* log, std::size_t index)
        : log_(log), index_(index) {}

    const ChunkedLog* log_ = nullptr;
    std::size_t index_ = 0;
  };

  ChunkedLog() = default;
  ChunkedLog(const ChunkedLog&) = delete;
  ChunkedLog& operator=(const ChunkedLog&) = delete;
  ChunkedLog(ChunkedLog&&) noexcept = default;
  ChunkedLog& operator=(ChunkedLog&&) noexcept = default;
  ~ChunkedLog() = default;

  /// Appends `record`; it stays at its address for the log's lifetime.
  void push_back(const T& record) {
    if (size_ == chunks_.size() * kPerChunk) {
      std::unique_ptr<T, FreeChunk> chunk(
          std::allocator<T>{}.allocate(kPerChunk));
      chunks_.push_back(std::move(chunk));
    }
    std::construct_at(chunks_[size_ / kPerChunk].get() + size_ % kPerChunk,
                      record);
    ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return chunks_[i / kPerChunk].get()[i % kPerChunk];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return chunks_[i / kPerChunk].get()[i % kPerChunk];
  }

  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size_}; }

 private:
  struct FreeChunk {
    void operator()(T* chunk) const noexcept {
      std::allocator<T>{}.deallocate(chunk, kPerChunk);
    }
  };

  std::vector<std::unique_ptr<T, FreeChunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace paraio::obs
