// A vector with inline storage for the first N elements and a heap
// fallback beyond, for the small fixed-cardinality sets the hot path
// copies constantly — above all label antisting sets (exactly k
// elements, k = n in every deployment, and n <= 16 across the whole
// experiment suite). Keeping them inline removes one heap allocation
// per decoded timestamp and keeps comparisons cache-local.
//
// Restricted to trivially copyable element types: growth and copies
// degenerate to memcpy and destruction never runs element destructors.
// The API is the std::vector subset the label code uses; semantics
// match std::vector (resize value-initializes, erase/insert return
// iterators into the sequence).
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <initializer_list>
#include <type_traits>

namespace sbft {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;
  SmallVector(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
  }
  SmallVector(const SmallVector& other) {
    assign(other.begin(), other.end());
  }
  SmallVector(SmallVector&& other) noexcept { MoveFrom(std::move(other)); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      MoveFrom(std::move(other));
    }
    return *this;
  }
  SmallVector& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }
  ~SmallVector() { FreeHeap(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    // The one legitimate raw allocation: this IS the spill allocator
    // everything else is told to use.
    T* heap = new T[n];  // sbft-analyze: allow(raw-alloc)
    std::copy(data_, data_ + size_, heap);
    if (OnHeap()) delete[] data_;
    data_ = heap;
    capacity_ = n;
  }

  void resize(std::size_t n) {
    reserve(n);
    for (std::size_t i = size_; i < n; ++i) data_[i] = T{};
    size_ = n;
  }

  void push_back(const T& value) {
    if (size_ == capacity_) reserve(capacity_ * 2);
    data_[size_++] = value;
  }

  void pop_back() { --size_; }

  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }

  iterator insert(const_iterator pos, const T& value) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    push_back(value);  // may reallocate; `at` stays valid
    std::rotate(data_ + at, data_ + size_ - 1, data_ + size_);
    return data_ + at;
  }

  iterator erase(const_iterator first, const_iterator last) {
    const std::size_t at = static_cast<std::size_t>(first - data_);
    const std::size_t count = static_cast<std::size_t>(last - first);
    std::copy(data_ + at + count, data_ + size_, data_ + at);
    size_ -= count;
    return data_ + at;
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend auto operator<=>(const SmallVector& a, const SmallVector& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  [[nodiscard]] bool OnHeap() const { return data_ != inline_; }

  void FreeHeap() {
    if (OnHeap()) delete[] data_;
    data_ = inline_;
    capacity_ = N;
    size_ = 0;
  }

  /// Precondition: *this owns no heap storage (fresh or just freed).
  void MoveFrom(SmallVector&& other) noexcept {
    if (other.OnHeap()) {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_;
      other.capacity_ = N;
      other.size_ = 0;
    } else {
      size_ = other.size_;
      std::copy(other.data_, other.data_ + other.size_, data_);
      other.size_ = 0;
    }
  }

  T inline_[N];
  T* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace sbft
