#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace lyra::sim {

/// FIFO queue over a power-of-two ring of slots. It doubles when full and
/// never shrinks, so a queue that has reached its high-water mark stops
/// allocating (std::deque allocates and frees a block every few hundred
/// pushes). pop_front() moves the element out, so a slot keeps nothing
/// alive after its element has left.
template <class T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Removes and returns the oldest element. The ring must not be empty.
  T pop_front() {
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return out;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  /// Doubles the slot array, unrolling the wrapped contents to start at 0.
  void grow() {
    std::vector<T> bigger(slots_.empty() ? kInitialCapacity
                                         : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace lyra::sim
