// Lock-free bounded admission queue (the serving stack's ingress).
//
// A bounded multi-producer/multi-consumer ring (Vyukov's array queue)
// with an exact capacity gate in front: submitters admit or shed a
// request with a handful of atomic operations and NEVER take a mutex, so
// admission cannot convoy behind a shard's dequeue scan or a slow worker.
// Shedding stays exact — `capacity` is enforced by a dedicated size
// counter, not by the (power-of-two) ring size — because admission
// control is a contract the tests pin ("capacity 4 admits exactly 4"),
// not a best-effort hint.
//
// Memory ordering: a producer writes the element, then releases the
// cell's sequence number; a consumer acquires the sequence number before
// reading the element. The size counter is sequentially consistent so
// the shard's sleep/wake protocol (see shard.cpp: producers read the
// idle-worker count after their push; sleepers re-check emptiness after
// advertising idleness) cannot lose a wakeup.
//
// close() makes every subsequent push fail with kClosed; elements already
// admitted remain poppable (shutdown drains and rejects them).
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace sspred::serve {

template <typename T>
class AdmissionQueue {
 public:
  enum class Push { kOk, kFull, kClosed };

  explicit AdmissionQueue(std::size_t capacity) : capacity_(capacity) {
    SSPRED_REQUIRE(capacity >= 1, "admission queue needs capacity >= 1");
    std::size_t ring = 1;
    while (ring < capacity) ring <<= 1;
    mask_ = ring - 1;
    cells_ = std::vector<Cell>(ring);
    for (std::size_t i = 0; i < ring; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admits `item` or reports why not. Lock-free; on kFull/kClosed the
  /// item is left untouched so the caller can still reject its promise.
  [[nodiscard]] Push try_push(T& item) {
    if (closed_.load(std::memory_order_acquire)) return Push::kClosed;
    // Exact capacity gate: claim a slot in the count only while it is
    // below capacity, so the count never exceeds capacity and a full
    // queue sheds without touching it. The ring (>= capacity cells) then
    // always has room.
    std::ptrdiff_t n = size_.load(std::memory_order_seq_cst);
    do {
      if (n >= static_cast<std::ptrdiff_t>(capacity_)) return Push::kFull;
    } while (
        !size_.compare_exchange_weak(n, n + 1, std::memory_order_seq_cst));
    const std::size_t pos = enqueue_pos_.fetch_add(1, std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    // The cell is free once its sequence catches up to our ticket; the
    // capacity gate guarantees this happens after at most one in-flight
    // pop's epilogue, so the wait is a few cycles, not a spin lock.
    std::size_t spins = 0;
    while (cell.seq.load(std::memory_order_acquire) != pos) {
      if (++spins > 64) std::this_thread::yield();
    }
    cell.item = std::move(item);
    cell.seq.store(pos + 1, std::memory_order_release);
    return Push::kOk;
  }

  /// Pops the oldest element into `out`; false when the queue is empty.
  [[nodiscard]] bool try_pop(T& out) {
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell* cell;
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::ptrdiff_t>(seq) -
                       static_cast<std::ptrdiff_t>(pos + 1);
      if (dif < 0) return false;  // empty (or a producer mid-publish)
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
        // CAS failure reloaded `pos`; retry from there.
      } else {
        // Another consumer already took `pos` (its cell has moved on to
        // the next lap): reload the head, or this loop spins forever.
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->item);
    cell->item = T{};  // drop promises/buffers eagerly, not on wraparound
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    size_.fetch_sub(1, std::memory_order_seq_cst);
    return true;
  }

  void close() { closed_.store(true, std::memory_order_release); }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  /// Elements admitted and not yet popped; never exceeds capacity(). A
  /// push counts from the moment it passes the capacity gate, so this
  /// never undershoots an admitted, unpopped element (sized for the
  /// sleep/wake emptiness check).
  [[nodiscard]] std::size_t size() const {
    const auto n = size_.load(std::memory_order_seq_cst);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T item{};
  };

  std::size_t capacity_;
  std::size_t mask_ = 0;
  std::vector<Cell> cells_;
  // Hot indices on their own cache lines: producers share enqueue_pos_,
  // consumers share dequeue_pos_; false sharing between the two sides
  // would serialize them again.
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  alignas(64) std::atomic<std::ptrdiff_t> size_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace sspred::serve
