// BoundedQueue<T>: the per-stage admission boundary of the server
// plane. Producers TryPush (non-blocking, refused when full — the
// caller sheds instead of queueing unboundedly); consumers Pop
// (blocking until work or close). Capacity 0 disables the bound — the
// "no admission control" baseline the serving_load bench compares
// against.
//
// A popped item is tracked as in flight *inside the queue*, under the
// same lock acquisition as the pop, so WaitDrained() cannot observe an
// empty queue while a worker still holds an item (the same
// pop-to-active discipline ThreadPool::WaitIdle uses).
#ifndef VELOX_SERVER_BOUNDED_QUEUE_H_
#define VELOX_SERVER_BOUNDED_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace velox {

template <typename T>
class BoundedQueue {
 public:
  // capacity 0 = unbounded.
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Enqueues unless the queue is full or closed. Never blocks: a full
  // queue is a shed signal, not a wait. On refusal `item` is untouched
  // (the rvalue reference binds without moving), so the caller can
  // still answer the request it carries.
  bool TryPush(T&& item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    if (capacity_ != 0 && queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(item));
    if (queue_.size() > peak_depth_) peak_depth_ = queue_.size();
    work_available_.notify_one();
    return true;
  }

  // Blocks until an item is available (true) or the queue is closed and
  // empty (false). The popped item counts as in flight until the caller
  // invokes MarkDone().
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    work_available_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    return true;
  }

  // Batch-formation drain: pops up to `max` items, waiting at most
  // `linger_nanos` (total) for stragglers to arrive while fewer than
  // `max` are in hand. Unlike Pop this never blocks indefinitely — a
  // worker that already holds a batch's first task calls this to gather
  // the rest, and the linger bound guarantees a lone request is never
  // held hostage to batch formation. linger_nanos <= 0 takes only what
  // is queued right now. Popped items count as in flight until
  // MarkDone() is called once per item. Returns the number popped.
  size_t PopManyFor(std::vector<T>* out, size_t max, int64_t linger_nanos) {
    if (max == 0) return 0;
    std::unique_lock<std::mutex> lock(mu_);
    size_t popped = 0;
    auto drain = [&] {
      while (popped < max && !queue_.empty()) {
        out->push_back(std::move(queue_.front()));
        queue_.pop_front();
        ++in_flight_;
        ++popped;
      }
    };
    drain();
    if (linger_nanos > 0 && popped < max && !closed_) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::nanoseconds(linger_nanos);
      while (popped < max && !closed_) {
        if (!work_available_.wait_until(lock, deadline, [this] {
              return closed_ || !queue_.empty();
            })) {
          break;  // linger expired
        }
        drain();
      }
    }
    return popped;
  }

  // Consumer finished processing a popped item.
  void MarkDone() {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) drained_.notify_all();
  }

  // Blocks until the queue is empty and no popped item is still being
  // processed.
  void WaitDrained() {
    std::unique_lock<std::mutex> lock(mu_);
    drained_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  }

  // Rejects future pushes and wakes blocked poppers once the backlog is
  // consumed. Idempotent.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    work_available_.notify_all();
    if (queue_.empty() && in_flight_ == 0) drained_.notify_all();
  }

  size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }
  // Deepest backlog ever observed — the bench's bounded-vs-unbounded
  // growth evidence.
  size_t peak_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_depth_;
  }
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable drained_;
  std::deque<T> queue_;
  size_t in_flight_ = 0;
  size_t peak_depth_ = 0;
  bool closed_ = false;
};

}  // namespace velox

#endif  // VELOX_SERVER_BOUNDED_QUEUE_H_
