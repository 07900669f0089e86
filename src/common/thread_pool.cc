#include "common/thread_pool.h"

#include <exception>

#include "common/logging.h"

namespace velox {

namespace {

// Human-readable description of the in-flight exception (for Status
// messages and worker-loop logging).
std::string CurrentExceptionMessage() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) return false;
    queue_.push_back(std::move(task));
    ++tasks_submitted_;
  }
  work_available_.notify_one();
  return true;
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && active_workers_ == 0; });
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) return;
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

uint64_t ThreadPool::tasks_submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_submitted_;
}

uint64_t ThreadPool::tasks_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_completed_;
}

uint64_t ThreadPool::task_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return task_failures_;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        // shutting_down_ and drained: exit.
        return;
      }
      // Pop and activate under one lock acquisition: WaitIdle's
      // "queue empty && no active workers" predicate can never observe
      // an in-flight task as idle.
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_workers_;
    }
    bool failed = false;
    try {
      task();
    } catch (...) {
      // A throwing task must not reach std::terminate and take the
      // whole server with it. Swallow, count, log.
      failed = true;
      VELOX_LOG(WARNING) << "thread pool task threw: " << CurrentExceptionMessage();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_workers_;
      ++tasks_completed_;
      if (failed) ++task_failures_;
      if (queue_.empty() && active_workers_ == 0) idle_.notify_all();
    }
  }
}

Status ParallelFor(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn) {
  // Shared capture of the first task exception across ranges.
  std::mutex err_mu;
  Status first_error;
  auto run_range = [&](size_t begin, size_t end) {
    size_t i = begin;
    try {
      for (; i < end; ++i) fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (first_error.ok()) {
        first_error = Status::Internal("ParallelFor task threw at index " +
                                       std::to_string(i) + ": " +
                                       CurrentExceptionMessage());
      }
    }
  };

  if (pool == nullptr || pool->num_threads() <= 1 || n <= 1) {
    run_range(0, n);
    return first_error;
  }
  // Submit one contiguous range per worker instead of one closure per
  // index: small-body loops would otherwise drown in queue/mutex
  // overhead (one Submit + two lock acquisitions per index).
  size_t num_tasks = std::min(n, pool->num_threads());
  size_t base = n / num_tasks;
  size_t extra = n % num_tasks;  // first `extra` tasks take one more
  // `remaining` is decremented and `done` signalled under `mu`: the
  // caller may return (destroying all three) as soon as it observes 0,
  // so a worker must not touch them after releasing the lock.
  size_t remaining = num_tasks;
  std::mutex mu;
  std::condition_variable done;
  size_t begin = 0;
  for (size_t t = 0; t < num_tasks; ++t) {
    size_t end = begin + base + (t < extra ? 1 : 0);
    auto run_and_count = [&, begin, end] {
      run_range(begin, end);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done.notify_all();
    };
    if (!pool->Submit(run_and_count)) {
      // Pool is shutting down: run the range on the caller so the loop
      // still covers every index (and the wait below can terminate).
      run_and_count();
    }
    begin = end;
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return remaining == 0; });
  std::lock_guard<std::mutex> err_lock(err_mu);
  return first_error;
}

}  // namespace velox
