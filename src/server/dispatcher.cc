#include "server/dispatcher.h"

#include <algorithm>
#include <string>

#include "common/clock.h"
#include "common/logging.h"

namespace velox {

RequestDispatcher::RequestDispatcher(DispatcherOptions options,
                                     BatchHandler handler, StageRegistry* stages)
    : options_(options),
      handler_(std::move(handler)),
      stages_(stages),
      read_lane_(options_.read_queue_capacity),
      write_lane_(options_.write_queue_capacity) {
  VELOX_CHECK(handler_ != nullptr);
  VELOX_CHECK_GT(options_.read_workers, 0u);
  VELOX_CHECK_GT(options_.write_workers, 0u);
  if (options_.batch_max == 0) options_.batch_max = 1;
  pool_ = std::make_unique<ThreadPool>(options_.read_workers +
                                       options_.write_workers);
  // Long-running worker loops, one per pool thread: each parks on its
  // lane's queue until Stop() closes it. The pool is private and sized
  // exactly, so no loop ever waits behind another's submission.
  for (size_t i = 0; i < options_.read_workers; ++i) {
    bool ok = pool_->Submit([this] { WorkerLoop(&read_lane_); });
    VELOX_CHECK(ok);
  }
  for (size_t i = 0; i < options_.write_workers; ++i) {
    bool ok = pool_->Submit([this] { WorkerLoop(&write_lane_); });
    VELOX_CHECK(ok);
  }
}

RequestDispatcher::~RequestDispatcher() { Stop(); }

bool RequestDispatcher::Submit(ServerTask&& task) {
  if (stopped_.load(std::memory_order_acquire)) return false;
  Lane* lane =
      task.request.type == RequestType::kObserve ? &write_lane_ : &read_lane_;
  task.enqueue_nanos = SteadyClock::Default()->NowNanos();
  if (lane->queue.TryPush(std::move(task))) return true;
  // Refused: the rvalue reference bound without moving, so the task is
  // intact for the caller's shed path — un-stamp it so a later retry's
  // queue_wait is measured from its own push, not this failed one.
  task.enqueue_nanos = 0;
  return false;
}

double RequestDispatcher::CurrentBatchLimit(const Lane& lane) const {
  if (options_.batch_max <= 1) return 1.0;
  if (options_.batch_slo_micros <= 0) {
    return static_cast<double>(options_.batch_max);
  }
  return lane.aimd_limit.load(std::memory_order_relaxed);
}

void RequestDispatcher::WorkerLoop(Lane* lane) {
  std::vector<ServerTask> batch;
  std::vector<const Request*> requests;
  ServerTask first;
  while (lane->queue.Pop(&first)) {
    batch.clear();
    batch.push_back(std::move(first));
    first = ServerTask();
    const size_t limit = static_cast<size_t>(std::max(
        1.0, std::min(static_cast<double>(options_.batch_max),
                      CurrentBatchLimit(*lane) + 0.5)));
    if (limit > 1) {
      // Batch formation: drain what is queued and linger briefly for
      // stragglers. Charged to kBatchForm (idle waiting for the first
      // task is not — that is the worker parking, not batching cost).
      StageTimer timer(stages_);
      StageTimer::Scope span(timer, Stage::kBatchForm);
      lane->queue.PopManyFor(&batch, limit - 1,
                             options_.batch_delay_micros * 1000);
    }
    ExecuteBatch(lane, &batch, &requests);
  }
}

void RequestDispatcher::ExecuteBatch(Lane* lane, std::vector<ServerTask>* batch,
                                     std::vector<const Request*>* requests) {
  const size_t n = batch->size();
  if (stages_ != nullptr) {
    // Queue residency, charged per request like every other stage.
    const int64_t now = SteadyClock::Default()->NowNanos();
    for (const ServerTask& task : *batch) {
      stages_->Record(Stage::kQueueWait,
                      static_cast<double>(now - task.enqueue_nanos) / 1e3);
    }
  }

  const bool adapt = options_.batch_max > 1 && options_.batch_slo_micros > 0;
  const int64_t exec_start =
      (adapt || stages_ != nullptr) ? SteadyClock::Default()->NowNanos() : 0;

  // A throwing handler must not unwind into the pool: that would end
  // this (long-running) loop task and strand popped requests without a
  // MarkDone, hanging Drain(). It may also have partially applied
  // writes, so the batch is NOT re-run per task — every request is
  // answered with an Internal status instead.
  requests->clear();
  for (const ServerTask& task : *batch) requests->push_back(&task.request);
  std::vector<FrontendResponse> responses;
  std::string error;
  try {
    responses = handler_(*requests);
    if (responses.size() != n) {
      error = "batch handler returned a mismatched response count";
      responses.clear();
    }
  } catch (const std::exception& e) {
    VELOX_LOG(WARNING) << "server batch threw: " << e.what();
    error = e.what();
    responses.clear();
  } catch (...) {
    VELOX_LOG(WARNING) << "server batch threw a non-exception";
    error = "server batch threw a non-exception";
    responses.clear();
  }
  if (responses.empty()) {
    responses.resize(n);
    for (FrontendResponse& r : responses) r.status = Status::Internal(error);
  }

  double exec_micros = 0.0;
  if (exec_start != 0) {
    exec_micros =
        static_cast<double>(SteadyClock::Default()->NowNanos() - exec_start) /
        1e3;
    if (stages_ != nullptr) stages_->Record(Stage::kBatchExecute, exec_micros);
  }

  // AIMD search (Clipper §4.3-style): grow additively while execution
  // meets the lane SLO, back off multiplicatively on a violation. Plain
  // load/store — concurrent workers may lose an adaptation step, never
  // correctness.
  if (adapt) {
    double limit = lane->aimd_limit.load(std::memory_order_relaxed);
    if (exec_micros > static_cast<double>(options_.batch_slo_micros)) {
      limit = std::max(1.0, limit * 0.5);
      lane->aimd_backoffs.fetch_add(1, std::memory_order_relaxed);
    } else {
      limit = std::min(static_cast<double>(options_.batch_max), limit + 1.0);
    }
    lane->aimd_limit.store(limit, std::memory_order_relaxed);
  }
  if (n > 1) {
    lane->batches_formed.fetch_add(1, std::memory_order_relaxed);
  } else {
    lane->singletons.fetch_add(1, std::memory_order_relaxed);
  }
  dispatched_.fetch_add(n, std::memory_order_relaxed);

  for (size_t i = 0; i < n; ++i) {
    ServerTask& task = (*batch)[i];
    if (task.done) {
      try {
        task.done(std::move(responses[i]));
      } catch (const std::exception& e) {
        VELOX_LOG(WARNING) << "server task callback threw: " << e.what();
      } catch (...) {
        VELOX_LOG(WARNING) << "server task callback threw a non-exception";
      }
    }
    // Release the task's closures before the queue stops counting it as
    // in flight, then mark done (WaitDrained must not return while the
    // callback is still running).
    task = ServerTask();
    lane->queue.MarkDone();
  }
  batch->clear();
}

void RequestDispatcher::Drain() {
  read_lane_.queue.WaitDrained();
  write_lane_.queue.WaitDrained();
}

void RequestDispatcher::Stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    // A prior Stop already closed the lanes and joined the pool.
    return;
  }
  read_lane_.queue.Close();
  write_lane_.queue.Close();
  pool_->Shutdown();
}

}  // namespace velox
