// RequestDispatcher: the queued middle of the server plane. Admitted
// requests land in one of two bounded lanes — reads (predict/topK) and
// writes (observe) — and long-running workers on a dedicated ThreadPool
// pop, time the queue residency (Stage::kQueueWait), run the handler,
// and complete the callback.
//
// Two lanes because the paper's read and write paths have different
// cost and different overload behavior: a burst of observes (online
// solves + WAL appends) must not queue ahead of cheap cache-hit
// predicts. Each lane's depth is capped; a full lane refuses the push
// and the acceptor sheds — queueing delay is bounded by construction,
// not by hope.
//
// Every pop executes through the one batch handler (Clipper-style: a
// lone request is a batch of one). Cross-request batching (adaptive
// dynamic batching, DESIGN.md §15): with batch_max > 1 a worker drains
// up to its lane's current batch limit in one pop (lingering at most
// batch_delay_micros past the first task for stragglers — a lone
// request is never held hostage), and the handler amortizes
// per-request cost across the batch: one coalesced feature MultiGet
// per batch on the read lane, one WAL group commit per batch on the
// write lane. The limit adapts per lane by AIMD search against
// batch_slo_micros: additive growth (+1) while a batch's execute
// latency stays under the SLO, multiplicative backoff (×1/2) on a
// violation. Responses stay bit-identical to singleton execution and
// every task's `done` still fires exactly once.
#ifndef VELOX_SERVER_DISPATCHER_H_
#define VELOX_SERVER_DISPATCHER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stage_trace.h"
#include "common/thread_pool.h"
#include "core/frontend.h"
#include "server/bounded_queue.h"

namespace velox {

// One admitted request in flight through the plane.
struct ServerTask {
  Request request;
  std::function<void(FrontendResponse)> done;
  // When the request logically arrived (open-loop schedule time; the
  // coordinated-omission-correct latency origin).
  int64_t arrival_nanos = 0;
  // When it entered the dispatch queue; queue_wait = pop - enqueue.
  // Stamped by Submit only when the push succeeds.
  int64_t enqueue_nanos = 0;
};

struct DispatcherOptions {
  // Lane depths; 0 = unbounded (the no-admission baseline).
  size_t read_queue_capacity = 256;
  size_t write_queue_capacity = 256;
  size_t read_workers = 4;
  size_t write_workers = 2;
  // ---- cross-request batching ----
  // Most tasks a worker may drain from its lane in one pop. 1 (the
  // default) = singleton dispatch, batching off.
  size_t batch_max = 1;
  // After the first task of a batch is in hand, wait at most this long
  // for stragglers before executing a partial batch. 0 = take only
  // what is already queued.
  int64_t batch_delay_micros = 0;
  // Per-lane latency SLO for the AIMD batch-size search: a batch whose
  // execute latency exceeds this halves the lane's batch limit
  // (floored at 1); one under it grows the limit by 1 (capped at
  // batch_max). 0 = no adaptation, the limit is pinned at batch_max.
  int64_t batch_slo_micros = 0;
};

class RequestDispatcher {
 public:
  // Executes a popped batch (one or more requests), returning one
  // response per request in input order (VeloxFrontend::HandleBatch).
  using BatchHandler =
      std::function<std::vector<FrontendResponse>(const std::vector<const Request*>&)>;

  // `stages` (borrowed, may be null) receives per-request kQueueWait
  // samples plus per-batch kBatchForm / kBatchExecute samples. Workers
  // start immediately.
  RequestDispatcher(DispatcherOptions options, BatchHandler handler,
                    StageRegistry* stages);
  ~RequestDispatcher();

  RequestDispatcher(const RequestDispatcher&) = delete;
  RequestDispatcher& operator=(const RequestDispatcher&) = delete;

  // Routes by request type into the matching lane. False = lane full or
  // dispatcher stopped; `task` is left intact (and unstamped) so the
  // caller can still answer it (shed path).
  [[nodiscard]] bool Submit(ServerTask&& task);

  // Blocks until both lanes are empty and no popped task is still
  // executing. Callers stop offering load first.
  void Drain();

  // Closes both lanes, lets workers finish the backlog, joins them.
  // Idempotent; Submit returns false afterwards.
  void Stop();

  size_t read_depth() const { return read_lane_.queue.depth(); }
  size_t write_depth() const { return write_lane_.queue.depth(); }
  size_t read_peak_depth() const { return read_lane_.queue.peak_depth(); }
  size_t write_peak_depth() const { return write_lane_.queue.peak_depth(); }
  uint64_t dispatched() const {
    return dispatched_.load(std::memory_order_relaxed);
  }

  // ---- batching observability (the server.batch.* metric source) ----
  // Worker pops that executed >= 2 tasks as one batch.
  uint64_t batches_formed() const {
    return read_lane_.batches_formed.load(std::memory_order_relaxed) +
           write_lane_.batches_formed.load(std::memory_order_relaxed);
  }
  // Worker pops that executed exactly 1 task.
  uint64_t batch_singletons() const {
    return read_lane_.singletons.load(std::memory_order_relaxed) +
           write_lane_.singletons.load(std::memory_order_relaxed);
  }
  // AIMD multiplicative backoffs (SLO violations), both lanes.
  uint64_t aimd_backoffs() const {
    return read_lane_.aimd_backoffs.load(std::memory_order_relaxed) +
           write_lane_.aimd_backoffs.load(std::memory_order_relaxed);
  }
  // Mean tasks per worker pop (1.0 under singleton dispatch).
  double mean_batch_size() const {
    const uint64_t pops = batches_formed() + batch_singletons();
    return pops == 0 ? 0.0
                     : static_cast<double>(dispatched()) /
                           static_cast<double>(pops);
  }
  // A lane's current AIMD batch limit (batch_max when adaptation off).
  double read_batch_limit() const { return CurrentBatchLimit(read_lane_); }
  double write_batch_limit() const { return CurrentBatchLimit(write_lane_); }

  const DispatcherOptions& options() const { return options_; }

 private:
  struct Lane {
    explicit Lane(size_t capacity) : queue(capacity) {}
    BoundedQueue<ServerTask> queue;
    // AIMD state: the allowed batch size, a double in [1, batch_max] so
    // additive growth survives rounding. Plain load/store (advisory —
    // a lost update costs one adaptation step, never correctness).
    std::atomic<double> aimd_limit{1.0};
    std::atomic<uint64_t> batches_formed{0};
    std::atomic<uint64_t> singletons{0};
    std::atomic<uint64_t> aimd_backoffs{0};
  };

  void WorkerLoop(Lane* lane);
  // Executes `batch` (non-empty), answers every task exactly once,
  // updates the lane's AIMD state and counters, MarkDone per task.
  // `requests` is the worker's reused scratch for the handler's input.
  void ExecuteBatch(Lane* lane, std::vector<ServerTask>* batch,
                    std::vector<const Request*>* requests);
  double CurrentBatchLimit(const Lane& lane) const;

  DispatcherOptions options_;
  BatchHandler handler_;
  StageRegistry* stages_;
  Lane read_lane_;
  Lane write_lane_;
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<bool> stopped_{false};
  // Declared last: workers touch every member above, so the pool must
  // die first.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace velox

#endif  // VELOX_SERVER_DISPATCHER_H_
