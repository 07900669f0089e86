// RequestAcceptor — the server plane's public face. Composes the whole
// admitted-request pipeline in front of a VeloxFrontend:
//
//   SubmitAt ──► AdmissionController (per-tenant token buckets)
//                  │ admitted                       │ shed
//                  ▼                                ▼
//              RequestDispatcher              degraded fast path
//              (bounded read/write lanes,     (VeloxServer::Degraded*,
//               worker pools, kQueueWait)      the PR-3 ladder: stale
//                  │                           score → bootstrap mean,
//                  ▼                           flagged shed/degraded)
//              VeloxFrontend::HandleBatch
//              (a lone request is a batch of one)
//
// Every submitted request is answered exactly once — admitted, shed, or
// rejected at teardown — so availability is 100% by construction; what
// overload costs is answer *quality* (degraded scores, dropped observe
// updates), never an unbounded queue. Latency of served requests stays
// bounded past saturation because excess arrivals shed in O(1) instead
// of queueing; the serving_load bench plots exactly this against the
// unbounded baseline.
#ifndef VELOX_SERVER_ACCEPTOR_H_
#define VELOX_SERVER_ACCEPTOR_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/stage_trace.h"
#include "core/frontend.h"
#include "server/admission.h"
#include "server/dispatcher.h"

namespace velox {

struct AcceptorOptions {
  AdmissionOptions admission;
  DispatcherOptions dispatcher;
};

class RequestAcceptor {
 public:
  // `frontend` is borrowed and must outlive the acceptor. `clock`
  // (borrowed, may be null = steady clock) feeds the token buckets.
  RequestAcceptor(AcceptorOptions options, VeloxFrontend* frontend,
                  Clock* clock = nullptr);
  ~RequestAcceptor();

  RequestAcceptor(const RequestAcceptor&) = delete;
  RequestAcceptor& operator=(const RequestAcceptor&) = delete;

  // Submits with arrival = now.
  void Submit(Request request, std::function<void(FrontendResponse)> done);

  // Open-loop submission: `arrival_nanos` is the request's *scheduled*
  // arrival on the load generator's timeline, so end-to-end latency
  // measured from it includes any sender-side stall (the
  // coordinated-omission correction; EXPERIMENTS.md A13). `done` runs
  // on a worker thread (admitted) or inline (shed / teardown) — exactly
  // once either way.
  void SubmitAt(Request request, int64_t arrival_nanos,
                std::function<void(FrontendResponse)> done);

  // Waits until every admitted request has completed. Stop offering
  // load first.
  void Drain();
  // Closes the lanes and joins the workers. Submissions afterwards are
  // still answered — inline, off the degraded fast path — so the
  // exactly-once callback guarantee survives teardown. Idempotent.
  void Stop();

  AdmissionController* admission() { return &admission_; }
  RequestDispatcher* dispatcher() { return &dispatcher_; }
  StageRegistry* plane_stages() { return &plane_stages_; }

  uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  uint64_t shed_total() const { return admission_.shed_total(); }

  // Cluster view of one stage: the wrapped server's per-node registries
  // merged with the plane's own (queue_wait / admission / shed).
  HistogramData StageData(Stage stage) const;
  // JSON breakdown over the merged view — the bench's `stage_breakdown`
  // section, now including the plane stages.
  std::string StageBreakdownJson() const;

  // Publishes server.* gauges (queue depths and peaks, accepted/shed
  // counters, served-latency percentiles) plus the frontend's and
  // server's full metric sets into `registry` (nullptr = scratch) and
  // returns the textual report.
  std::string MetricsReport(MetricsRegistry* registry = nullptr) const;

  // Human-readable plane summary (the shell's `server` command).
  std::string Report() const;

 private:
  // Answers a shed request off the degradation ladder, inline on the
  // submitting thread — O(1), no storage I/O, no queueing.
  void ShedAnswer(const Request& request, int64_t arrival_nanos,
                  const std::function<void(FrontendResponse)>& done);

  AcceptorOptions options_;
  VeloxFrontend* frontend_;
  Clock* clock_;
  AdmissionController admission_;
  // The plane's own stage sink (queue_wait, admission, shed); node
  // registries keep the per-request pipeline stages.
  StageRegistry plane_stages_;
  RequestDispatcher dispatcher_;
  std::atomic<uint64_t> accepted_{0};
  // End-to-end latency of *served* (admitted) requests, micros from
  // arrival; shed answers land in shed_latency_.
  Histogram served_latency_;
  Histogram shed_latency_;
};

}  // namespace velox

#endif  // VELOX_SERVER_ACCEPTOR_H_
