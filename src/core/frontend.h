// VeloxFrontend — the request-facing layer standing in for the
// prototype's RESTful interface (§8): a thread pool executing Listing 1
// requests against a VeloxServer, with per-request-type latency
// histograms. Examples and closed-loop benchmarks drive the system
// through this class.
#ifndef VELOX_CORE_FRONTEND_H_
#define VELOX_CORE_FRONTEND_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/thread_pool.h"
#include "core/velox_server.h"
#include "data/workload.h"

namespace velox {

struct FrontendResponse {
  Status status;
  // Scored results: one entry for predict, up to k for topK, empty for
  // observe.
  std::vector<ScoredItem> items;
  // Whether a topK response's head pick was exploratory (echoed back on
  // the matching observe to feed the validation pool).
  bool top_is_exploratory = false;
  // True when the server plane answered this request off the degraded
  // fast path instead of the full pipeline (admission shed). Scores, if
  // any, are degradation-ladder answers; an observe's update was
  // dropped. Items additionally carry per-item `degraded` flags.
  bool shed = false;
  double latency_micros = 0.0;
};

struct FrontendOptions {
  size_t num_threads = 4;
  // k returned by topK requests.
  size_t topk_k = 10;
  // Builds Item.attributes for computational models; default leaves
  // attributes empty (materialized models ignore them).
  std::function<Item(uint64_t item_id)> item_builder;
};

class VeloxFrontend {
 public:
  VeloxFrontend(FrontendOptions options, VeloxServer* server);
  ~VeloxFrontend();

  // Executes one request synchronously on the calling thread.
  FrontendResponse Handle(const Request& request);

  // Executes a batch popped by the server plane's dispatcher (one or
  // more requests) in one call, returning one response per request in
  // input order. Responses are bit-identical (status / items / flags)
  // to calling Handle per request; the amortization is invisible to
  // clients, and each step engages only across two or more requests,
  // so a batch of one is exactly Handle:
  //   * the union of items every read touches pre-resolves through one
  //     coalesced batch fetch per node (VeloxServer::WarmReadFeatures),
  //   * predicts from the same uid fuse into one PredictBatch call
  //     (falls back to per-request Handle on a whole-batch error so
  //     per-request error isolation survives fusion),
  //   * observes apply in order inside one WAL group-commit window per
  //     node (VeloxServer::ObserveBatch) — one sync per batch, acks
  //     only after it.
  // Fused requests record their amortized latency share; all counters
  // advance exactly as in singleton execution.
  std::vector<FrontendResponse> HandleBatch(
      const std::vector<const Request*>& batch);

  // Enqueues a request on the pool; `done` runs on a worker thread.
  void SubmitAsync(Request request, std::function<void(FrontendResponse)> done);

  // Blocks until all queued requests finish.
  void Drain();

  HistogramSnapshot PredictLatency() const { return predict_latency_.Snapshot(); }
  HistogramSnapshot TopKLatency() const { return topk_latency_.Snapshot(); }
  HistogramSnapshot ObserveLatency() const { return observe_latency_.Snapshot(); }
  uint64_t requests_served() const;
  uint64_t errors() const;

  // Publishes the frontend's per-request-type latency percentiles
  // (under "frontend.<type>.*") plus the server's full metric set —
  // including the per-stage latency breakdown — into `registry`
  // (nullptr = private scratch) and returns the textual report.
  std::string MetricsReport(MetricsRegistry* registry = nullptr) const;

  // The wrapped server and the options in force — the server plane's
  // acceptor answers shed requests through these (degraded fast path,
  // same k as the real topK handler).
  VeloxServer* server() const { return server_; }
  const FrontendOptions& options() const { return options_; }

 private:
  Item BuildItem(uint64_t item_id) const;

  // Request accounting shared by Handle and the fused batch paths:
  // bumps requests_/errors_ and records `latency_micros` (already set
  // on the response) into the type's latency histogram.
  void RecordOutcome(RequestType type, const FrontendResponse& response);

  FrontendOptions options_;
  VeloxServer* server_;
  ThreadPool pool_;
  Histogram predict_latency_;
  Histogram topk_latency_;
  Histogram observe_latency_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
};

}  // namespace velox

#endif  // VELOX_CORE_FRONTEND_H_
