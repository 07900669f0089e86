#include "core/frontend.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"

namespace velox {

VeloxFrontend::VeloxFrontend(FrontendOptions options, VeloxServer* server)
    : options_(std::move(options)), server_(server), pool_(options_.num_threads) {
  VELOX_CHECK(server_ != nullptr);
  VELOX_CHECK_GT(options_.topk_k, 0u);
}

VeloxFrontend::~VeloxFrontend() { pool_.Shutdown(); }

Item VeloxFrontend::BuildItem(uint64_t item_id) const {
  if (options_.item_builder) return options_.item_builder(item_id);
  Item item;
  item.id = item_id;
  return item;
}

FrontendResponse VeloxFrontend::Handle(const Request& request) {
  FrontendResponse response;
  Stopwatch watch;
  switch (request.type) {
    case RequestType::kPredict: {
      if (request.items.empty()) {
        response.status = Status::InvalidArgument("predict requires an item");
        break;
      }
      auto r = server_->Predict(request.uid, BuildItem(request.items[0]));
      response.status = r.status();
      if (r.ok()) response.items.push_back(r.value());
      break;
    }
    case RequestType::kTopK: {
      std::vector<Item> candidates;
      candidates.reserve(request.items.size());
      for (uint64_t id : request.items) candidates.push_back(BuildItem(id));
      auto r = server_->TopK(request.uid, candidates, options_.topk_k);
      response.status = r.status();
      if (r.ok()) {
        response.items = r.value().items;
        response.top_is_exploratory = r.value().top_is_exploratory;
      }
      break;
    }
    case RequestType::kObserve: {
      if (request.items.empty()) {
        response.status = Status::InvalidArgument("observe requires an item");
        break;
      }
      response.status =
          server_->Observe(request.uid, BuildItem(request.items[0]), request.label);
      break;
    }
  }
  response.latency_micros = watch.ElapsedMicros();
  RecordOutcome(request.type, response);
  return response;
}

void VeloxFrontend::RecordOutcome(RequestType type,
                                  const FrontendResponse& response) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (!response.status.ok()) errors_.fetch_add(1, std::memory_order_relaxed);
  switch (type) {
    case RequestType::kPredict:
      predict_latency_.Record(response.latency_micros);
      break;
    case RequestType::kTopK:
      topk_latency_.Record(response.latency_micros);
      break;
    case RequestType::kObserve:
      observe_latency_.Record(response.latency_micros);
      break;
  }
}

std::vector<FrontendResponse> VeloxFrontend::HandleBatch(
    const std::vector<const Request*>& batch) {
  std::vector<FrontendResponse> out(batch.size());

  // Every amortization below engages only when it has something to
  // amortize across requests, so a batch of one executes exactly as
  // Handle would: same responses, counters and stage samples.
  size_t read_requests = 0;
  std::vector<size_t> observes;
  // Predict requests grouped by uid, in batch order, for PredictBatch
  // fusion below.
  std::vector<std::pair<uint64_t, std::vector<size_t>>> predict_groups;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Request& r = *batch[i];
    switch (r.type) {
      case RequestType::kPredict:
        if (!r.items.empty()) {
          ++read_requests;
          auto it = std::find_if(predict_groups.begin(), predict_groups.end(),
                                 [&](const auto& g) { return g.first == r.uid; });
          if (it == predict_groups.end()) {
            predict_groups.push_back({r.uid, {i}});
          } else {
            it->second.push_back(i);
          }
        } else {
          out[i].status = Status::InvalidArgument("predict requires an item");
          out[i].latency_micros = 0.0;
          RecordOutcome(r.type, out[i]);
        }
        break;
      case RequestType::kTopK:
        ++read_requests;
        break;
      case RequestType::kObserve:
        observes.push_back(i);
        break;
    }
  }

  // Phase 1: one coalesced feature resolve for the union of items the
  // batch's reads will touch. Purely a warm — failures degrade
  // per-request exactly as they would singleton. A lone read already
  // resolves its own items in one coalesced fetch, so it skips this.
  if (read_requests > 1) {
    std::vector<std::pair<uint64_t, Item>> reads;
    for (const Request* r : batch) {
      if (r->type == RequestType::kObserve) continue;
      for (uint64_t id : r->items) {
        reads.emplace_back(r->uid, BuildItem(id));
        if (r->type == RequestType::kPredict) break;  // predicts score items[0]
      }
    }
    server_->WarmReadFeatures(reads);
  }

  // Phase 2: reads. Same-uid predicts fuse through PredictBatch;
  // everything else runs the ordinary per-request path against the
  // warmed caches.
  for (const auto& [uid, slots] : predict_groups) {
    if (slots.size() < 2) {
      out[slots[0]] = Handle(*batch[slots[0]]);
      continue;
    }
    Stopwatch watch;
    std::vector<Item> items;
    items.reserve(slots.size());
    for (size_t slot : slots) items.push_back(BuildItem(batch[slot]->items[0]));
    auto fused = server_->PredictBatch(uid, items);
    if (!fused.ok()) {
      // Whole-batch error (e.g. one item's definitive NotFound): fall
      // back to per-request execution so one request's failure cannot
      // leak into its batchmates' responses.
      for (size_t slot : slots) out[slot] = Handle(*batch[slot]);
      continue;
    }
    const double share =
        watch.ElapsedMicros() / static_cast<double>(slots.size());
    for (size_t j = 0; j < slots.size(); ++j) {
      out[slots[j]].status = Status::OK();
      out[slots[j]].items.push_back(fused.value()[j]);
      out[slots[j]].latency_micros = share;
      RecordOutcome(RequestType::kPredict, out[slots[j]]);
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i]->type == RequestType::kTopK) out[i] = Handle(*batch[i]);
  }

  // Phase 3: writes, in batch order, inside one WAL group-commit window
  // per node — acks (the returned statuses) only after the sync.
  if (!observes.empty()) {
    Stopwatch watch;
    std::vector<VeloxServer::ObserveOp> ops;
    std::vector<size_t> op_slots;
    ops.reserve(observes.size());
    for (size_t i : observes) {
      const Request& r = *batch[i];
      if (r.items.empty()) {
        out[i].status = Status::InvalidArgument("observe requires an item");
        out[i].latency_micros = 0.0;
        RecordOutcome(r.type, out[i]);
        continue;
      }
      VeloxServer::ObserveOp op;
      op.uid = r.uid;
      op.item = BuildItem(r.items[0]);
      op.label = r.label;
      ops.push_back(std::move(op));
      op_slots.push_back(i);
    }
    std::vector<Status> statuses = server_->ObserveBatch(ops);
    const double share =
        op_slots.empty()
            ? 0.0
            : watch.ElapsedMicros() / static_cast<double>(op_slots.size());
    for (size_t j = 0; j < op_slots.size(); ++j) {
      out[op_slots[j]].status = statuses[j];
      out[op_slots[j]].latency_micros = share;
      RecordOutcome(RequestType::kObserve, out[op_slots[j]]);
    }
  }
  return out;
}

void VeloxFrontend::SubmitAsync(Request request,
                                std::function<void(FrontendResponse)> done) {
  // `done` stays copyable here (not moved into the closure) so a
  // rejected submit can still complete the callback: every SubmitAsync
  // invokes `done` exactly once, shutdown race included.
  bool accepted = pool_.Submit([this, request = std::move(request), done] {
    FrontendResponse response = Handle(request);
    if (done) done(std::move(response));
  });
  if (!accepted) {
    // Pool is shutting down: the request was not enqueued. Answer with
    // a rejection instead of crashing (old behavior) or dropping the
    // callback.
    requests_.fetch_add(1, std::memory_order_relaxed);
    errors_.fetch_add(1, std::memory_order_relaxed);
    if (done) {
      FrontendResponse response;
      response.status = Status::Unavailable("frontend is shutting down");
      done(std::move(response));
    }
  }
}

void VeloxFrontend::Drain() { pool_.WaitIdle(); }

uint64_t VeloxFrontend::requests_served() const {
  return requests_.load(std::memory_order_relaxed);
}

uint64_t VeloxFrontend::errors() const {
  return errors_.load(std::memory_order_relaxed);
}

std::string VeloxFrontend::MetricsReport(MetricsRegistry* registry) const {
  MetricsRegistry scratch;
  MetricsRegistry* target = registry != nullptr ? registry : &scratch;

  const std::pair<const char*, const Histogram*> types[] = {
      {"predict", &predict_latency_},
      {"topk", &topk_latency_},
      {"observe", &observe_latency_},
  };
  for (const auto& [name, histogram] : types) {
    HistogramSnapshot snap = histogram->Snapshot();
    if (snap.count == 0) continue;
    std::string prefix = std::string("frontend.") + name + ".";
    target->GetGauge(prefix + "count")->Set(static_cast<double>(snap.count));
    target->GetGauge(prefix + "mean_us")->Set(snap.mean);
    target->GetGauge(prefix + "p50_us")->Set(snap.p50);
    target->GetGauge(prefix + "p95_us")->Set(snap.p95);
    target->GetGauge(prefix + "p99_us")->Set(snap.p99);
  }
  target->GetGauge("frontend.requests")
      ->Set(static_cast<double>(requests_served()));
  target->GetGauge("frontend.errors")->Set(static_cast<double>(errors()));

  // The server contributes its caches/network/quality series and the
  // per-stage breakdown; one call yields the whole export.
  return server_->MetricsReport(target);
}

}  // namespace velox
