#include "server/acceptor.h"

#include <span>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace velox {

RequestAcceptor::RequestAcceptor(AcceptorOptions options, VeloxFrontend* frontend,
                                 Clock* clock)
    : options_(options),
      frontend_(frontend),
      clock_(clock != nullptr ? clock : SteadyClock::Default()),
      admission_(options_.admission, clock_),
      dispatcher_(
          options_.dispatcher,
          [frontend](const std::vector<const Request*>& batch) {
            return frontend->HandleBatch(batch);
          },
          &plane_stages_) {
  VELOX_CHECK(frontend_ != nullptr);
}

RequestAcceptor::~RequestAcceptor() { Stop(); }

void RequestAcceptor::Submit(Request request,
                             std::function<void(FrontendResponse)> done) {
  SubmitAt(std::move(request), SteadyClock::Default()->NowNanos(),
           std::move(done));
}

void RequestAcceptor::SubmitAt(Request request, int64_t arrival_nanos,
                               std::function<void(FrontendResponse)> done) {
  {
    StageTimer timer(&plane_stages_);
    StageTimer::Scope span(timer, Stage::kAdmission);
    if (!admission_.Admit(request.uid)) {
      span.Stop();
      ShedAnswer(request, arrival_nanos, done);
      return;
    }
  }

  ServerTask task;
  task.request = std::move(request);
  task.arrival_nanos = arrival_nanos;
  // `done` stays a copy (not moved into the wrapper) so the rejection
  // path below can still answer with the *unwrapped* callback — a shed
  // response must not land in the served-latency histogram.
  task.done = [this, arrival_nanos, done](FrontendResponse response) {
    response.latency_micros = static_cast<double>(SteadyClock::Default()->NowNanos() -
                                                  arrival_nanos) /
                              1e3;
    served_latency_.Record(response.latency_micros);
    if (done) done(std::move(response));
  };
  if (!dispatcher_.Submit(std::move(task))) {
    // Lane full (shed) or dispatcher stopped (reject): either way the
    // task was not consumed, so its request is still intact.
    admission_.NoteQueueFull();
    ShedAnswer(task.request, arrival_nanos, done);
    return;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
}

void RequestAcceptor::ShedAnswer(const Request& request, int64_t arrival_nanos,
                                 const std::function<void(FrontendResponse)>& done) {
  StageTimer timer(&plane_stages_);
  StageTimer::Scope span(timer, Stage::kShed);
  FrontendResponse response;
  response.shed = true;
  if (request.type == RequestType::kObserve) {
    // Acknowledged but dropped: under overload the feedback loop goes
    // lossy before the serving path goes slow. The `shed` flag tells
    // the client its update was not applied.
    response.status = Status::OK();
  } else if (request.type == RequestType::kPredict && request.items.empty()) {
    response.status = Status::InvalidArgument("predict requires an item");
  } else {
    // One ladder call for every shed read: a predict is the k=1 answer
    // for its one item.
    const bool predict = request.type == RequestType::kPredict;
    std::span<const uint64_t> items(request.items);
    auto r = frontend_->server()->DegradedTopK(
        request.uid, predict ? items.first(1) : items,
        predict ? 1 : frontend_->options().topk_k);
    response.status = r.status();
    if (r.ok()) response.items = std::move(r.value().items);
  }
  span.Stop();
  response.latency_micros =
      static_cast<double>(SteadyClock::Default()->NowNanos() - arrival_nanos) / 1e3;
  shed_latency_.Record(response.latency_micros);
  if (done) done(std::move(response));
}

void RequestAcceptor::Drain() { dispatcher_.Drain(); }

void RequestAcceptor::Stop() { dispatcher_.Stop(); }

HistogramData RequestAcceptor::StageData(Stage stage) const {
  HistogramData merged = frontend_->server()->StageData(stage);
  merged.Merge(plane_stages_.Data(stage));
  return merged;
}

std::string RequestAcceptor::StageBreakdownJson() const {
  return RenderStageBreakdownJson([this](Stage stage) { return StageData(stage); });
}

std::string RequestAcceptor::MetricsReport(MetricsRegistry* registry) const {
  MetricsRegistry scratch;
  MetricsRegistry* target = registry != nullptr ? registry : &scratch;

  target->GetGauge("server.queue_depth.read")
      ->Set(static_cast<double>(dispatcher_.read_depth()));
  target->GetGauge("server.queue_depth.write")
      ->Set(static_cast<double>(dispatcher_.write_depth()));
  target->GetGauge("server.queue_depth.read_peak")
      ->Set(static_cast<double>(dispatcher_.read_peak_depth()));
  target->GetGauge("server.queue_depth.write_peak")
      ->Set(static_cast<double>(dispatcher_.write_peak_depth()));
  target->GetGauge("server.accepted")->Set(static_cast<double>(accepted()));
  target->GetGauge("server.shed_total")->Set(static_cast<double>(shed_total()));
  target->GetGauge("server.shed_rate_limited")
      ->Set(static_cast<double>(admission_.shed_rate_limited()));
  target->GetGauge("server.shed_queue_full")
      ->Set(static_cast<double>(admission_.shed_queue_full()));

  // Cross-request batching (DESIGN.md §15): achieved batch size, how
  // often batches actually formed vs degenerated to singletons, and how
  // often the AIMD search hit the lane SLO and backed off.
  target->GetGauge("server.batch.size")->Set(dispatcher_.mean_batch_size());
  target->GetGauge("server.batch.formed")
      ->Set(static_cast<double>(dispatcher_.batches_formed()));
  target->GetGauge("server.batch.singleton")
      ->Set(static_cast<double>(dispatcher_.batch_singletons()));
  target->GetGauge("server.batch.aimd_backoffs")
      ->Set(static_cast<double>(dispatcher_.aimd_backoffs()));
  target->GetGauge("server.batch.limit.read")->Set(dispatcher_.read_batch_limit());
  target->GetGauge("server.batch.limit.write")
      ->Set(dispatcher_.write_batch_limit());

  const std::pair<const char*, const Histogram*> kinds[] = {
      {"served", &served_latency_},
      {"shed", &shed_latency_},
  };
  for (const auto& [name, histogram] : kinds) {
    HistogramSnapshot snap = histogram->Snapshot();
    if (snap.count == 0) continue;
    std::string prefix = std::string("server.") + name + ".";
    target->GetGauge(prefix + "count")->Set(static_cast<double>(snap.count));
    target->GetGauge(prefix + "mean_us")->Set(snap.mean);
    target->GetGauge(prefix + "p50_us")->Set(snap.p50);
    target->GetGauge(prefix + "p95_us")->Set(snap.p95);
    target->GetGauge(prefix + "p99_us")->Set(snap.p99);
  }

  // The frontend call chains to the server, so one call exports the
  // whole stack: plane, frontend, node pipelines, caches, storage.
  return frontend_->MetricsReport(target);
}

std::string RequestAcceptor::Report() const {
  std::ostringstream os;
  os << "server plane\n";
  os << "  admission: " << (admission_.enabled() ? "on" : "off")
     << "  accepted=" << accepted() << " shed=" << shed_total()
     << " (rate_limited=" << admission_.shed_rate_limited()
     << " queue_full=" << admission_.shed_queue_full() << ")\n";
  os << "  queues: read " << dispatcher_.read_depth() << "/"
     << (dispatcher_.options().read_queue_capacity == 0
             ? std::string("inf")
             : std::to_string(dispatcher_.options().read_queue_capacity))
     << " (peak " << dispatcher_.read_peak_depth() << "), write "
     << dispatcher_.write_depth() << "/"
     << (dispatcher_.options().write_queue_capacity == 0
             ? std::string("inf")
             : std::to_string(dispatcher_.options().write_queue_capacity))
     << " (peak " << dispatcher_.write_peak_depth() << ")\n";
  const DispatcherOptions& dopts = dispatcher_.options();
  if (dopts.batch_max > 1) {
    os << "  batching: on  max=" << dopts.batch_max
       << " delay_us=" << dopts.batch_delay_micros
       << " slo_us=" << dopts.batch_slo_micros
       << "  formed=" << dispatcher_.batches_formed()
       << " singleton=" << dispatcher_.batch_singletons()
       << " mean_size=" << dispatcher_.mean_batch_size()
       << " backoffs=" << dispatcher_.aimd_backoffs()
       << " limit read=" << dispatcher_.read_batch_limit() << " write="
       << dispatcher_.write_batch_limit() << "\n";
  } else {
    os << "  batching: off (batch_max=1)\n";
  }
  HistogramSnapshot served = served_latency_.Snapshot();
  if (served.count > 0) {
    os << "  served: " << served.ToString() << "\n";
  }
  HistogramSnapshot shed = shed_latency_.Snapshot();
  if (shed.count > 0) {
    os << "  shed:   " << shed.ToString() << "\n";
  }
  for (Stage stage : {Stage::kAdmission, Stage::kQueueWait, Stage::kShed,
                      Stage::kBatchForm, Stage::kBatchExecute}) {
    HistogramSnapshot snap = plane_stages_.Snapshot(stage);
    if (snap.count == 0) continue;
    os << "  stage " << StageName(stage) << " " << snap.ToString() << "\n";
  }
  return os.str();
}

}  // namespace velox
