#include "phase.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace velox_e2e {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string CheckAnswer(const Plan& plan, size_t i,
                        const velox::FrontendResponse& response) {
  // A non-OK answer is counted as failed, not checked.
  if (!response.status.ok()) return "";
  for (const velox::ScoredItem& item : response.items) {
    if (!std::isfinite(item.score) || !std::isfinite(item.uncertainty)) {
      return "non-finite score";
    }
  }
  const Planned& p = plan.requests[i];
  const uint64_t* first = plan.items.data() + p.first;
  const uint64_t* last = first + p.count;
  switch (p.type) {
    case velox::RequestType::kPredict:
      if (response.items.size() != 1 || response.items[0].item_id != *first) {
        return "predict answer does not name the requested item";
      }
      return "";
    case velox::RequestType::kObserve:
      if (!response.items.empty()) return "observe answered with items";
      return "";
    case velox::RequestType::kTopK:
      break;
  }
  const std::vector<velox::ScoredItem>& items = response.items;
  if (items.size() != std::min<size_t>(kTopK, p.count)) {
    return "topK answer has " + std::to_string(items.size()) + " items";
  }
  for (size_t j = 0; j < items.size(); ++j) {
    // Candidates are sorted, so membership is a binary search.
    if (!std::binary_search(first, last, items[j].item_id)) {
      return "topK item outside the candidate set";
    }
    for (size_t m = 0; m < j; ++m) {
      if (items[m].item_id == items[j].item_id) return "duplicate topK item";
    }
    if (j == 0) continue;
    // Served answers rank by LinUCB (score + alpha * uncertainty; shed
    // and degraded entries carry zero uncertainty), ties in candidate
    // order, which is ascending id.
    const double prev = items[j - 1].score + kAlpha * items[j - 1].uncertainty;
    const double cur = items[j].score + kAlpha * items[j].uncertainty;
    if (prev < cur || (prev == cur && items[j - 1].item_id > items[j].item_id)) {
      return "topK answer out of order";
    }
  }
  return "";
}

CpuPartition::CpuPartition() {
  cpu_set_t allowed{};
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (CPU_COUNT(&sender_) == 0) {
      CPU_SET(cpu, &sender_);
    } else {
      CPU_SET(cpu, &server_);
    }
  }
  enabled_ = CPU_COUNT(&server_) > 0;
}

void CpuPartition::PinToSender() const {
  if (enabled_) sched_setaffinity(0, sizeof(sender_), &sender_);
}

void CpuPartition::PinToServer() const {
  if (enabled_) sched_setaffinity(0, sizeof(server_), &server_);
}

const CpuPartition& Cpus() {
  static const CpuPartition partition;
  return partition;
}

namespace {

// The sender sleeps until this long before a request is due, then spins.
constexpr int64_t kSpinNanos = 100'000;

// Completion state shared with the callbacks; outlives the acceptor.
struct Completion {
  const Plan* plan = nullptr;
  Slot* slots = nullptr;
  std::atomic<uint64_t> violations{0};
  std::mutex mu;
  std::string first_violation;

  void Done(size_t i, const velox::FrontendResponse& response) {
    Slot& slot = slots[i];
    slot.done_nanos = NowNanos();
    slot.ok = response.status.ok();
    slot.shed = response.shed;
    std::string problem;
    if (slot.callbacks.fetch_add(1, std::memory_order_relaxed) != 0) {
      problem = "request answered twice";
    } else {
      problem = CheckAnswer(*plan, i, response);
    }
    if (problem.empty()) return;
    violations.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    if (first_violation.empty()) {
      first_violation = "request " + std::to_string(i) + ": " + problem;
    }
  }
};

PlaneStats ReadPlane(velox::RequestAcceptor& acceptor) {
  PlaneStats s;
  velox::StageRegistry* stages = acceptor.plane_stages();
  s.queue_wait = stages->Data(velox::Stage::kQueueWait);
  s.admission = stages->Data(velox::Stage::kAdmission);
  s.shed = stages->Data(velox::Stage::kShed);
  s.batch_execute = stages->Data(velox::Stage::kBatchExecute);
  velox::RequestDispatcher* d = acceptor.dispatcher();
  s.mean_batch_size = d->mean_batch_size();
  s.aimd_backoffs = d->aimd_backoffs();
  s.read_peak_depth = d->read_peak_depth();
  s.write_peak_depth = d->write_peak_depth();
  s.shed_queue_full = acceptor.admission()->shed_queue_full();
  s.shed_rate_limited = acceptor.admission()->shed_rate_limited();
  return s;
}

}  // namespace

PhaseResult RunPhase(const std::string& name, velox::VeloxFrontend* frontend,
                     const velox::AcceptorOptions& options, const Plan& plan,
                     double seconds, bool traced,
                     const std::function<void(int64_t)>& on_start) {
  PhaseResult result;
  result.name = name;
  result.plan = &plan;
  result.seconds = seconds;
  result.traced = traced;
  const size_t n = plan.requests.size();
  result.slots = std::make_unique<Slot[]>(n);

  Completion completion;
  completion.plan = &plan;
  completion.slots = result.slots.get();
  {
    // Workers (and any thread on_start spawns) inherit the server CPUs.
    Cpus().PinToServer();
    velox::RequestAcceptor acceptor(options, frontend);
    // Give the workers a moment to park before the clock starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const int64_t start = NowNanos() + 1'000'000;
    result.start_nanos = start;
    if (on_start) on_start(start);
    Cpus().PinToSender();
    Slot* slots = result.slots.get();
    for (size_t i = 0; i < n; ++i) {
      velox::Request request = plan.ToRequest(i);
      const int64_t arrival = start + plan.requests[i].offset_nanos;
      // Open loop: wait when ahead of schedule, submit at once when
      // behind; latency counts from `arrival` either way. The wait
      // sleeps until shortly before the deadline and spins the rest, so
      // wakeup jitter does not become sender lag.
      int64_t now = NowNanos();
      if (arrival - now > kSpinNanos) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(arrival - now - kSpinNanos));
      }
      while ((now = NowNanos()) < arrival) {
      }
      slots[i].submit_nanos = now;
      acceptor.SubmitAt(std::move(request), arrival,
                        [&completion, i](velox::FrontendResponse response) {
                          completion.Done(i, response);
                        });
      if (traced) slots[i].submit_end_nanos = NowNanos();
    }
    acceptor.Drain();
    result.end_nanos = NowNanos();
    Cpus().PinToServer();
    result.plane = ReadPlane(acceptor);
  }
  // Answers given twice were caught in Done; here, answers never given.
  for (size_t i = 0; i < n; ++i) {
    if (result.slots[i].callbacks.load(std::memory_order_relaxed) != 0) continue;
    completion.violations.fetch_add(1, std::memory_order_relaxed);
    if (completion.first_violation.empty()) {
      completion.first_violation = "request " + std::to_string(i) + " got no callback";
    }
  }
  result.violations = completion.violations.load();
  result.first_violation = completion.first_violation;
  return result;
}

}  // namespace velox_e2e
