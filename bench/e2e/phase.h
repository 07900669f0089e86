// One open-loop phase: a single sender thread submits a Plan through a
// fresh RequestAcceptor at each request's scheduled arrival, and every
// completion callback stamps the request's preallocated slot on the
// benchmark's own clock and checks the answer.
#ifndef VELOX_BENCH_E2E_PHASE_H_
#define VELOX_BENCH_E2E_PHASE_H_

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/frontend.h"
#include "server/acceptor.h"
#include "workloads.h"

namespace velox_e2e {

int64_t NowNanos();

// The load generator gets the first CPU this process may use, the
// server's threads the rest, as if the clients ran on another machine:
// the sender's pacing then never waits behind a server thread, and the
// server never loses a core to the sender. With a single CPU both run
// unpinned.
class CpuPartition {
 public:
  CpuPartition();
  // Pins the calling thread; threads it creates later inherit the set.
  void PinToSender() const;
  void PinToServer() const;

 private:
  bool enabled_ = false;
  cpu_set_t sender_{};
  cpu_set_t server_{};
};

const CpuPartition& Cpus();

struct Slot {
  int64_t submit_nanos = 0;      // sender entered SubmitAt
  int64_t submit_end_nanos = 0;  // SubmitAt returned (traced phases only)
  int64_t done_nanos = 0;        // completion callback ran
  std::atomic<uint32_t> callbacks{0};
  bool ok = false;
  bool shed = false;
};

// What the acceptor reports about the phase, read before it is torn down.
struct PlaneStats {
  velox::HistogramData queue_wait;
  velox::HistogramData admission;
  velox::HistogramData shed;
  velox::HistogramData batch_execute;
  double mean_batch_size = 0.0;
  uint64_t aimd_backoffs = 0;
  uint64_t read_peak_depth = 0;
  uint64_t write_peak_depth = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_rate_limited = 0;
};

struct PhaseResult {
  std::string name;
  const Plan* plan = nullptr;
  double seconds = 0.0;
  bool traced = false;
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;  // last callback drained
  std::unique_ptr<Slot[]> slots;
  PlaneStats plane;
  uint64_t violations = 0;
  std::string first_violation;

  size_t size() const { return plan->requests.size(); }
  int64_t arrival(size_t i) const {
    return start_nanos + plan->requests[i].offset_nanos;
  }
  // Completion minus scheduled arrival.
  double latency_ms(size_t i) const {
    return static_cast<double>(slots[i].done_nanos - arrival(i)) / 1e6;
  }
  bool served(size_t i) const { return slots[i].ok && !slots[i].shed; }
};

// Runs `plan` to completion. `on_start(start_nanos)` runs on the calling
// thread just before the first request is due (lifecycle operators hook
// in there).
PhaseResult RunPhase(const std::string& name, velox::VeloxFrontend* frontend,
                     const velox::AcceptorOptions& options, const Plan& plan,
                     double seconds, bool traced,
                     const std::function<void(int64_t)>& on_start = nullptr);

// Empty when `response` is a valid answer to request `i` of `plan`.
std::string CheckAnswer(const Plan& plan, size_t i,
                        const velox::FrontendResponse& response);

}  // namespace velox_e2e

#endif  // VELOX_BENCH_E2E_PHASE_H_
