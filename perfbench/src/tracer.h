// Span recorder for the traced pass. Spans are opened and closed from the
// benchmark's own code around each call into a simulator layer (never from
// inside the program), on one thread. Each span records its name, start,
// end and parent; the spans stay in memory and are written when the run
// ends.
//
// Self time is a span's duration minus the time its direct children cover.
// Per-IO spans (device submit, completion) would number in the millions, so
// they are folded into the per-name totals instead of being kept one by one;
// their time still counts against their parent's self time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kCell,         // one campaign cell
  kDrive,        // iogen::drive / run_jobs style advance of one simulator
  kEngineStart,  // IoEngine::start (initial fill of the queue)
  kSsdSubmit,    // BlockDevice::submit through the forwarding wrapper (per IO)
  kCompletion,   // the engine's completion callback (per IO)
  kCalibrate,    // planner option calibration cells
  kAddDevice,    // FleetHost::add_device
  kPlan,         // FleetAdapter::set_power_budget
  kRunJobs,      // FleetHost::run_jobs
  kRunUntil,     // ShardedTestbed::run_until
  kAdvance,      // FleetHost::advance
  kRigStart,     // start_rigs / MeasurementRig::start
  kRigStop,      // stop_rigs / MeasurementRig::stop
  kTakeTrace,    // take_fleet_trace
  kAnalyze,      // PowerTrace::analyze / max_window_average
  kCount
};

const char* span_name(SpanKind kind);

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    SpanKind kind;
    double start_s;  // since the tracer was created
    double end_s;
    std::int32_t parent;  // index into spans(), -1 at the top
  };
  struct Total {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void begin(SpanKind kind);
  void end();

  const Total& total(SpanKind kind) const { return totals_[static_cast<std::size_t>(kind)]; }
  const std::vector<Span>& spans() const { return spans_; }

  // {"spans": [...], "totals": {...}} as JSON text.
  std::string to_json() const;

 private:
  struct Open {
    SpanKind kind;
    Clock::time_point start;
    double child_s;
    std::int32_t kept;  // index into spans_, -1 for folded per-IO spans
  };

  Clock::time_point origin_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::array<Total, static_cast<std::size_t>(SpanKind::kCount)> totals_{};
};

// Opens a span for the scope's lifetime; does nothing when `tracer` is null,
// so the untraced pass runs the same code with no clock reads.
class Scope {
 public:
  Scope(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(kind);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
