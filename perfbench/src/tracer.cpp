#include "tracer.h"

#include <cstdio>

#include "common/check.h"

namespace perfbench {
namespace {

bool folded(SpanKind kind) {
  return kind == SpanKind::kSsdSubmit || kind == SpanKind::kCompletion;
}

double seconds_between(Tracer::Clock::time_point a, Tracer::Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCell: return "campaign.cell";
    case SpanKind::kDrive: return "iogen.drive";
    case SpanKind::kEngineStart: return "iogen.start";
    case SpanKind::kSsdSubmit: return "ssd.submit";
    case SpanKind::kCompletion: return "iogen.completion";
    case SpanKind::kCalibrate: return "core.calibrate";
    case SpanKind::kAddDevice: return "core.add_device";
    case SpanKind::kPlan: return "model.plan";
    case SpanKind::kRunJobs: return "core.run_jobs";
    case SpanKind::kRunUntil: return "core.run_until";
    case SpanKind::kAdvance: return "core.advance";
    case SpanKind::kRigStart: return "power.start";
    case SpanKind::kRigStop: return "power.stop";
    case SpanKind::kTakeTrace: return "power.take_fleet_trace";
    case SpanKind::kAnalyze: return "power.analyze";
    case SpanKind::kCount: break;
  }
  return "?";
}

Tracer::Tracer() : origin_(Clock::now()) {}

void Tracer::begin(SpanKind kind) {
  std::int32_t kept = -1;
  if (!folded(kind)) {
    std::int32_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kept >= 0) {
        parent = it->kept;
        break;
      }
    }
    kept = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{kind, 0.0, 0.0, parent});
  }
  stack_.push_back(Open{kind, Clock::now(), 0.0, kept});
}

void Tracer::end() {
  const Clock::time_point now = Clock::now();
  PAS_CHECK_MSG(!stack_.empty(), "Tracer::end without a matching begin");
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur = seconds_between(open.start, now);
  Total& t = totals_[static_cast<std::size_t>(open.kind)];
  ++t.count;
  t.total_s += dur;
  t.self_s += dur - open.child_s;
  if (!stack_.empty()) stack_.back().child_s += dur;
  if (open.kept >= 0) {
    Span& s = spans_[static_cast<std::size_t>(open.kept)];
    s.start_s = seconds_between(origin_, open.start);
    s.end_s = seconds_between(origin_, now);
  }
}

std::string Tracer::to_json() const {
  std::string out = "{\"spans\": [";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d}",
                  i == 0 ? "" : ", ", span_name(s.kind), s.start_s, s.end_s, s.parent);
    out += buf;
  }
  out += "], \"totals\": {";
  bool first = true;
  for (std::size_t k = 0; k < totals_.size(); ++k) {
    const Total& t = totals_[k];
    if (t.count == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"count\": %llu, \"total_s\": %.9f, \"self_s\": %.9f}",
                  first ? "" : ", ", span_name(static_cast<SpanKind>(k)),
                  static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
