#include "report.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/check.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double count(std::uint64_t v) { return static_cast<double>(v); }

}  // namespace

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  PAS_CHECK_MSG(!v.empty(), "quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<Metric> end_to_end_metrics(const std::vector<RepResult>& reps,
                                       const std::vector<double>& setup_samples,
                                       double peak_rss_mib) {
  PAS_CHECK(!reps.empty());
  std::vector<double> run;
  std::vector<double> ios_rate;
  std::vector<double> sim_rate;
  std::size_t cell_count = reps.front().cell_s.size();
  for (const RepResult& r : reps) {
    run.push_back(r.run_s);
    ios_rate.push_back(ratio(count(r.sim_ios), r.run_s));
    sim_rate.push_back(ratio(r.sim_seconds, r.run_s));
    cell_count = std::min(cell_count, r.cell_s.size());
  }
  // Each unit of work's host time is its median over the repetitions, so a
  // transient slowdown during one repetition does not move the percentiles.
  std::vector<double> cells(cell_count);
  for (std::size_t i = 0; i < cell_count; ++i) {
    std::vector<double> per_rep;
    for (const RepResult& r : reps) per_rep.push_back(r.cell_s[i]);
    cells[i] = median(std::move(per_rep));
  }
  const RepResult& first = reps.front();
  const std::string reps_note = "median of " + std::to_string(reps.size()) + " repetitions";
  const std::string cells_note = std::to_string(cell_count) + " samples, each the median of " +
                                 std::to_string(reps.size()) + " repetitions";
  const auto outcome = [](const std::optional<double>& v) {
    return v.has_value() ? *v : kNotApplicable;
  };
  const auto outcome_note = [](const std::optional<double>& v) {
    return v.has_value() ? std::string("modelled, deterministic per seed")
                         : std::string("n/a on this workload");
  };
  const bool has_ios = first.sim_ios > 0;
  return {
      {"setup_s", median(setup_samples), "s",
       "median of " + std::to_string(setup_samples.size()) + " set-ups"},
      {"run_s", median(run), "s", reps_note},
      {"peak_rss_mib", peak_rss_mib, "MiB", "process high-water mark"},
      {"sim_ios_per_host_s", has_ios ? median(ios_rate) : kNotApplicable, "IO/s",
       has_ios ? reps_note : "n/a on this workload (no IO)"},
      {"sim_s_per_host_s", median(sim_rate), "ratio", reps_note},
      {"cell_s_p50", quantile(cells, 0.5), "s", cells_note},
      {"cell_s_p80", quantile(cells, 0.8), "s", cells_note},
      {"paper_err_pct", outcome(first.paper_err_pct), "%", outcome_note(first.paper_err_pct)},
      {"retained_brownout_pct", outcome(first.retained_brownout_pct), "%",
       outcome_note(first.retained_brownout_pct)},
      {"frontend_viol_brownout", outcome(first.frontend_viol_brownout), "ratio",
       outcome_note(first.frontend_viol_brownout)},
  };
}

std::vector<Metric> layer_metrics(const RepResult& traced, const Tracer& tracer,
                                  const std::vector<double>& traced_run_s,
                                  const std::vector<double>& untraced_run_s) {
  const LayerCounters& l = traced.layers;
  const auto total = [&](SpanKind k) { return tracer.total(k).total_s; };
  const auto self = [&](SpanKind k) { return tracer.total(k).self_s; };
  const double sim_self = self(SpanKind::kDrive) + self(SpanKind::kRunJobs) +
                          self(SpanKind::kRunUntil) + self(SpanKind::kAdvance);
  const double rig_s = total(SpanKind::kRigStart) + total(SpanKind::kRigStop) +
                       total(SpanKind::kTakeTrace) + total(SpanKind::kAnalyze);
  const double plan_s = total(SpanKind::kPlan);
  const double waf =
      l.host_units_written > 0
          ? count(l.host_units_written + l.gc_units_moved) / count(l.host_units_written)
          : 0.0;
  const double traced_run = median(traced_run_s);
  const double untraced_run = median(untraced_run_s);
  return {
      {"sim.events", count(l.sim_events), "count", ""},
      {"sim.ns_per_event", ratio(sim_self * 1e9, count(l.sim_events)), "ns", ""},
      {"sim.self_s", sim_self, "s", ""},
      {"ssd.submit_self_s", self(SpanKind::kSsdSubmit), "s", ""},
      {"ssd.waf", waf, "ratio", ""},
      {"ssd.gc_runs", count(l.gc_runs), "count", ""},
      {"ssd.gc_units_moved", count(l.gc_units_moved), "count", ""},
      {"ssd.buffer_stalls", count(l.buffer_stalls), "count", ""},
      {"ssd.throttle_events", count(l.throttle_events), "count", ""},
      {"nand.page_reads", count(l.nand_page_reads), "count", ""},
      {"nand.programs", count(l.nand_programs), "count", ""},
      {"nand.erases", count(l.nand_erases), "count", ""},
      {"hdd.seeks", count(l.hdd_seeks), "count", ""},
      {"hdd.media_ops", count(l.hdd_media_ops), "count", ""},
      {"hdd.spin_ups", count(l.hdd_spin_ups), "count", ""},
      {"power.samples", count(l.power_samples), "count", ""},
      {"power.rig_s", rig_s, "s", ""},
      {"power.ns_per_sample", ratio(rig_s * 1e9, count(l.power_samples)), "ns", ""},
      {"iogen.ios", count(l.iogen_ios), "count", ""},
      {"iogen.open_loop_ios", count(l.iogen_open_loop_ios), "count", ""},
      {"iogen.drive_s",
       total(SpanKind::kDrive) + total(SpanKind::kRunJobs) + total(SpanKind::kEngineStart), "s",
       ""},
      {"model.plans", count(l.model_plans), "count", ""},
      {"model.plan_s", plan_s, "s", ""},
      {"model.ms_per_plan", ratio(plan_s * 1e3, count(l.model_plans)), "ms", ""},
      {"core.calibrate_s", total(SpanKind::kCalibrate), "s", ""},
      {"core.add_device_s", total(SpanKind::kAddDevice), "s", ""},
      {"core.rss_per_device_mib", l.rss_per_device_mib, "MiB", ""},
      {"core.epochs", count(l.core_epochs), "count", ""},
      {"core.shard_cpu_util", ratio(l.core_cpu_s, l.core_wall_s * l.core_workers), "ratio", ""},
      {"trace.run_s", traced_run, "s", "median of traced repetitions"},
      {"trace.untraced_run_s", untraced_run, "s", "median of untraced repetitions"},
      {"trace.overhead_s", traced_run - untraced_run, "s", "traced minus untraced run_s"},
  };
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string manifest_json(const Options& o) {
  std::string args = "[";
  for (std::size_t i = 0; i < o.args.size(); ++i) {
    args += (i == 0 ? "" : ", ") + json_string(o.args[i]);
  }
  args += "]";
  return "{\"commit\": " + json_string(o.commit) + ", \"dirty\": " + json_string(o.dirty) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string("g++ " __VERSION__) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"workload\": " + json_string(workload_name(o.workload)) +
         ", \"seed\": " + std::to_string(o.seed) + ", \"seconds\": " + number(o.seconds) +
         ", \"trace\": " + (o.trace ? "1" : "0") + ", \"args\": " + args + "}";
}

std::string result_json(std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
