// Turns repetitions into the benchmark's metrics, the run manifest and the
// result line. Metric names and units are the contract BENCHMARK.json
// declares; README.md defines each one.
#pragma once

#include <string>
#include <vector>

#include "cli.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // shown in the human-readable report only
};

// Value reported for an end-to-end metric the workload does not produce
// (e.g. paper_err_pct on rack): every workload reports every metric, and a
// metric is never 0.
inline constexpr double kNotApplicable = 1.0;

double median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

// The end-to-end metrics of the untraced repetitions; setup_s is the median
// of `setup_samples` (every repetition's set-up plus set-up-only runs).
std::vector<Metric> end_to_end_metrics(const std::vector<RepResult>& reps,
                                       const std::vector<double>& setup_samples,
                                       double peak_rss_mib);

// The per-layer metrics of one traced repetition, plus the tracing overhead
// (median traced run_s minus median untraced run_s).
std::vector<Metric> layer_metrics(const RepResult& traced, const Tracer& tracer,
                                  const std::vector<double>& traced_run_s,
                                  const std::vector<double>& untraced_run_s);

// Commit, dirty flag, build type, compiler, host CPUs, arguments and seed.
std::string manifest_json(const Options& options);

// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics);

std::string json_string(const std::string& s);

}  // namespace perfbench
