// The benchmark binary: runs one workload for a measurement budget, checks its
// outputs, and prints every metric by name and unit. The last stdout line
// is the machine-readable result. See README.md in this directory.
//
// Repetitions: each one sets up and runs the workload from scratch with the
// same seed. At least two run; more start while one more is expected to end
// within --seconds. Host times are medians over repetitions, and every
// repetition's simulated outputs must equal the first's. With
// --trace 1, untraced and traced repetitions alternate: the traced ones give
// the per-layer metrics, and the traced median minus the median of the warm
// untraced repetitions (rep0 excluded) gives the tracing overhead.
//
// Host times are read at the reference host speed (host_speed.h): the
// workload runs under a ReferenceSampler, for one thread or, on rack, whose
// shard workers fill every CPU, for many.
#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli.h"
#include "host_speed.h"
#include "report.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string json = "[";

  void add(std::size_t rep, const Check& c) {
    ++attempted;
    if (!c.pass) ++failed;
    std::printf("%s rep%zu %s: %s\n", c.pass ? "PASS" : "FAIL", rep, c.name.c_str(),
                c.detail.c_str());
    json += (attempted == 1 ? "" : ", ") + std::string("{\"rep\": ") + std::to_string(rep) +
            ", \"name\": " + json_string(c.name) + ", \"pass\": " + (c.pass ? "true" : "false") +
            ", \"detail\": " + json_string(c.detail) + "}";
  }
};

int run(const Options& o) {
  const Config config;
  const std::string manifest = manifest_json(o);
  std::printf("manifest: %s\n", manifest.c_str());
  std::fflush(stdout);

  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<double> setup_s;
  Tally tally;
  // Set-up alone is cheap next to a repetition, so the end-to-end pass also
  // samples it on its own for kSetupSlice after every repetition (spreading
  // the samples over the whole run) and tops up to kMinSetups at the end.
  constexpr double kSetupSlice = 0.1;
  constexpr std::size_t kMinSetups = 7;
  const auto sample_setup = [&](double budget_s) {
    const Clock::time_point t0 = Clock::now();
    do {
      setup_s.push_back(run_rep(o.workload, o.seed, config, nullptr, /*setup_only=*/true).setup_s);
    } while (std::chrono::duration<double>(Clock::now() - t0).count() < budget_s);
  };
  std::optional<ReferenceSampler> sampler(std::in_place,
                                          o.workload == Workload::kRack
                                              ? ReferenceSampler::Threads::kMany
                                              : ReferenceSampler::Threads::kOne);
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    const bool trace_this = o.trace && rep % 2 == 1;
    const Clock::time_point t_rep = Clock::now();
    std::unique_ptr<Tracer> tracer = trace_this ? std::make_unique<Tracer>() : nullptr;
    RepResult r = run_rep(o.workload, o.seed, config, tracer.get());
    if (!o.trace) {
      setup_s.push_back(r.setup_s);
      sample_setup(kSetupSlice);
    }
    std::fprintf(stderr, "[%s rep %zu%s] setup %.4f s, run %.3f s, wall %.3f s\n",
                 workload_name(o.workload), rep, trace_this ? " traced" : "", r.setup_s,
                 r.run_s, std::chrono::duration<double>(Clock::now() - t_rep).count());
    for (const Check& c : r.checks) tally.add(rep, c);
    if (!untraced.empty()) {
      const bool same = r.fingerprint == untraced.front().fingerprint;
      tally.add(rep, Check{trace_this ? "trace.identical_outputs" : "repeat.identical_outputs",
                           same, "simulated outputs bit-identical to rep0"});
    }
    if (trace_this) {
      traced.push_back(std::move(r));
      tracers.push_back(std::move(tracer));
    } else {
      untraced.push_back(std::move(r));
    }
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    const double per_rep = elapsed / static_cast<double>(rep + 1);
    // The traced pass needs a traced repetition and a warm untraced one:
    // rep0 pays first-touch page faults, so it is left out of the overhead.
    const bool have_all = !o.trace || (!traced.empty() && untraced.size() >= 2);
    if (have_all && rep >= 1 && elapsed + per_rep > o.seconds) break;
  }

  while (!o.trace && setup_s.size() < kMinSetups) sample_setup(0.0);

  const std::vector<double> reference_s = sampler->timings();
  sampler.reset();
  std::fprintf(stderr, "[%s] reference kernel: %zu timings, median %.3f ms (nominal %.3f ms)\n",
               workload_name(o.workload), reference_s.size(), median(reference_s) * 1e3,
               kReferenceNominalS * 1e3);
  std::vector<double> untraced_run_s;
  for (const RepResult& r : untraced) untraced_run_s.push_back(r.run_s);
  std::vector<double> traced_run_s;
  for (const RepResult& r : traced) traced_run_s.push_back(r.run_s);

  std::vector<Metric> metrics =
      o.trace ? layer_metrics(traced.front(), *tracers.front(), traced_run_s,
                              std::vector<double>(untraced_run_s.begin() + 1,
                                                  untraced_run_s.end()))
              : end_to_end_metrics(untraced, setup_s, peak_rss_mib());
  const double fail_frac =
      static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  std::printf("\n%-24s %20s  %-6s %s\n", "metric", "value", "unit", "");
  for (const Metric& m : metrics) {
    std::printf("%-24s %20.6f  %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::printf("%-24s %20.6f  %-6s %zu of %zu checks failed\n", "fail_frac", fail_frac, "ratio",
              tally.failed, tally.attempted);
  const std::string result = result_json(tally.attempted, tally.failed, metrics);

  if (!o.out_dir.empty()) {
    const std::string path = o.out_dir + "/" + workload_name(o.workload) + "-seed" +
                             std::to_string(o.seed) + (o.trace ? "-trace" : "") + ".json";
    std::ofstream f(path);
    f << "{\"manifest\": " << manifest << ",\n \"result\": " << result
      << ",\n \"reference\": {\"nominal_s\": " << kReferenceNominalS
      << ", \"timings\": " << reference_s.size() << ", \"median_s\": " << median(reference_s)
      << ", \"p10_s\": " << quantile(reference_s, 0.1)
      << ", \"p90_s\": " << quantile(reference_s, 0.9) << "},\n \"checks\": " << tally.json
      << "]";
    if (o.trace) f << ",\n \"trace\": " << tracers.front()->to_json();
    f << "}\n";
    if (!f) std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
  std::printf("%s\n", result.c_str());
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold: glibc otherwise raises it after the first large
  // free, and whether the FTL tables then come from the heap (and stay
  // resident after being freed) depends on allocation history, which makes
  // peak_rss_mib bimodal from run to run (40 or 57 MiB on campaign). Fixed,
  // every table is mapped fresh and unmapped when its device dies, so the
  // peak is the live memory and each new device pays its own first-touch
  // page faults.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const perfbench::ParseResult parsed =
      perfbench::parse_cli(std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.options) {
    std::fprintf(stderr, "perfbench: error: %s\n", parsed.error.c_str());
    return 2;
  }
  return perfbench::run(*parsed.options);
}
