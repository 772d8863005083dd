// The benchmark's four workloads, built only through the simulator's public
// entry points (core::CampaignRunner / run_cell, core::ShardedTestbed and
// FleetAdapter, devices::make_device, iogen::IoEngine / drive,
// power::PowerTrace). README.md in this directory says why each exists and
// which layer metric should move which end-to-end metric.
//
// One call to run_rep() is one repetition: set-up (timed as setup_s), then
// the measured phase (timed as run_s), then the correctness checks. Every
// simulated output of the repetition is also folded, bit for bit, into a
// fingerprint, so two repetitions — traced or not, on any worker count —
// can be compared exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/cell_spec.h"
#include "tracer.h"

namespace perfbench {

enum class Workload { kCampaign, kFleet, kRack, kStandby };

const char* workload_name(Workload w);
std::optional<Workload> parse_workload(const std::string& name);

// Workload sizes. The defaults are the benchmark's; the tests shrink them.
struct Config {
  // campaign: the fig4 + fig5 grids at the benches' default cell scale.
  double campaign_io_scale = 0.25;
  int campaign_workers = 1;
  // fleet and rack: planner calibration cells at the benches' --quick scale.
  double calibration_io_scale = 0.0625;
  // rack: the diurnal profile.
  std::size_t rack_devices = 64;
  std::size_t rack_shards = 4;
  int rack_workers = 4;
  // standby: a parked, monitored rack.
  std::size_t standby_devices = 256;
  double standby_seconds = 300.0;
};

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

// Counters read from the device models after a traced repetition, plus the
// CPU accounting of the fleet-advance calls. Span times live in the Tracer.
struct LayerCounters {
  std::uint64_t sim_events = 0;
  std::uint64_t host_units_written = 0;
  std::uint64_t gc_units_moved = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t nand_page_reads = 0;
  std::uint64_t nand_programs = 0;
  std::uint64_t nand_erases = 0;
  std::uint64_t buffer_stalls = 0;
  std::uint64_t throttle_events = 0;
  std::uint64_t hdd_seeks = 0;
  std::uint64_t hdd_media_ops = 0;
  std::uint64_t hdd_spin_ups = 0;
  std::uint64_t power_samples = 0;  // ADC samples over all rigs
  std::uint64_t iogen_ios = 0;
  std::uint64_t iogen_open_loop_ios = 0;
  std::uint64_t model_plans = 0;
  std::uint64_t core_epochs = 0;
  double core_cpu_s = 0.0;   // process CPU time inside run_jobs/run_until/advance
  double core_wall_s = 0.0;  // wall time of the same calls
  int core_workers = 1;
  double rss_per_device_mib = 0.0;
};

struct RepResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  // Host time of each unit of measured work: a campaign cell, a fleet or
  // rack budget phase, a 10 s standby epoch.
  std::vector<double> cell_s;
  std::uint64_t sim_ios = 0;   // simulated IOs completed in the measured phase
  double sim_seconds = 0.0;    // simulated time advanced in the measured phase
  // Modelled outcomes; empty where the workload does not produce them.
  std::optional<double> paper_err_pct;
  std::optional<double> retained_brownout_pct;
  std::optional<double> frontend_viol_brownout;
  std::vector<Check> checks;
  std::vector<std::uint64_t> fingerprint;
  LayerCounters layers;  // filled only on a traced repetition
};

// core::run_cell rebuilt from public parts with a TracedDevice between the
// engine and the device; adds the cell's device counters to `counters`.
// Simulated outputs are bit-identical to core::run_cell.
pas::core::ExperimentOutput traced_cell(const pas::core::CellSpec& spec,
                                        const pas::core::ExperimentOptions& options,
                                        Tracer& tracer, LayerCounters& counters);

// Runs one repetition. `tracer` null = the end-to-end pass (no spans, no
// layer counters); non-null = the traced pass, which must leave every
// simulated output unchanged. `setup_only` stops after the timed set-up
// (extra set-up samples for a steadier setup_s median).
RepResult run_rep(Workload w, std::uint64_t seed, const Config& config, Tracer* tracer,
                  bool setup_only = false);

}  // namespace perfbench
