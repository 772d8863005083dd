#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>

#include "common/check.h"
#include "core/campaign.h"
#include "core/cell_spec.h"
#include "core/runner.h"
#include "core/sharded_testbed.h"
#include "core/testbed.h"
#include "devices/specs.h"
#include "iogen/engine.h"
#include "model/fleet.h"
#include "power/trace.h"
#include "sim/simulator.h"
#include "host_speed.h"
#include "traced_device.h"

namespace perfbench {

using namespace pas;

namespace {

// Host times at the reference speed while a ReferenceSampler is alive.
using Clock = ReferenceClock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// Resident set right now (not the high-water mark), in MiB.
double rss_mib() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

void fold(std::vector<std::uint64_t>& fp, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  fp.push_back(bits);
}

void fold(std::vector<std::uint64_t>& fp, std::uint64_t v) { fp.push_back(v); }

void check(RepResult& r, std::string name, bool pass, std::string detail) {
  r.checks.push_back(Check{std::move(name), pass, std::move(detail)});
}

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

// Times one call that advances a fleet host: a span in the traced pass, plus
// the CPU/wall accounting behind core.shard_cpu_util and the epoch count.
template <typename F>
void advance_call(Tracer* tracer, SpanKind kind, LayerCounters& l, F&& f) {
  if (tracer == nullptr) {
    f();
    return;
  }
  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();  // wall time, to compare with CPU time
  {
    Scope span(tracer, kind);
    f();
  }
  l.core_cpu_s += cpu_seconds() - cpu0;
  l.core_wall_s += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (kind != SpanKind::kRunUntil) ++l.core_epochs;  // run_until counts its barriers
}

void count_devices(core::FleetHost& host, LayerCounters& l) {
  l.sim_events = host.executed_events();
  for (std::size_t i = 0; i < host.device_count(); ++i) {
    devices::DeviceBundle& b = host.device(i);
    if (b.ssd != nullptr) {
      const ssd::FtlStats& f = b.ssd->ftl_stats();
      l.host_units_written += f.host_units_written;
      l.gc_units_moved += f.gc_units_moved;
      l.gc_runs += f.gc_runs;
      l.nand_page_reads += f.nand_page_reads;
      l.nand_programs += f.nand_programs;
      l.nand_erases += f.erases;
      l.buffer_stalls += b.ssd->stats().buffer_stall_events;
      l.throttle_events += b.ssd->governor().throttle_events();
    }
    if (b.hdd != nullptr) {
      const hdd::HddStats& h = b.hdd->stats();
      l.hdd_seeks += h.seeks;
      l.hdd_media_ops += h.media_reads + h.media_writes;
      l.hdd_spin_ups += h.spin_ups;
    }
  }
}

// IOs of every started job, split closed/open loop, over each shard's job
// table (which also holds the jobs submitted through per-shard adapters).
void count_jobs(core::ShardedTestbed& host, LayerCounters& l) {
  for (std::size_t k = 0; k < host.shard_count(); ++k) {
    const core::Testbed& shard = host.shard(k);
    for (std::size_t j = 0; j < shard.job_count(); ++j) {
      const std::uint64_t ios = shard.job_result(j).ios;
      l.iogen_ios += ios;
      if (shard.job_spec(j).arrival.kind != iogen::ArrivalKind::kClosedLoop) {
        l.iogen_open_loop_ios += ios;
      }
    }
  }
}

std::uint64_t total_ios(const std::vector<core::TenantSummary>& tenants) {
  std::uint64_t ios = 0;
  for (const auto& t : tenants) ios += t.ios;
  return ios;
}

// ---------------------------------------------------------------- campaign

constexpr std::size_t kChunk256 = 3;  // index of 256 KiB in core::chunk_sizes()

std::vector<core::CellSpec> campaign_cells() {
  // Figure 4: SSD2 sequential write + read, 6 chunks, ps0-2, qd64.
  std::vector<core::CellSpec> cells =
      core::GridBuilder()
          .device(devices::DeviceId::kSsd2)
          .power_states({0, 1, 2})
          .patterns({iogen::Pattern::kSequential})
          .ops({iogen::OpKind::kWrite, iogen::OpKind::kRead})
          .chunks(core::chunk_sizes())
          .queue_depths({64})
          .cross();
  // Figure 5: SSD2 random write, qd1, 6 chunks, ps0-2.
  const std::vector<core::CellSpec> fig5 =
      core::GridBuilder()
          .device(devices::DeviceId::kSsd2)
          .power_states({0, 1, 2})
          .base_job(core::make_job(iogen::Pattern::kRandom, iogen::OpKind::kWrite, 4 * KiB, 1))
          .chunks(core::chunk_sizes())
          .cross();
  cells.insert(cells.end(), fig5.begin(), fig5.end());
  return cells;
}

}  // namespace

// run_cell, rebuilt from its public parts so a TracedDevice can sit between
// the engine and the device. Same construction and event order as
// core::run_cell (device, admin power state, rig start, engine, drive, rig
// materialize + stop), so its outputs are bit-identical to it.
core::ExperimentOutput traced_cell(const core::CellSpec& spec,
                                   const core::ExperimentOptions& options, Tracer& tracer,
                                   LayerCounters& l) {
  Scope cell(&tracer, SpanKind::kCell);
  sim::Simulator sim;
  devices::DeviceBundle dev = devices::make_device(sim, spec.device, options.seed);
  if (spec.power_state != 0) {
    PAS_CHECK_MSG(dev.nvme->set_power_state(spec.power_state) == devmgmt::AdminStatus::kSuccess,
                  "device rejected the power state");
  }
  iogen::JobSpec job = spec.job;
  if (options.io_limit_scale != 1.0 && job.io_limit_bytes != 0) {
    job.io_limit_bytes = std::max<std::uint64_t>(
        64 * MiB, static_cast<std::uint64_t>(static_cast<double>(job.io_limit_bytes) *
                                             options.io_limit_scale));
  }
  TracedDevice traced(*dev.device, tracer);
  {
    Scope span(&tracer, SpanKind::kRigStart);
    dev.rig->start();
  }
  iogen::IoEngine engine(sim, traced, job);
  {
    Scope span(&tracer, SpanKind::kEngineStart);
    engine.start(nullptr);
  }
  {
    Scope span(&tracer, SpanKind::kDrive);
    iogen::IoEngine* const e = &engine;
    iogen::drive(sim, {&e, 1});
  }
  {
    Scope span(&tracer, SpanKind::kRigStop);
    dev.rig->materialize();
    dev.rig->stop();
  }
  core::ExperimentOutput out;
  out.job = engine.result();
  const power::PowerTrace& trace = dev.rig->trace();
  PAS_CHECK_MSG(!trace.empty(), "job finished before the first power sample");
  power::TraceSummary summary;
  {
    Scope span(&tracer, SpanKind::kAnalyze);
    summary = trace.analyze(seconds(10));
  }
  out.min_power_w = summary.min_w;
  out.max_power_w = summary.max_w;
  out.max_window10s_w = summary.max_window_w;
  out.point.device = devices::label(spec.device);
  out.point.power_state = spec.power_state;
  out.point.chunk_bytes = job.block_bytes;
  out.point.queue_depth = job.iodepth;
  out.point.workload = std::string(iogen::to_string(job.pattern)) + iogen::to_string(job.op);
  out.point.avg_power_w = summary.mean_w;
  out.point.throughput_mib_s = out.job.throughput_mib_s();
  out.point.avg_latency_us = out.job.avg_latency_us();
  out.point.p99_latency_us = out.job.p99_latency_us();

  l.sim_events += sim.executed_events();
  const ssd::FtlStats& f = dev.ssd->ftl_stats();
  l.host_units_written += f.host_units_written;
  l.gc_units_moved += f.gc_units_moved;
  l.gc_runs += f.gc_runs;
  l.nand_page_reads += f.nand_page_reads;
  l.nand_programs += f.nand_programs;
  l.nand_erases += f.erases;
  l.buffer_stalls += dev.ssd->stats().buffer_stall_events;
  l.throttle_events += dev.ssd->governor().throttle_events();
  l.power_samples += trace.size();
  l.iogen_ios += out.job.ios;
  return out;
}

namespace {

void fold_cell(std::vector<std::uint64_t>& fp, const core::ExperimentOutput& o) {
  fold(fp, o.job.ios);
  fold(fp, o.job.bytes);
  fold(fp, static_cast<std::uint64_t>(o.job.elapsed));
  fold(fp, o.point.avg_power_w);
  fold(fp, o.point.throughput_mib_s);
  fold(fp, o.point.avg_latency_us);
  fold(fp, o.point.p99_latency_us);
  fold(fp, o.min_power_w);
  fold(fp, o.max_power_w);
  fold(fp, o.max_window10s_w);
}

RepResult run_campaign(std::uint64_t seed, const Config& cfg, Tracer* tracer,
                       bool setup_only) {
  RepResult r;
  const Clock::time_point t_setup = Clock::now();
  // Set-up: the grid, and every cell validated against a freshly built
  // device before any cell runs — its power state through the NVMe admin
  // path, its IO shape against the device geometry — so a bad cell is a
  // named check failure here instead of an abort minutes into the run.
  std::vector<core::CellSpec> cells = campaign_cells();
  std::size_t invalid = 0;
  for (const core::CellSpec& c : cells) {
    sim::Simulator probe;
    devices::DeviceBundle dev = devices::make_device(probe, c.device, seed);
    const sim::BlockDevice& d = *dev.device;
    const bool ok = dev.nvme->set_power_state(c.power_state) == devmgmt::AdminStatus::kSuccess &&
                    c.job.block_bytes % d.sector_bytes() == 0 &&
                    c.job.region_offset + c.job.region_bytes <= d.capacity_bytes();
    invalid += ok ? 0 : 1;
  }
  r.setup_s = since(t_setup);
  if (setup_only) return r;
  check(r, "campaign.cells_valid", invalid == 0,
        fmt("%.0f of %.0f cells rejected by their device", static_cast<double>(invalid),
            static_cast<double>(cells.size())));

  core::RunnerOptions ro;
  ro.jobs = tracer != nullptr ? 1 : cfg.campaign_workers;
  ro.experiment.seed = seed;
  ro.experiment.io_limit_scale = cfg.campaign_io_scale;
  double last_elapsed = 0.0;
  Clock::time_point t_run;
  if (tracer != nullptr) {
    // The traced pass times each cell from its own span instead.
    for (core::CellSpec& c : cells) {
      c.body = [tracer, &r](const core::CellSpec& s, const core::ExperimentOptions& o) {
        return traced_cell(s, o, *tracer, r.layers);
      };
    }
  } else {
    ro.progress = [&r, &last_elapsed, &t_run](const core::RunnerProgress&) {
      const double elapsed = since(t_run);
      r.cell_s.push_back(elapsed - last_elapsed);
      last_elapsed = elapsed;
    };
  }
  core::CampaignRunner runner(ro);
  t_run = Clock::now();
  const std::vector<core::ExperimentOutput> out = runner.run(cells);
  r.run_s = since(t_run);
  if (tracer != nullptr) {
    for (const Tracer::Span& s : tracer->spans()) {
      if (s.kind == SpanKind::kCell) r.cell_s.push_back(s.end_s - s.start_s);
    }
  }

  check(r, "campaign.runner_failures", runner.failures().empty(),
        fmt("%.0f of %.0f cells failed", static_cast<double>(runner.failures().size()),
            static_cast<double>(cells.size())));
  for (const core::ExperimentOutput& o : out) {
    r.sim_ios += o.job.ios;
    r.sim_seconds += to_seconds(o.job.elapsed);
    fold_cell(r.fingerprint, o);
  }

  const std::size_t chunks = core::chunk_sizes().size();
  const auto tput = [&](std::size_t ps, std::size_t op, std::size_t c) {
    return out[(ps * 2 + op) * chunks + c].point.throughput_mib_s;
  };
  const double w1 = tput(1, 0, kChunk256) / tput(0, 0, kChunk256);
  const double w2 = tput(2, 0, kChunk256) / tput(0, 0, kChunk256);
  const double r2 = tput(2, 1, kChunk256) / tput(0, 1, kChunk256);
  double worst_avg = 0.0;
  double worst_p99 = 0.0;
  const std::size_t fig5 = 3 * 2 * chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto& p0 = out[fig5 + c].point;
    const auto& p1 = out[fig5 + chunks + c].point;
    const auto& p2 = out[fig5 + 2 * chunks + c].point;
    worst_avg = std::max(worst_avg, std::max(p1.avg_latency_us, p2.avg_latency_us) /
                                        p0.avg_latency_us);
    worst_p99 = std::max(worst_p99, std::max(p1.p99_latency_us, p2.p99_latency_us) /
                                        p0.p99_latency_us);
  }
  // Bands hold both the paper's value and the value EXPERIMENTS.md records
  // for this model (fig4 write 72-75% / 51-53%, reads 100%; fig5 1.73x /
  // 8.2x, known deviations from the paper's 2x / 6.19x).
  check(r, "fig4.seq_write_ps1_ps0", w1 >= 0.70 && w1 <= 0.78,
        fmt("%.4f in [0.70, 0.78] (paper 0.74)", w1));
  check(r, "fig4.seq_write_ps2_ps0", w2 >= 0.49 && w2 <= 0.58,
        fmt("%.4f in [0.49, 0.58] (paper 0.55)", w2));
  check(r, "fig4.seq_read_ps2_ps0", r2 >= 0.95 && r2 <= 1.05,
        fmt("%.4f in [0.95, 1.05] (paper: minimal drop)", r2));
  check(r, "fig5.worst_avg_x", worst_avg >= 1.55 && worst_avg <= 1.95,
        fmt("%.3f in [1.55, 1.95] (paper 2, recorded 1.73)", worst_avg));
  check(r, "fig5.worst_p99_x", worst_p99 >= 7.0 && worst_p99 <= 9.5,
        fmt("%.3f in [7.0, 9.5] (paper 6.19, recorded 8.2)", worst_p99));
  r.paper_err_pct = 100.0 *
                    (std::abs(w1 - 0.74) / 0.74 + std::abs(w2 - 0.55) / 0.55 +
                     std::abs(worst_avg - 2.0) / 2.0 + std::abs(worst_p99 - 6.19) / 6.19) /
                    4.0;
  return r;
}

// ---------------------------------------------------------- fleet scenarios

constexpr TimeNs kPhaseLength = seconds(12);  // > the 10 s compliance window

// The fleet's device-type cycle: global device i is kFleet[i % 3].
constexpr devices::DeviceId kFleet[] = {devices::DeviceId::kSsd1, devices::DeviceId::kSsd2,
                                        devices::DeviceId::kHdd};

// One (device, power state) planner option, measured on its own cell; the
// planned power carries a guard band so the plan is conservative.
model::ExperimentPoint calibrate_option(devices::DeviceId id, int ps,
                                        const core::ExperimentOptions& options) {
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kRandom;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = id == devices::DeviceId::kHdd ? 2 * MiB : 256 * KiB;
  spec.iodepth = 64;
  model::ExperimentPoint p = core::run_cell(id, ps, spec, options).point;
  p.avg_power_w = p.avg_power_w * 1.02 + 0.3;
  return p;
}

// The zero-throughput "powered but idle" option.
model::ExperimentPoint idle_option(devices::DeviceId id) {
  sim::Simulator probe;
  const auto dev = devices::make_device(probe, id, 1);
  model::ExperimentPoint p;
  p.device = devices::label(id);
  p.power_state = 0;
  p.workload = "idle";
  p.avg_power_w = dev.device->instantaneous_power() + 0.2;
  p.throughput_mib_s = 0.0;
  return p;
}

// Planner option sets for the three device types (7 calibration cells,
// independent of the fleet size), in kFleet order.
std::vector<core::FleetDeviceOptions> calibrate_types(std::uint64_t seed, const Config& cfg,
                                                      Tracer* tracer) {
  Scope span(tracer, SpanKind::kCalibrate);
  core::ExperimentOptions options;
  options.seed = seed;
  options.io_limit_scale = cfg.calibration_io_scale;
  std::vector<core::FleetDeviceOptions> types;
  for (devices::DeviceId id : kFleet) {
    core::FleetDeviceOptions d;
    d.name = devices::label(id);
    if (id == devices::DeviceId::kHdd) {
      d.options.push_back(calibrate_option(id, 0, options));
      d.supports_standby = true;
      d.standby_power_w = devices::hdd_exos_7e2000().p_standby_w;
    } else {
      for (int ps = 0; ps < 3; ++ps) d.options.push_back(calibrate_option(id, ps, options));
      d.options.push_back(idle_option(id));
    }
    types.push_back(std::move(d));
  }
  return types;
}

const core::TenantSummary* find_tenant(const std::vector<core::TenantSummary>& v, int id) {
  for (const auto& s : v) {
    if (s.tenant == id) return &s;
  }
  return nullptr;
}

// A tenant's movement between two cumulative tenant_summaries() snapshots.
struct TenantDelta {
  std::uint64_t ios = 0;
  std::uint64_t bytes = 0;
  std::uint64_t slo_ios = 0;
  std::uint64_t slo_violations = 0;

  double violation_rate() const {
    return slo_ios > 0 ? static_cast<double>(slo_violations) / static_cast<double>(slo_ios)
                       : 0.0;
  }
};

TenantDelta tenant_delta(const std::vector<core::TenantSummary>& cur,
                         const std::vector<core::TenantSummary>& prev, int id) {
  TenantDelta d;
  const core::TenantSummary* c = find_tenant(cur, id);
  if (c == nullptr) return d;
  d.ios = c->ios;
  d.bytes = c->bytes;
  d.slo_ios = c->slo_ios;
  d.slo_violations = c->slo_violations;
  if (const core::TenantSummary* p = find_tenant(prev, id)) {
    d.ios -= p->ios;
    d.bytes -= p->bytes;
    d.slo_ios -= p->slo_ios;
    d.slo_violations -= p->slo_violations;
  }
  return d;
}

void fold_delta(std::vector<std::uint64_t>& fp, const TenantDelta& d) {
  fold(fp, d.ios);
  fold(fp, d.bytes);
  fold(fp, d.slo_ios);
  fold(fp, d.slo_violations);
}

// Frontend tenant: open-loop Poisson reads with a 2 ms SLO, on flash.
iogen::JobSpec frontend_job(std::uint64_t seed, double rate_iops) {
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kRandom;
  spec.op = iogen::OpKind::kRead;
  spec.block_bytes = 64 * KiB;
  spec.arrival.kind = iogen::ArrivalKind::kPoisson;
  spec.arrival.rate_iops = rate_iops;
  spec.io_limit_bytes = 0;
  spec.time_limit = kPhaseLength;
  spec.tenant = 1;
  spec.tenant_priority = 3;
  spec.slo_latency = milliseconds(2);
  spec.seed = seed;
  return spec;
}

// Batch tenant, open loop: bursty ingest writes at a fixed offered rate.
iogen::JobSpec batch_ingest_job(std::uint64_t seed, double rate_iops) {
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kRandom;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = 1 * MiB;
  spec.arrival.kind = iogen::ArrivalKind::kBursty;
  spec.arrival.rate_iops = rate_iops;
  spec.arrival.on_period = seconds(2);
  spec.arrival.off_period = seconds(1);
  spec.io_limit_bytes = 0;
  spec.time_limit = kPhaseLength;
  spec.tenant = 2;
  spec.tenant_priority = 1;
  spec.seed = seed;
  return spec;
}

// Batch tenant, closed loop (the rack's SLO epilogue).
iogen::JobSpec batch_job(std::uint64_t seed) {
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kRandom;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = 256 * KiB;
  spec.iodepth = 16;
  spec.io_limit_bytes = 0;
  spec.time_limit = kPhaseLength;
  spec.tenant = 2;
  spec.tenant_priority = 1;
  spec.seed = seed;
  return spec;
}

int planned_writers(const std::vector<core::AppliedConfig>& plan) {
  int writers = 0;
  for (const auto& cfg : plan) {
    if (!cfg.standby && cfg.planned_throughput_mib_s > 0.0) ++writers;
  }
  return writers;
}

std::optional<std::vector<core::AppliedConfig>> plan_budget(core::FleetAdapter& adapter,
                                                            Watts budget, Tracer* tracer,
                                                            LayerCounters& l) {
  Scope span(tracer, SpanKind::kPlan);
  if (tracer != nullptr) ++l.model_plans;
  return adapter.set_power_budget(budget);
}

// Stops the rigs and reduces the phase's fleet trace to its cap-compliance
// summary.
power::TraceSummary take_phase_trace(core::ShardedTestbed& host, Tracer* tracer,
                                     LayerCounters& l) {
  {
    Scope span(tracer, SpanKind::kRigStop);
    host.stop_rigs();
  }
  power::PowerTrace trace;
  {
    Scope span(tracer, SpanKind::kTakeTrace);
    trace = host.take_fleet_trace();
  }
  if (tracer != nullptr) l.power_samples += trace.size() * host.device_count();
  Scope span(tracer, SpanKind::kAnalyze);
  return trace.analyze(seconds(10));
}

void start_rigs(core::ShardedTestbed& host, Tracer* tracer) {
  Scope span(tracer, SpanKind::kRigStart);
  host.start_rigs();
}

// The paper's budget-step scenario (section 4): SSD1 + SSD2 + HDD on one
// shard, 40 -> 25 -> 14 -> 40 W, then the open-loop frontend/batch SLO
// epilogue at the same budgets.
RepResult run_fleet(std::uint64_t seed, const Config& cfg, Tracer* tracer,
                    bool setup_only) {
  RepResult r;
  LayerCounters& l = r.layers;
  const std::size_t devices = 3;
  const Clock::time_point t_setup = Clock::now();
  const std::vector<core::FleetDeviceOptions> types = calibrate_types(seed, cfg, tracer);
  const double rss0 = rss_mib();
  core::ShardedTestbed host(1, 1);
  std::vector<core::FleetDeviceOptions> opts;
  for (std::size_t i = 0; i < devices; ++i) {
    Scope span(tracer, SpanKind::kAddDevice);
    host.add_device(kFleet[i % 3], seed + 10 + i);
    opts.push_back(types[i % 3]);
  }
  core::FleetAdapter adapter(host, std::move(opts));
  r.setup_s = since(t_setup);
  if (setup_only) return r;

  struct Phase {
    const char* name;
    Watts budget;
  };
  const Phase phases[] = {{"normal", 40.0}, {"oversubscribed", 25.0}, {"brownout", 14.0},
                          {"restored", 40.0}};
  const Clock::time_point t_run = Clock::now();
  const TimeNs sim0 = host.now();
  double baseline_mib_s = 0.0;
  int phase_no = 0;
  for (const Phase& phase : phases) {
    const Clock::time_point t_phase = Clock::now();
    ++phase_no;
    const auto plan = plan_budget(adapter, phase.budget, tracer, l);
    check(r, std::string("fleet.") + phase.name + ".plannable", plan.has_value(),
          fmt("budget %.0f W", phase.budget));
    if (!plan.has_value()) continue;
    std::vector<std::size_t> jobs;
    const int writers = planned_writers(*plan);
    for (int w = 0; w < writers; ++w) {
      iogen::JobSpec spec;
      spec.pattern = iogen::Pattern::kRandom;
      spec.op = iogen::OpKind::kWrite;
      spec.io_limit_bytes = 0;
      spec.time_limit = kPhaseLength;
      spec.seed = seed + static_cast<std::uint64_t>(phase_no) * 100 +
                  static_cast<std::uint64_t>(w);
      jobs.push_back(adapter.submit(spec, /*shape_to_plan=*/true));
    }
    start_rigs(host, tracer);
    advance_call(tracer, SpanKind::kRunJobs, l, [&] { host.run_jobs(); });
    const power::TraceSummary s = take_phase_trace(host, tracer, l);
    check(r, std::string("fleet.") + phase.name + ".within_budget",
          s.max_window_w <= phase.budget,
          fmt("max 10 s-window %.3f W <= %.0f W", s.max_window_w, phase.budget));
    double fleet_mib_s = 0.0;
    for (const std::size_t j : jobs) {
      fleet_mib_s += mib_per_sec(host.job_result(j).bytes, kPhaseLength);
    }
    if (phase_no == 1) baseline_mib_s = fleet_mib_s;
    if (phase_no == 3 && baseline_mib_s > 0.0) {
      r.retained_brownout_pct = 100.0 * fleet_mib_s / baseline_mib_s;
    }
    fold(r.fingerprint, adapter.controller().planned_power());
    fold(r.fingerprint, s.mean_w);
    fold(r.fingerprint, s.max_window_w);
    fold(r.fingerprint, fleet_mib_s);
    advance_call(tracer, SpanKind::kAdvance, l, [&] { host.advance(milliseconds(300)); });
    r.cell_s.push_back(since(t_phase));
  }

  // SLO epilogue: frontend Poisson reads (2 ms SLO) on the SSDs and bursty
  // batch ingest routed by the adapter, at fixed offered rates.
  std::vector<core::TenantSummary> prev = host.tenant_summaries();
  phase_no = 0;
  for (const Phase& phase : phases) {
    const Clock::time_point t_phase = Clock::now();
    ++phase_no;
    const bool planned = plan_budget(adapter, phase.budget, tracer, l).has_value();
    check(r, std::string("fleet.slo_") + phase.name + ".plannable", planned,
          fmt("budget %.0f W", phase.budget));
    if (!planned) continue;
    const std::uint64_t base = seed + 50000 + static_cast<std::uint64_t>(phase_no) * 1000;
    for (std::size_t i = 0; i < devices; ++i) {
      if (kFleet[i % 3] == devices::DeviceId::kHdd) continue;
      host.add_job(frontend_job(base + i, 4000.0), i);
    }
    for (std::size_t i = 0; i < (devices + 1) / 2; ++i) {
      adapter.submit(batch_ingest_job(base + 500 + i, 600.0));
    }
    advance_call(tracer, SpanKind::kRunJobs, l, [&] { host.run_jobs(); });
    std::vector<core::TenantSummary> cur = host.tenant_summaries();
    const TenantDelta frontend = tenant_delta(cur, prev, 1);
    fold_delta(r.fingerprint, frontend);
    fold_delta(r.fingerprint, tenant_delta(cur, prev, 2));
    if (phase_no == 3) r.frontend_viol_brownout = frontend.violation_rate();
    prev = std::move(cur);
    advance_call(tracer, SpanKind::kAdvance, l, [&] { host.advance(milliseconds(300)); });
    r.cell_s.push_back(since(t_phase));
  }
  r.run_s = since(t_run);
  r.sim_seconds = to_seconds(host.now() - sim0);
  r.sim_ios = total_ios(host.tenant_summaries());
  fold(r.fingerprint, r.sim_ios);
  fold(r.fingerprint, host.executed_events());
  if (tracer != nullptr) {
    count_devices(host, l);
    count_jobs(host, l);
    l.rss_per_device_mib = (rss_mib() - rss0) / static_cast<double>(devices);
  }
  return r;
}

// The diurnal rack: N devices dealt over K shards, one FleetAdapter per
// shard group, the facility budget split with model::split_budget, 100 Hz
// streaming-sum rigs, then the tenant epilogue with priority shaping.
//
// Rack results depend on the shard count (the planner runs per shard group;
// see ROADMAP "Results invariant to execution knobs"), so this workload
// reports no modelled outcome, only host-side metrics.
RepResult run_rack(std::uint64_t seed, const Config& cfg, Tracer* tracer,
                   bool setup_only) {
  RepResult r;
  LayerCounters& l = r.layers;
  l.core_workers = std::min<int>(cfg.rack_workers, static_cast<int>(cfg.rack_shards));
  const std::size_t devices = cfg.rack_devices;
  const std::size_t shards = cfg.rack_shards;
  const Clock::time_point t_setup = Clock::now();
  const std::vector<core::FleetDeviceOptions> types = calibrate_types(seed, cfg, tracer);
  const double rss0 = rss_mib();
  core::ShardedTestbed host(shards, cfg.rack_workers);
  host.set_trace_mode(core::TraceMode::kStreamingSum);
  for (std::size_t i = 0; i < devices; ++i) {
    Scope span(tracer, SpanKind::kAddDevice);
    host.add_device(kFleet[i % 3], seed ^ static_cast<std::uint64_t>(i));
    host.device(i).rig->set_sample_period(milliseconds(10));
  }
  const std::size_t group_devs = (devices + shards - 1) / shards;
  const Watts watt_res = group_devs > 64 ? 0.5 : 0.1;
  std::vector<std::unique_ptr<core::FleetAdapter>> adapters;
  for (std::size_t k = 0; k < shards; ++k) {
    std::vector<core::FleetDeviceOptions> opts;
    for (std::size_t i = k; i < devices; i += shards) opts.push_back(types[i % 3]);
    adapters.push_back(
        std::make_unique<core::FleetAdapter>(host.shard(k), std::move(opts), watt_res));
  }
  std::vector<Watts> floors(shards);
  std::vector<Watts> ceils(shards);
  Watts fleet_ceiling = 0.0;
  for (std::size_t k = 0; k < shards; ++k) {
    floors[k] = adapters[k]->controller().min_planned_power();
    ceils[k] = adapters[k]->controller().max_planned_power();
    fleet_ceiling += ceils[k];
  }
  r.setup_s = since(t_setup);
  if (setup_only) return r;

  struct Phase {
    const char* name;
    double fraction;  // of the fleet ceiling
  };
  const Phase phases[] = {{"overnight", 0.90},
                          {"morning", 0.70},
                          {"midday", 0.45},
                          {"evening", 0.85}};
  const auto count_barrier = [&](TimeNs) {
    if (tracer != nullptr) ++l.core_epochs;
  };
  const Clock::time_point t_run = Clock::now();
  const TimeNs sim0 = host.now();
  int phase_no = 0;
  for (const Phase& phase : phases) {
    const Clock::time_point t_phase = Clock::now();
    ++phase_no;
    const Watts budget = fleet_ceiling * phase.fraction;
    const std::vector<Watts> group_budget = model::split_budget(budget, floors, ceils);
    int shed = 0;
    Watts planned = 0.0;
    std::vector<std::pair<std::size_t, std::size_t>> jobs;  // (shard, local job)
    for (std::size_t k = 0; k < shards; ++k) {
      const auto plan = plan_budget(*adapters[k], group_budget[k], tracer, l);
      if (!plan.has_value()) {
        ++shed;
        continue;
      }
      planned += adapters[k]->controller().planned_power();
      const int writers = planned_writers(*plan);
      for (int w = 0; w < writers; w += 4) {
        iogen::JobSpec spec;
        spec.pattern = iogen::Pattern::kRandom;
        spec.op = iogen::OpKind::kWrite;
        spec.block_bytes = 4 * MiB;
        spec.iodepth = 2;
        spec.io_limit_bytes = 0;
        spec.time_limit = kPhaseLength;
        spec.seed = seed + static_cast<std::uint64_t>(phase_no) * 1000000 +
                    static_cast<std::uint64_t>(k) * 1000 + static_cast<std::uint64_t>(w);
        jobs.emplace_back(k, adapters[k]->submit(spec));
      }
    }
    check(r, std::string("rack.") + phase.name + ".no_group_shed", shed == 0,
          fmt("%.0f of %.0f groups shed", shed, static_cast<double>(shards)));
    start_rigs(host, tracer);
    advance_call(tracer, SpanKind::kRunUntil, l, [&] {
      host.run_until(host.now() + kPhaseLength, seconds(10), count_barrier);
    });
    const power::TraceSummary s = take_phase_trace(host, tracer, l);
    check(r, std::string("rack.") + phase.name + ".within_budget", s.max_window_w <= budget,
          fmt("max 10 s-window %.3f W <= %.3f W", s.max_window_w, budget));
    advance_call(tracer, SpanKind::kAdvance, l, [&] { host.advance(milliseconds(300)); });
    double fleet_mib_s = 0.0;
    for (const auto& [k, j] : jobs) {
      fleet_mib_s += mib_per_sec(host.shard(k).job_result(j).bytes, kPhaseLength);
    }
    fold(r.fingerprint, planned);
    fold(r.fingerprint, s.mean_w);
    fold(r.fingerprint, s.max_window_w);
    fold(r.fingerprint, fleet_mib_s);
    r.cell_s.push_back(since(t_phase));
  }

  for (auto& a : adapters) a->enable_priority_shaping(3);
  std::vector<core::TenantSummary> prev = host.tenant_summaries();
  phase_no = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    const Phase& phase = phases[p];
    const Clock::time_point t_phase = Clock::now();
    ++phase_no;
    const Watts budget = fleet_ceiling * phase.fraction;
    const std::vector<Watts> group_budget = model::split_budget(budget, floors, ceils);
    int shed = 0;
    for (std::size_t k = 0; k < shards; ++k) {
      const auto plan = plan_budget(*adapters[k], group_budget[k], tracer, l);
      if (!plan.has_value()) {
        ++shed;
        continue;
      }
      const std::size_t group = (devices - k + shards - 1) / shards;
      const std::uint64_t base = seed + 70000 + static_cast<std::uint64_t>(phase_no) * 100000 +
                                 static_cast<std::uint64_t>(k) * 1000;
      // Frontend streams fill the group from the top, the write router from
      // the bottom, so tenants share devices only once a shave consolidates.
      std::vector<std::size_t> group_global;
      for (std::size_t g = k; g < devices; g += shards) group_global.push_back(g);
      std::size_t placed = 0;
      for (std::size_t n = group_global.size(); n > 0 && placed < (group + 3) / 4; --n) {
        const std::size_t g = group_global[n - 1];
        if (kFleet[g % 3] == devices::DeviceId::kHdd) continue;
        if ((*plan)[n - 1].standby) continue;
        host.add_job(frontend_job(base + placed, 2000.0), g);
        ++placed;
      }
      // Batch load tracks the plan: no planned writer, no batch stream.
      if (planned_writers(*plan) == 0) continue;
      for (std::size_t i = 0; i < (group + 7) / 8; ++i) {
        adapters[k]->submit(batch_job(base + 500 + i));
      }
    }
    check(r, std::string("rack.slo_") + phase.name + ".no_group_shed", shed == 0,
          fmt("%.0f of %.0f groups shed", shed, static_cast<double>(shards)));
    advance_call(tracer, SpanKind::kRunJobs, l, [&] { host.run_jobs(); });
    std::vector<core::TenantSummary> cur = host.tenant_summaries();
    fold_delta(r.fingerprint, tenant_delta(cur, prev, 1));
    fold_delta(r.fingerprint, tenant_delta(cur, prev, 2));
    prev = std::move(cur);
    advance_call(tracer, SpanKind::kAdvance, l, [&] { host.advance(milliseconds(300)); });
    r.cell_s.push_back(since(t_phase));
  }
  r.run_s = since(t_run);
  r.sim_seconds = to_seconds(host.now() - sim0);
  r.sim_ios = total_ios(host.tenant_summaries());
  fold(r.fingerprint, r.sim_ios);
  fold(r.fingerprint, host.executed_events());
  if (tracer != nullptr) {
    count_devices(host, l);
    count_jobs(host, l);
    l.rss_per_device_mib = (rss_mib() - rss0) / static_cast<double>(devices);
  }
  return r;
}

// The monitored standby rack: half the standby-capable drives parked, no IO,
// 1 kHz rigs streaming into the per-shard fleet sum for the whole span.
RepResult run_standby(std::uint64_t seed, const Config& cfg, Tracer* tracer,
                      bool setup_only) {
  RepResult r;
  LayerCounters& l = r.layers;
  const std::size_t devices = cfg.standby_devices;
  const Clock::time_point t_setup = Clock::now();
  const double rss0 = rss_mib();
  core::ShardedTestbed host(1, 1);
  host.set_trace_mode(core::TraceMode::kStreamingSum);
  for (std::size_t i = 0; i < devices; ++i) {
    Scope span(tracer, SpanKind::kAddDevice);
    host.add_device(kFleet[i % 3], seed ^ static_cast<std::uint64_t>(i));
  }
  std::size_t parked = 0;
  for (std::size_t i = 0; i < devices; i += 2) {
    if (host.device(i).pm->supports_standby()) {
      host.device(i).pm->standby_immediate();
      ++parked;
    }
  }
  r.setup_s = since(t_setup);
  if (setup_only) return r;
  // Only the HDD in the type cycle supports standby: even i with i % 3 == 2.
  std::size_t expected = 0;
  for (std::size_t i = 0; i < devices; i += 2) expected += i % 3 == 2 ? 1 : 0;
  check(r, "standby.parked_count", parked == expected,
        fmt("%.0f parked, %.0f expected", static_cast<double>(parked),
            static_cast<double>(expected)));

  const Clock::time_point t_run = Clock::now();
  const TimeNs sim0 = host.now();
  Clock::time_point t_epoch = Clock::now();
  const auto at_barrier = [&](TimeNs) {
    r.cell_s.push_back(since(t_epoch));
    t_epoch = Clock::now();
    if (tracer != nullptr) ++l.core_epochs;
  };
  start_rigs(host, tracer);
  advance_call(tracer, SpanKind::kRunUntil, l, [&] {
    host.run_until(host.now() + seconds(cfg.standby_seconds), seconds(10), at_barrier);
  });
  const power::TraceSummary s = take_phase_trace(host, tracer, l);
  r.run_s = since(t_run);
  r.sim_seconds = to_seconds(host.now() - sim0);
  const auto expected_samples =
      static_cast<std::uint64_t>(std::llround(cfg.standby_seconds * 1000.0));
  const bool finite = std::isfinite(s.mean_w) && std::isfinite(s.max_window_w) &&
                      std::isfinite(s.min_w) && s.min_w > 0.0;
  check(r, "standby.summary_finite", finite && s.count == expected_samples,
        fmt("%.0f samples, mean %.6f W, max 10 s-window %.6f W", static_cast<double>(s.count),
            s.mean_w, s.max_window_w));
  fold(r.fingerprint, static_cast<std::uint64_t>(s.count));
  fold(r.fingerprint, s.mean_w);
  fold(r.fingerprint, s.max_window_w);
  fold(r.fingerprint, s.min_w);
  fold(r.fingerprint, s.max_w);
  fold(r.fingerprint, host.executed_events());
  if (tracer != nullptr) {
    count_devices(host, l);
    l.rss_per_device_mib = (rss_mib() - rss0) / static_cast<double>(devices);
  }
  return r;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kCampaign: return "campaign";
    case Workload::kFleet: return "fleet";
    case Workload::kRack: return "rack";
    case Workload::kStandby: return "standby";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kCampaign, Workload::kFleet, Workload::kRack, Workload::kStandby}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

RepResult run_rep(Workload w, std::uint64_t seed, const Config& config, Tracer* tracer,
                  bool setup_only) {
  switch (w) {
    case Workload::kCampaign: return run_campaign(seed, config, tracer, setup_only);
    case Workload::kFleet: return run_fleet(seed, config, tracer, setup_only);
    case Workload::kRack: return run_rack(seed, config, tracer, setup_only);
    case Workload::kStandby: return run_standby(seed, config, tracer, setup_only);
  }
  PAS_CHECK_MSG(false, "unknown workload");
  return {};
}

}  // namespace perfbench
