// The benchmark's own tests: the traced pass must not change any simulated
// output, the workloads must be deterministic in their seed and independent
// of worker counts, the reference clock must count CPU time without
// touching the simulation, and malformed command lines must fail with a
// message that names the bad input.
#include <gtest/gtest.h>
#include <sched.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "core/campaign.h"
#include "core/cell_spec.h"
#include "host_speed.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pas;

// Small configurations: 64 MiB campaign cells (the runner's floor), a
// 12-device rack on 3 shards, a 24-device standby rack for 30 s.
Config small_config() {
  Config c;
  c.campaign_io_scale = 0.01;
  c.calibration_io_scale = 0.01;
  c.rack_devices = 12;
  c.rack_shards = 3;
  c.rack_workers = 3;
  c.standby_devices = 24;
  c.standby_seconds = 30.0;
  return c;
}

bool all_pass(const RepResult& r) {
  for (const Check& c : r.checks) {
    if (!c.pass) {
      ADD_FAILURE() << c.name << ": " << c.detail;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- fidelity

void expect_same_cell(const core::ExperimentOutput& a, const core::ExperimentOutput& b) {
  EXPECT_EQ(a.job.ios, b.job.ios);
  EXPECT_EQ(a.job.bytes, b.job.bytes);
  EXPECT_EQ(a.job.elapsed, b.job.elapsed);
  EXPECT_EQ(a.job.latency.count(), b.job.latency.count());
  EXPECT_EQ(a.job.latency.p99_ns(), b.job.latency.p99_ns());
  EXPECT_EQ(a.point.avg_power_w, b.point.avg_power_w);
  EXPECT_EQ(a.point.throughput_mib_s, b.point.throughput_mib_s);
  EXPECT_EQ(a.point.avg_latency_us, b.point.avg_latency_us);
  EXPECT_EQ(a.point.p99_latency_us, b.point.p99_latency_us);
  EXPECT_EQ(a.point.workload, b.point.workload);
  EXPECT_EQ(a.min_power_w, b.min_power_w);
  EXPECT_EQ(a.max_power_w, b.max_power_w);
  EXPECT_EQ(a.max_window10s_w, b.max_window10s_w);
}

TEST(Fidelity, TracedCellThroughForwardingDeviceMatchesRunCell) {
  core::ExperimentOptions options;
  options.io_limit_scale = 0.02;
  const std::array<core::CellSpec, 3> cells = {
      core::CellSpec{devices::DeviceId::kSsd2, 1,
                     core::make_job(iogen::Pattern::kSequential, iogen::OpKind::kWrite,
                                    256 * KiB, 64),
                     "", nullptr},
      core::CellSpec{devices::DeviceId::kSsd2, 2,
                     core::make_job(iogen::Pattern::kSequential, iogen::OpKind::kRead,
                                    64 * KiB, 64),
                     "", nullptr},
      core::CellSpec{devices::DeviceId::kSsd2, 2,
                     core::make_job(iogen::Pattern::kRandom, iogen::OpKind::kWrite, 4 * KiB, 1),
                     "", nullptr},
  };
  for (const core::CellSpec& cell : cells) {
    options.seed = core::derive_cell_seed(7, cell);
    core::CellSpec seeded = cell;
    seeded.job.seed = options.seed;
    Tracer tracer;
    LayerCounters counters;
    const core::ExperimentOutput traced = traced_cell(seeded, options, tracer, counters);
    const core::ExperimentOutput plain =
        core::run_cell(cell.device, cell.power_state, seeded.job, options);
    SCOPED_TRACE(cell.context());
    expect_same_cell(traced, plain);
    // Every IO went through the wrapper: one submit span and one completion
    // span each.
    EXPECT_EQ(tracer.total(SpanKind::kSsdSubmit).count, plain.job.ios);
    EXPECT_EQ(tracer.total(SpanKind::kCompletion).count, plain.job.ios);
    EXPECT_EQ(counters.iogen_ios, plain.job.ios);
    EXPECT_GT(counters.sim_events, 0u);
  }
}

// The traced pass of every workload yields the untraced pass's simulated
// outputs bit for bit.
class TracedWorkload : public ::testing::TestWithParam<Workload> {};

TEST_P(TracedWorkload, SimulatedOutputsEqualUntraced) {
  const Config config = small_config();
  const RepResult plain = run_rep(GetParam(), 3, config, nullptr);
  Tracer tracer;
  const RepResult traced = run_rep(GetParam(), 3, config, &tracer);
  // The campaign's claim bands hold for the benchmark's cell size, not for
  // these 64 MiB cells; the traced pass must still reach the same verdicts.
  if (GetParam() != Workload::kCampaign) {
    EXPECT_TRUE(all_pass(plain));
  }
  ASSERT_EQ(plain.checks.size(), traced.checks.size());
  for (std::size_t i = 0; i < plain.checks.size(); ++i) {
    EXPECT_EQ(plain.checks[i].pass, traced.checks[i].pass) << plain.checks[i].name;
  }
  ASSERT_FALSE(plain.fingerprint.empty());
  EXPECT_EQ(plain.fingerprint, traced.fingerprint);
  EXPECT_FALSE(tracer.spans().empty());
  EXPECT_GT(traced.layers.sim_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TracedWorkload,
                         ::testing::Values(Workload::kCampaign, Workload::kFleet,
                                           Workload::kRack, Workload::kStandby),
                         [](const auto& info) { return std::string(workload_name(info.param)); });

// ------------------------------------------------------------- determinism

TEST(Determinism, SameSeedSameOutputs) {
  const Config config = small_config();
  for (Workload w : {Workload::kCampaign, Workload::kStandby}) {
    SCOPED_TRACE(workload_name(w));
    const RepResult a = run_rep(w, 11, config, nullptr);
    const RepResult b = run_rep(w, 11, config, nullptr);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.paper_err_pct, b.paper_err_pct);
  }
}

TEST(Determinism, SeedChangesOutputs) {
  const Config config = small_config();
  EXPECT_NE(run_rep(Workload::kCampaign, 1, config, nullptr).fingerprint,
            run_rep(Workload::kCampaign, 2, config, nullptr).fingerprint);
}

TEST(Determinism, CampaignIndependentOfWorkerCount) {
  Config one = small_config();
  one.campaign_workers = 1;
  Config four = small_config();
  four.campaign_workers = 4;
  const RepResult a = run_rep(Workload::kCampaign, 5, one, nullptr);
  const RepResult b = run_rep(Workload::kCampaign, 5, four, nullptr);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.paper_err_pct, b.paper_err_pct);
}

// Worker count is an execution knob: a 12-device, 3-shard rack must give the
// same results on 1 and 3 workers. The shard count is NOT such a knob yet —
// the diurnal profile plans one FleetAdapter per shard, so the rack's
// results still change with --shards (ROADMAP, "Results invariant to
// execution knobs"). That is why the rack workload reports no modelled
// outcome metric, only host-side ones.
TEST(Determinism, RackIndependentOfWorkerCount) {
  Config one = small_config();
  one.rack_workers = 1;
  Config three = small_config();
  three.rack_workers = 3;
  const RepResult a = run_rep(Workload::kRack, 9, one, nullptr);
  const RepResult b = run_rep(Workload::kRack, 9, three, nullptr);
  EXPECT_TRUE(all_pass(a));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

// ------------------------------------------------------ reference clock

double seconds_between(ReferenceClock::time_point a, ReferenceClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

TEST(ReferenceClock, IsTheSteadyClockWithoutASampler) {
  const auto s0 = std::chrono::steady_clock::now();
  const ReferenceClock::time_point r0 = ReferenceClock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ref = seconds_between(r0, ReferenceClock::now());
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - s0).count();
  EXPECT_GE(ref, 0.019);
  EXPECT_LE(ref, wall);
}

// Under a sampler the clock counts CPU time at the reference rate: it stands
// still while the thread sleeps, advances while it computes, and never goes
// back, also across the sampler's start and end.
TEST(ReferenceClock, CountsOnlyCpuTimeUnderASampler) {
  const ReferenceClock::time_point before = ReferenceClock::now();
  std::vector<double> timings;
  double asleep = 0.0;
  double busy = 0.0;
  {
    ReferenceSampler sampler(ReferenceSampler::Threads::kOne);
    const ReferenceClock::time_point t0 = ReferenceClock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const ReferenceClock::time_point t1 = ReferenceClock::now();
    asleep = seconds_between(t0, t1);
    volatile std::uint64_t x = 1;
    const auto spin_until = std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    while (std::chrono::steady_clock::now() < spin_until) x = x * 6364136223846793005ull + 1;
    busy = seconds_between(t1, ReferenceClock::now());
    timings = sampler.timings();
  }
  EXPECT_GE(seconds_between(before, ReferenceClock::now()), asleep + busy);
  EXPECT_LT(asleep, 0.02);  // only the clock reads themselves cost CPU
  // 300 ms of spinning, less the CPU lost to other tenants, at a reference
  // rate within a factor of four of nominal.
  EXPECT_GT(busy, 0.3 / 4 / 2);
  EXPECT_LT(busy, 0.3 * 4);
  ASSERT_GE(timings.size(), 5u);  // one at the start, one per 50 ms tick
  for (const double t : timings) EXPECT_GT(t, 0.0);
}

// Under a many-thread sampler the clock is wall time at the reference rate,
// and a thread started between ticks may run on every CPU: a tick must not
// leave the sampled thread pinned, or the shard workers it starts would
// share one CPU.
TEST(ReferenceClock, ManyThreadSamplerLeavesNoPin) {
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  double asleep = 0.0;
  cpu_set_t in_thread;
  CPU_ZERO(&in_thread);
  {
    ReferenceSampler sampler(ReferenceSampler::Threads::kMany);
    const ReferenceClock::time_point t0 = ReferenceClock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    asleep = seconds_between(t0, ReferenceClock::now());
    std::thread([&] { sched_getaffinity(0, sizeof(in_thread), &in_thread); }).join();
  }
  EXPECT_TRUE(CPU_EQUAL(&before, &in_thread));
  EXPECT_GT(asleep, 0.2 / 4);
  EXPECT_LT(asleep, 0.2 * 4 * 2);
}

// The ticks interrupt the simulation and move it between CPUs; neither may
// change a simulated output.
TEST(ReferenceClock, SamplerLeavesSimulatedOutputsUnchanged) {
  const Config config = small_config();
  for (Workload w :
       {Workload::kCampaign, Workload::kFleet, Workload::kRack, Workload::kStandby}) {
    SCOPED_TRACE(workload_name(w));
    const RepResult plain = run_rep(w, 3, config, nullptr);
    RepResult sampled;
    {
      ReferenceSampler sampler(w == Workload::kRack ? ReferenceSampler::Threads::kMany
                                                    : ReferenceSampler::Threads::kOne);
      sampled = run_rep(w, 3, config, nullptr);
    }
    EXPECT_EQ(plain.fingerprint, sampled.fingerprint);
  }
}

// ---------------------------------------------------------------- CLI

std::string parse_error(std::vector<std::string> args) {
  const ParseResult r = parse_cli(args);
  EXPECT_FALSE(r.options.has_value());
  return r.error;
}

TEST(Cli, AcceptsTheBenchmarkCommandLine) {
  const ParseResult r = parse_cli(
      {"--workload", "rack", "--seed", "42", "--seconds", "10", "--trace", "1", "--out=dir"});
  ASSERT_TRUE(r.options.has_value()) << r.error;
  EXPECT_EQ(r.options->workload, Workload::kRack);
  EXPECT_EQ(r.options->seed, 42u);
  EXPECT_EQ(r.options->seconds, 10.0);
  EXPECT_TRUE(r.options->trace);
  EXPECT_EQ(r.options->out_dir, "dir");
}

TEST(Cli, UnknownWorkloadIsNamed) {
  const std::string e = parse_error({"--workload", "racks", "--seed", "1"});
  EXPECT_NE(e.find("'racks'"), std::string::npos) << e;
}

TEST(Cli, NonNumericSeedIsNamed) {
  for (const char* bad : {"abc", "-1", "1.5", ""}) {
    const std::string e = parse_error({"--workload", "fleet", "--seed", bad});
    EXPECT_NE(e.find("--seed"), std::string::npos) << e;
    EXPECT_NE(e.find(std::string("'") + bad + "'"), std::string::npos) << e;
  }
}

TEST(Cli, MissingSeedIsNamed) {
  EXPECT_NE(parse_error({"--workload", "fleet"}).find("--seed is required"), std::string::npos);
  EXPECT_NE(parse_error({"--workload", "fleet", "--seed"}).find("--seed: missing value"),
            std::string::npos);
}

TEST(Cli, UnknownFlagIsNamed) {
  const std::string e = parse_error({"--workload", "fleet", "--seed", "1", "--sed", "2"});
  EXPECT_NE(e.find("'--sed'"), std::string::npos) << e;
}

TEST(Cli, BadTraceAndSecondsAreNamed) {
  EXPECT_NE(parse_error({"--workload", "fleet", "--seed", "1", "--trace", "yes"}).find("'yes'"),
            std::string::npos);
  EXPECT_NE(parse_error({"--workload", "fleet", "--seed", "1", "--seconds", "0"}).find("'0'"),
            std::string::npos);
}

// The benchmark binary turns each parse error into exit status 2 and a
// message on stderr, without running a workload.
TEST(Cli, BinaryExitsNonZeroWithTheMessage) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--workload nope --seed 1", "'nope'"},
      {"--workload fleet --seed x1", "'x1'"},
      {"--workload fleet", "--seed is required"},
      {"--workload fleet --seed 1 --frobnicate 3", "'--frobnicate'"},
  };
  for (const auto& [args, expected] : cases) {
    const std::string cmd = std::string(PERFBENCH_BIN) + " " + args + " 2>&1";
    FILE* p = popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::string out;
    std::array<char, 256> buf{};
    while (std::fgets(buf.data(), buf.size(), p) != nullptr) out += buf.data();
    const int status = pclose(p);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2) << args;
    EXPECT_NE(out.find(expected), std::string::npos) << args << " -> " << out;
    EXPECT_EQ(out.find("\"metrics\""), std::string::npos) << args;
  }
}

}  // namespace
}  // namespace perfbench
