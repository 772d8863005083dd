// Layered workload engine (DESIGN.md section 12): arrival processes,
// replay/keyspace patterns, open-loop drive semantics and SLO accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "fake_device.h"
#include "iogen/arrival.h"
#include "iogen/engine.h"
#include "iogen/replay.h"
#include "sim/simulator.h"

namespace pas::iogen {
namespace {

using testing::FakePowerDevice;

// Captures every submitted request so tests can assert on the op/offset
// stream the pattern layer produced, not just aggregate counts.
class RecordingDevice : public FakePowerDevice {
 public:
  RecordingDevice(sim::Simulator& sim, TimeNs io_latency = microseconds(100))
      : FakePowerDevice(sim, 0.0, io_latency) {}

  void submit(const sim::IoRequest& req, sim::IoCallback done) override {
    requests.push_back(req);
    FakePowerDevice::submit(req, std::move(done));
  }

  std::vector<sim::IoRequest> requests;
};

// --- arrival processes ---

TEST(ArrivalPoisson, MeanInterArrivalMatchesTheRate) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_iops = 1000.0;
  ArrivalProcess p(spec, /*seed=*/42, /*start=*/0);
  const int n = 20000;
  TimeNs prev = 0;
  TimeNs last = 0;
  for (int i = 0; i < n; ++i) {
    const TimeNs at = p.next_at();
    ASSERT_GT(at, prev);  // strictly increasing
    prev = at;
    last = at;
    p.pop();
  }
  // 20k draws at 1000/s should span ~20 s; the sample mean of an exponential
  // at this n is within a few percent with overwhelming probability.
  const double mean_ns = static_cast<double>(last) / n;
  EXPECT_NEAR(mean_ns, 1e6, 3e4);
}

TEST(ArrivalPoisson, SameSeedSameStream) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_iops = 500.0;
  ArrivalProcess a(spec, 7, 0);
  ArrivalProcess b(spec, 7, 0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_at(), b.next_at());
    a.pop();
    b.pop();
  }
}

TEST(ArrivalBursty, ArrivalsLandOnlyInOnWindows) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kBursty;
  spec.rate_iops = 2000.0;
  spec.on_period = seconds(1);
  spec.off_period = seconds(1);
  ArrivalProcess p(spec, 3, 0);
  for (int i = 0; i < 5000; ++i) {
    const TimeNs at = p.next_at();
    // Active time maps into [cycle_start, cycle_start + on_period); the +1
    // monotonicity clamp can push a boundary arrival a hair past it.
    EXPECT_LE(at % (2 * seconds(1)), seconds(1) + 10) << "arrival " << i << " at " << at;
    p.pop();
  }
}

TEST(ArrivalDiurnal, PeakRateExceedsTroughRate) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDiurnal;
  spec.rate_iops = 1000.0;
  spec.period = seconds(60);
  spec.trough_fraction = 0.1;
  ArrivalProcess p(spec, 11, 0);
  // The raised-cosine rate peaks at period/2 and bottoms at 0/period.
  std::uint64_t trough = 0, peak = 0;
  for (TimeNs at = p.next_at(); at < seconds(60); at = p.next_at()) {
    if (at < seconds(6)) ++trough;
    if (at >= seconds(27) && at < seconds(33)) ++peak;
    p.pop();
  }
  EXPECT_GT(peak, 3 * std::max<std::uint64_t>(trough, 1));
}

// --- trace replay ---

std::vector<TraceRecord> sample_records() {
  std::vector<TraceRecord> recs;
  recs.push_back({0, sim::IoOp::kRead, 2048 * kTraceSectorBytes, 4096});
  recs.push_back({microseconds(125), sim::IoOp::kWrite, 0, 8192});
  recs.push_back({microseconds(125), sim::IoOp::kRead, 4096 * kTraceSectorBytes, 4096});
  recs.push_back({milliseconds(2), sim::IoOp::kWrite, 512 * kTraceSectorBytes, 16384});
  return recs;
}

TEST(ReplayTrace, CsvRoundTripIsExact) {
  const ReplayTrace trace = ReplayTrace::from_records(sample_records());
  const std::string path = ::testing::TempDir() + "/pas_roundtrip.csv";
  trace.save_csv(path);
  const ReplayTrace back = ReplayTrace::load_csv(path);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back.records()[i].at, trace.records()[i].at) << i;
    EXPECT_EQ(back.records()[i].op, trace.records()[i].op) << i;
    EXPECT_EQ(back.records()[i].offset, trace.records()[i].offset) << i;
    EXPECT_EQ(back.records()[i].bytes, trace.records()[i].bytes) << i;
  }
  EXPECT_EQ(back.duration(), trace.duration());
  EXPECT_EQ(back.total_bytes(), trace.total_bytes());
  std::remove(path.c_str());
}

// Writes `body` to a fresh file under the test temp dir; returns its path.
std::string write_csv(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(body.c_str(), f);
  std::fclose(f);
  return path;
}

// Every malformed record aborts naming the problem, the field and path:line.
TEST(ReplayTraceDeathTest, NonNumericTimestampAfterDataIsRejected) {
  const std::string path = write_csv("pas_ts_text.csv", "ts,op,lba,len\n0,R,0,4096\nx,R,0,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(path),
               "timestamp must be an unsigned integer, got 'x' at .*pas_ts_text.csv:3");
}

TEST(ReplayTraceDeathTest, BadOpIsRejected) {
  const std::string path = write_csv("pas_bad_op.csv", "0,R,0,4096\n5,T,0,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(path), "op must be R or W, got 'T' at .*pas_bad_op.csv:2");
}

TEST(ReplayTraceDeathTest, ZeroOrMissingLenIsRejected) {
  const std::string zero = write_csv("pas_len_zero.csv", "0,W,8,0\n");
  EXPECT_DEATH(ReplayTrace::load_csv(zero), "len must be .*, got '0' at .*pas_len_zero.csv:1");
  const std::string missing = write_csv("pas_len_missing.csv", "0,W,8,4096\n1,W,8\n");
  EXPECT_DEATH(ReplayTrace::load_csv(missing),
               "len must be .*, got '' at .*pas_len_missing.csv:2");
}

TEST(ReplayTraceDeathTest, SignedFieldsAreRejected) {
  // A signed timestamp on the first line is malformed, not a header row.
  const std::string ts = write_csv("pas_signed_ts.csv", "-5,R,0,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(ts),
               "timestamp must be an unsigned integer, got '-5' at .*pas_signed_ts.csv:1");
  const std::string lba = write_csv("pas_signed_lba.csv", "0,R,-1,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(lba),
               "lba must be an unsigned integer, got '-1' at .*pas_signed_lba.csv:1");
  const std::string len = write_csv("pas_signed_len.csv", "0,R,0,+4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(len), "len must be .* at .*pas_signed_len.csv:1");
}

TEST(ReplayTraceDeathTest, OverflowingFieldsAreRejected) {
  // 2^55 sectors * 512 B wraps a 64-bit byte offset to 0.
  const std::string wrap = write_csv("pas_lba_wrap.csv", "0,R,36028797018963968,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(wrap),
               "lba overflows a 64-bit byte offset, got '36028797018963968'");
  // 23 digits: strtoull would saturate silently.
  const std::string big = write_csv("pas_lba_big.csv", "0,R,12345678901234567890123,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(big), "lba overflows a 64-bit byte offset");
  const std::string ts = write_csv("pas_ts_big.csv", "9223372036854775808,R,0,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(ts),
               "timestamp exceeds INT64_MAX ns, got '9223372036854775808' at .*pas_ts_big.csv:1");
}

TEST(ReplayTraceDeathTest, DecreasingTimestampNamesTheLine) {
  const std::string path = write_csv("pas_ts_back.csv", "10,R,0,4096\n# note\n5,W,0,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(path),
               "timestamp decreases, got '5' at .*pas_ts_back.csv:3");
}

TEST(ReplayTraceDeathTest, FileWithoutRecordsIsRejected) {
  const std::string path = write_csv("pas_empty.csv", "timestamp,op,lba,len\n# none\n\n");
  EXPECT_DEATH(ReplayTrace::load_csv(path), "no records in .*pas_empty.csv");
}

TEST(ReplayEngine, ReplaysEveryRecord) {
  sim::Simulator sim;
  RecordingDevice dev(sim);
  const auto recs = sample_records();
  JobSpec spec;
  spec.pattern_kind = PatternKind::kTraceReplay;
  spec.arrival.kind = ArrivalKind::kTrace;
  spec.trace = std::make_shared<const ReplayTrace>(ReplayTrace::from_records(recs));
  spec.region_bytes = 1 * GiB;
  spec.io_limit_bytes = 0;
  spec.time_limit = seconds(10);
  const JobResult r = run_job(sim, dev, spec);
  ASSERT_EQ(dev.requests.size(), recs.size());
  EXPECT_EQ(r.ios, recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(dev.requests[i].op, recs[i].op) << i;
    EXPECT_EQ(dev.requests[i].offset, recs[i].offset) << i;
    EXPECT_EQ(dev.requests[i].bytes, recs[i].bytes) << i;
  }
}

// --- open-loop drive semantics ---

JobSpec poisson_read_spec(double rate_iops, TimeNs duration) {
  JobSpec s;
  s.pattern = Pattern::kRandom;
  s.op = OpKind::kRead;
  s.block_bytes = 4096;
  s.region_bytes = 1 * GiB;
  s.arrival.kind = ArrivalKind::kPoisson;
  s.arrival.rate_iops = rate_iops;
  s.io_limit_bytes = 0;
  s.time_limit = duration;
  s.seed = 99;
  return s;
}

TEST(OpenLoopEngine, PoissonJobIsDeterministic) {
  JobResult a, b;
  {
    sim::Simulator sim;
    FakePowerDevice dev(sim);
    a = run_job(sim, dev, poisson_read_spec(2000.0, seconds(2)));
  }
  {
    sim::Simulator sim;
    FakePowerDevice dev(sim);
    b = run_job(sim, dev, poisson_read_spec(2000.0, seconds(2)));
  }
  EXPECT_EQ(a.ios, b.ios);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.elapsed, b.elapsed);
  // ~2000/s for 2 s; Poisson counts concentrate tightly at this n.
  EXPECT_NEAR(static_cast<double>(a.ios), 4000.0, 300.0);
}

TEST(OpenLoopEngine, IdleGapsAdvanceInsteadOfAborting) {
  // One short burst every 5 s: between bursts no IO is in flight, and only
  // the engine's own arrival wake is pending. drive() must step to it, not
  // report a stuck engine.
  sim::Simulator sim;
  FakePowerDevice dev(sim);
  JobSpec s;
  s.pattern = Pattern::kSequential;
  s.op = OpKind::kWrite;
  s.block_bytes = 4096;
  s.region_bytes = 1 * GiB;
  s.arrival.kind = ArrivalKind::kBursty;
  s.arrival.rate_iops = 1000.0;
  s.arrival.on_period = milliseconds(10);
  s.arrival.off_period = seconds(5);
  s.io_limit_bytes = 0;
  s.time_limit = seconds(11);
  s.seed = 5;
  const JobResult r = run_job(sim, dev, s);
  EXPECT_GT(r.ios, 0u);
  EXPECT_GE(sim.now(), seconds(11));
}

// Logs every submit and completion as "S<ms>" / "C<ms>" in the order the
// simulator runs them, so a test can compare interleavings.
class LoggingDevice : public FakePowerDevice {
 public:
  explicit LoggingDevice(sim::Simulator& sim)
      : FakePowerDevice(sim, 0.0, milliseconds(1)), sim_(sim) {}

  void submit(const sim::IoRequest& req, sim::IoCallback done) override {
    log.push_back("S" + std::to_string(sim_.now() / milliseconds(1)));
    FakePowerDevice::submit(req, [this, done = std::move(done)](const sim::IoCompletion& c) {
      log.push_back("C" + std::to_string(c.complete_time / milliseconds(1)));
      done(c);
    });
  }

  std::vector<std::string> log;

 private:
  sim::Simulator& sim_;
};

TEST(OpenLoopEngine, SameTimeArrivalOrderDoesNotDependOnStepping) {
  // The third arrival lands exactly when the first two IOs complete. An
  // arrival is a kernel event scheduled after those completions, so it
  // fires after both, however the timeline is advanced.
  JobSpec s;
  s.pattern_kind = PatternKind::kTraceReplay;
  s.arrival.kind = ArrivalKind::kTrace;
  s.trace = std::make_shared<const ReplayTrace>(ReplayTrace::from_records({
      {0, sim::IoOp::kRead, 0, 4096},
      {0, sim::IoOp::kRead, 4096, 4096},
      {milliseconds(1), sim::IoOp::kRead, 8192, 4096},
  }));
  s.region_bytes = 1 * GiB;
  s.io_limit_bytes = 0;
  s.time_limit = seconds(1);

  std::vector<std::string> driven;
  {
    sim::Simulator sim;
    LoggingDevice dev(sim);
    run_job(sim, dev, s);
    driven = dev.log;
  }
  std::vector<std::string> stepped;
  {
    // Epoch stepping as core::Testbed::run_epoch does it: run_until slices.
    sim::Simulator sim;
    LoggingDevice dev(sim);
    IoEngine engine(sim, dev, s);
    engine.start(nullptr);
    for (int epoch = 0; epoch < 10 && !engine.finished(); ++epoch) {
      sim.run_until(sim.now() + milliseconds(5));
    }
    EXPECT_TRUE(engine.finished());
    stepped = dev.log;
  }
  const std::vector<std::string> expected = {"S0", "S0", "C1", "C1", "S1", "C2"};
  EXPECT_EQ(driven, expected);
  EXPECT_EQ(stepped, expected);
}

TEST(OpenLoopEngine, ByteLimitLeavesNoWakePending) {
  {
    // The pump itself notices the limit and arms no further wake.
    sim::Simulator sim;
    FakePowerDevice dev(sim);
    JobSpec s = poisson_read_spec(1000.0, seconds(60));
    s.io_limit_bytes = 64 * 4096;
    const JobResult r = run_job(sim, dev, s);
    EXPECT_EQ(r.ios, 64u);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
  {
    // Each read's write-back is issued on its completion, long before the
    // next arrival, so the write-back that fills the byte budget does so
    // with a wake armed: on_complete must cancel it. The engine is still
    // alive when the queue is checked, so its destructor cannot help.
    sim::Simulator sim;
    RecordingDevice dev(sim);
    JobSpec s = poisson_read_spec(100.0, seconds(60));
    s.pattern_kind = PatternKind::kKeyspace;
    s.key_count = 64;
    s.rmw_pct = 100;
    s.io_limit_bytes = 10 * 4096;
    IoEngine engine(sim, dev, s);
    engine.start(nullptr);
    IoEngine* const e = &engine;
    drive(sim, {&e, 1});
    ASSERT_EQ(dev.requests.size(), 10u);
    EXPECT_EQ(dev.requests.back().op, sim::IoOp::kWrite);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

TEST(SloAccounting, CountsCompletionsSlowerThanTheTarget) {
  // The fake device completes every IO in exactly 1 ms.
  {
    sim::Simulator sim;
    FakePowerDevice dev(sim, 0.0, milliseconds(1));
    JobSpec s = poisson_read_spec(1000.0, seconds(1));
    s.slo_latency = microseconds(500);
    const JobResult r = run_job(sim, dev, s);
    EXPECT_EQ(r.slo_ios, r.ios);
    EXPECT_EQ(r.slo_violations, r.ios);  // 1 ms > 500 us: every IO violates
    EXPECT_EQ(r.slo_violation_rate(), 1.0);
  }
  {
    sim::Simulator sim;
    FakePowerDevice dev(sim, 0.0, milliseconds(1));
    JobSpec s = poisson_read_spec(1000.0, seconds(1));
    s.slo_latency = milliseconds(2);
    const JobResult r = run_job(sim, dev, s);
    EXPECT_EQ(r.slo_ios, r.ios);
    EXPECT_EQ(r.slo_violations, 0u);
    EXPECT_EQ(r.slo_violation_rate(), 0.0);
  }
}

TEST(SloAccounting, ClosedLoopJobsWithoutTargetRecordNothing) {
  sim::Simulator sim;
  FakePowerDevice dev(sim);
  JobSpec s;
  s.pattern = Pattern::kSequential;
  s.op = OpKind::kRead;
  s.block_bytes = 4096;
  s.region_bytes = 1 * GiB;
  s.io_limit_bytes = 1 * MiB;
  const JobResult r = run_job(sim, dev, s);
  EXPECT_EQ(r.slo_ios, 0u);
  EXPECT_EQ(r.slo_violations, 0u);
}

// --- keyspace pattern ---

TEST(Keyspace, DrawsFromABoundedKeyPopulation) {
  sim::Simulator sim;
  RecordingDevice dev(sim);
  JobSpec s;
  s.pattern_kind = PatternKind::kKeyspace;
  s.pattern = Pattern::kRandom;
  s.op = OpKind::kRead;
  s.block_bytes = 4096;
  s.region_bytes = 1 * GiB;
  s.key_count = 8;
  s.io_limit_bytes = 1 * MiB;  // 256 IOs over 8 keys
  s.seed = 17;
  const JobResult r = run_job(sim, dev, s);
  EXPECT_EQ(r.ios, 256u);
  std::set<std::uint64_t> offsets;
  for (const auto& req : dev.requests) offsets.insert(req.offset);
  EXPECT_LE(offsets.size(), 8u);
  EXPECT_GT(offsets.size(), 1u);
}

TEST(Keyspace, RmwIssuesAWriteBackForEveryRead) {
  sim::Simulator sim;
  RecordingDevice dev(sim);
  JobSpec s;
  s.pattern_kind = PatternKind::kKeyspace;
  s.pattern = Pattern::kRandom;
  s.op = OpKind::kRead;
  s.block_bytes = 4096;
  s.region_bytes = 1 * GiB;
  s.key_count = 64;
  s.rmw_pct = 100;
  s.io_limit_bytes = 256 * 1024;
  s.seed = 23;
  run_job(sim, dev, s);
  std::size_t reads = 0, writes = 0;
  for (const auto& req : dev.requests) {
    if (req.op == sim::IoOp::kRead) ++reads;
    if (req.op == sim::IoOp::kWrite) ++writes;
  }
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(reads, writes);  // every read-modify-write pairs a read with its write-back
  // The write-back lands on the key it read.
  EXPECT_EQ(dev.requests[0].op, sim::IoOp::kRead);
  bool paired = false;
  for (std::size_t i = 1; i < dev.requests.size(); ++i) {
    if (dev.requests[i].op == sim::IoOp::kWrite &&
        dev.requests[i].offset == dev.requests[0].offset) {
      paired = true;
      break;
    }
  }
  EXPECT_TRUE(paired);
}

// --- labels (satellite: label() names the layered fields) ---

TEST(JobLabel, NamesTenantSloAndArrival) {
  JobSpec s;
  s.pattern = Pattern::kRandom;
  s.op = OpKind::kRead;
  s.block_bytes = 64 * KiB;
  s.arrival.kind = ArrivalKind::kPoisson;
  s.arrival.rate_iops = 250.0;
  s.tenant = 7;
  s.slo_latency = milliseconds(2);
  const std::string label = s.label();
  EXPECT_NE(label.find("poisson"), std::string::npos) << label;
  EXPECT_NE(label.find("t7"), std::string::npos) << label;
  EXPECT_NE(label.find("slo=2000us"), std::string::npos) << label;
}

TEST(JobLabel, ClosedLoopBasicLabelIsUnchanged) {
  JobSpec s;
  s.pattern = Pattern::kSequential;
  s.op = OpKind::kWrite;
  s.block_bytes = 256 * KiB;
  s.iodepth = 16;
  const std::string label = s.label();
  // The historical shape: no tenant/arrival/SLO suffixes on default specs.
  EXPECT_EQ(label.find("t0"), std::string::npos) << label;
  EXPECT_EQ(label.find("slo"), std::string::npos) << label;
  EXPECT_EQ(label.find("poisson"), std::string::npos) << label;
}

}  // namespace
}  // namespace pas::iogen
