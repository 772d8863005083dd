// Micro-benchmarks (google-benchmark) of the simulator substrate's hot
// paths: event scheduling, RNG, latency histogram, and the SSD device fast
// path. These bound how long the paper-scale sweeps take.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "devices/specs.h"
#include "sim/simulator.h"
#include "ssd/device.h"

namespace pas {
namespace {

void BM_SimulatorScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(microseconds(i), [&fired] { ++fired; });
    }
    sim.run_to_completion();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleAndRun);

void BM_SimulatorCascade(benchmark::State& state) {
  // Self-rescheduling chain: the pattern device models use constantly.
  for (auto _ : state) {
    sim::Simulator sim;
    int depth = 0;
    std::function<void()> chain = [&] {
      if (++depth < 1000) sim.schedule_after(100, chain);
    };
    sim.schedule_after(0, chain);
    sim.run_to_completion();
    benchmark::DoNotOptimize(depth);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorCascade);

void BM_SimulatorCancelHeavy(benchmark::State& state) {
  // Timeout-guard pattern (governor retry, ALPM timers, HDD idle spindown):
  // every useful event is paired with a far-future guard that is cancelled
  // before it can fire.
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    std::vector<sim::Simulator::EventId> guards;
    guards.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(microseconds(i), [&fired] { ++fired; });
      guards.push_back(sim.schedule_at(seconds(10) + microseconds(i), [&fired] { ++fired; }));
    }
    for (auto id : guards) sim.cancel(id);
    sim.run_to_completion();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_SimulatorCancelHeavy);

void BM_SimulatorPeriodicTicks(benchmark::State& state) {
  // Fixed-rate sampling tick: the ADC (1 kHz) and governor-window pattern.
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t ticks = 0;
    sim::PeriodicTask task(sim, microseconds(10), [&ticks] { ++ticks; });
    task.start();
    sim.run_until(milliseconds(10));
    task.stop();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorPeriodicTicks);

// The measured campaign/fleet traffic shape: `chains` events in flight,
// each stepping through a cycle of 12 constant delays (firmware stages,
// channel transfers, NAND read/program/erase, link, destage timer), with
// about 5 % of steps taking an exponentially distributed one-off delay
// instead (Poisson arrivals, HDD seeks, the background timer).
class DelayMix {
 public:
  DelayMix(int chains, std::uint64_t events) : steps_(static_cast<std::size_t>(chains)),
                                                 budget_(events) {}

  std::uint64_t run() {
    for (std::size_t c = 0; c < steps_.size(); ++c) {
      steps_[c] = c % std::size(kDelays);
      sim_.schedule_after(kDelays[steps_[c]], Step{this, c});
    }
    sim_.run_to_completion();
    return fired_;
  }

 private:
  static constexpr TimeNs kDelays[12] = {1'500,  4'000,   6'000,   8'000,   10'000,  20'000,
                                         62'500, 70'000, 200'000, 600'000, 1'000'000, 3'000'000};

  struct Step {
    DelayMix* mix;
    std::size_t chain;
    void operator()() const { mix->step(chain); }
  };

  void step(std::size_t chain) {
    if (++fired_ >= budget_) return;
    TimeNs delay;
    if (rng_.next_below(100) < 5) {
      delay = static_cast<TimeNs>(-std::log(std::max(1e-12, rng_.next_double())) * 100'000.0);
    } else {
      steps_[chain] = (steps_[chain] + 1) % std::size(kDelays);
      delay = kDelays[steps_[chain]];
    }
    sim_.schedule_after(delay, Step{this, chain});
  }

  sim::Simulator sim_;
  Rng rng_{1};
  std::vector<std::size_t> steps_;
  std::uint64_t budget_;
  std::uint64_t fired_ = 0;
};

void BM_SimulatorDelayMix(benchmark::State& state) {
  std::uint64_t fired = 0;
  for (auto _ : state) {
    DelayMix mix(static_cast<int>(state.range(0)), 100'000);
    fired += mix.run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_SimulatorDelayMix)->Arg(16)->Arg(64);

void BM_RngNextBelow(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += rng.next_below(1'000'000);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNextBelow);

void BM_LatencyHistogramAdd(benchmark::State& state) {
  LatencyHistogram h;
  Rng rng(2);
  for (auto _ : state) h.add(static_cast<std::int64_t>(rng.next_below(10'000'000)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyHistogramAdd);

void BM_SsdWritePath(benchmark::State& state) {
  // End-to-end cost of simulating one 64 KiB write through the full device.
  sim::Simulator sim;
  ssd::SsdDevice dev(sim, devices::ssd2_p5510(), 1);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    bool done = false;
    dev.submit(sim::IoRequest{sim::IoOp::kWrite, offset, 64 * KiB},
               [&done](const sim::IoCompletion&) { done = true; });
    while (!done) sim.step();
    offset = (offset + 64 * KiB) % (1 * GiB);
  }
  sim.run_to_completion();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SsdWritePath);

void BM_SsdReadPath(benchmark::State& state) {
  sim::Simulator sim;
  ssd::SsdDevice dev(sim, devices::ssd2_p5510(), 1);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    bool done = false;
    dev.submit(sim::IoRequest{sim::IoOp::kRead, offset, 4096},
               [&done](const sim::IoCompletion&) { done = true; });
    while (!done) sim.step();
    offset = (offset + 4096) % (1 * GiB);
  }
  sim.run_to_completion();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SsdReadPath);

}  // namespace
}  // namespace pas

BENCHMARK_MAIN();
