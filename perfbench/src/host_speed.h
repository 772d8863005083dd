// Host times at a reference host speed. The benchmark runs on virtual CPUs
// that share physical cores with other tenants. The hypervisor takes each
// one away for a while now and then (steal time), and how fast each runs
// drifts by tens of percent over seconds, independently of the others. Raw
// wall-clock times are then not comparable from run to run, however long
// each run is.
//
// A ReferenceSampler interrupts the thread that built it every 50 ms. Each
// tick times a fixed reference kernel, in CPU time, on the next CPU the
// thread may use. The kernel is owned by the benchmark: a pointer chase
// feeding a binary heap of event times, then a branchy integer hash loop.
// These are shapes of the simulator's hot paths, but none of its code.
// ReferenceClock then advances at kReferenceNominalS / (recent kernel time)
// times its base clock:
//
//  * kOne, a single-threaded workload: the base is the thread's CPU time,
//    which leaves out steal time (the guest kernel accounts it apart), and
//    the speed is that of the CPU the tick leaves the thread on. The tick
//    itself is not counted.
//  * kMany, a workload whose threads fill every CPU: the base is wall time
//    and the speed the mean over all CPUs. The tick counts, since the other
//    threads run on through it, and it gives the thread its whole CPU set
//    back, since threads it starts inherit its affinity.
//
// A host time read from the clock is thus in seconds of a host on which the
// kernel takes kReferenceNominalS. A change to the simulator moves it as
// much as it moves wall time. A CPU that is slow or taken away moves it much
// less.
#pragma once

#include <chrono>
#include <ratio>
#include <vector>

namespace perfbench {

// The reference kernel's time on the 4-vCPU host that README.md's baseline
// was taken on.
inline constexpr double kReferenceNominalS = 0.0022;

// Seconds at the reference speed while a ReferenceSampler is alive (then
// only the thread that built it may read the clock); the steady clock's
// seconds otherwise.
struct ReferenceClock {
  using rep = double;
  using period = std::ratio<1>;
  using duration = std::chrono::duration<rep, period>;
  using time_point = std::chrono::time_point<ReferenceClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept;
};

// Drives ReferenceClock from a timer signal aimed at the thread that built
// it. At most one may be alive at a time.
class ReferenceSampler {
 public:
  enum class Threads { kOne, kMany };

  explicit ReferenceSampler(Threads threads);
  ~ReferenceSampler();
  ReferenceSampler(const ReferenceSampler&) = delete;
  ReferenceSampler& operator=(const ReferenceSampler&) = delete;

  // Every reference kernel time taken so far, in CPU seconds.
  std::vector<double> timings() const;
};

}  // namespace perfbench
