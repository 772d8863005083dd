#include "host_speed.h"

#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace perfbench {
namespace {

constexpr long kTickNs = 50'000'000;
constexpr std::size_t kRecent = 3;  // a CPU's rate: the median of its last 3 timings
constexpr std::size_t kMaxTimings = std::size_t{1} << 16;  // 55 minutes of ticks

// The reference kernel, about 2 ms. It allocates nothing: it runs inside a
// signal handler.
constexpr std::uint32_t kSlots = 1u << 13;  // 32 KiB of 32-bit links
constexpr int kHeapOps = 8000;
constexpr std::size_t kHeapSize = 512;
constexpr int kHashSteps = 400000;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  return x ^ (x >> 29);
}

// One cycle through every slot (Sattolo's algorithm), from a fixed seed.
std::array<std::uint32_t, kSlots> make_ring() {
  std::array<std::uint32_t, kSlots> v{};
  std::iota(v.begin(), v.end(), 0u);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {
    x = mix(x);
    std::swap(v[i], v[static_cast<std::uint32_t>(x % i)]);
  }
  return v;
}
const std::array<std::uint32_t, kSlots> g_ring = make_ring();

std::uint64_t reference_kernel() {
  std::array<std::uint64_t, kHeapSize + 1> heap{};
  std::size_t size = 0;
  std::uint32_t at = 0;
  std::uint64_t now = 0;
  for (int i = 0; i < kHeapOps; ++i) {
    at = g_ring[at];
    heap[size++] = now + (at & 0xffffu);
    std::push_heap(heap.begin(), heap.begin() + size, std::greater<>());
    if (size > kHeapSize) {
      std::pop_heap(heap.begin(), heap.begin() + size, std::greater<>());
      now = heap[--size];
    }
  }
  std::uint64_t x = now + at;
  std::uint64_t acc = 0;
  for (int i = 0; i < kHashSteps; ++i) {
    x = mix(x);
    if (x & 1) {
      acc += x >> 7;
    } else {
      acc ^= x;
    }
  }
  return acc;
}

std::int64_t ns_of(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ReferenceClock reads anchor_s + (t - anchor_ns) * rate at base time t: the
// thread's CPU time under a kOne sampler, steady time otherwise. Only the
// tick and the sampler write these, on the sampled thread, so a reader on
// that thread sees all of an update or none of it; `seq` changes with every
// update and makes the reader retry when a tick lands mid-read.
std::atomic<std::uint32_t> g_seq{0};
std::atomic<bool> g_cpu_base{false};
std::atomic<std::int64_t> g_anchor_ns{0};
std::atomic<double> g_anchor_s{0.0};
std::atomic<double> g_rate{1.0};

std::int64_t base_ns() {
  return ns_of(g_cpu_base.load(std::memory_order_relaxed) ? CLOCK_THREAD_CPUTIME_ID
                                                          : CLOCK_MONOTONIC);
}

double clock_at(std::int64_t t_ns) {
  return g_anchor_s.load(std::memory_order_relaxed) +
         static_cast<double>(t_ns - g_anchor_ns.load(std::memory_order_relaxed)) * 1e-9 *
             g_rate.load(std::memory_order_relaxed);
}

// Re-anchors the clock: from base time `t_ns` (CPU time if `cpu_base`) it
// reads `anchor_s` and advances at `rate`.
void set_clock(bool cpu_base, std::int64_t t_ns, double anchor_s, double rate) {
  g_seq.fetch_add(1, std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  g_cpu_base.store(cpu_base, std::memory_order_relaxed);
  g_anchor_ns.store(t_ns, std::memory_order_relaxed);
  g_anchor_s.store(anchor_s, std::memory_order_relaxed);
  g_rate.store(rate, std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  g_seq.fetch_add(1, std::memory_order_relaxed);
}

// The live sampler. Set up before the timer starts; afterwards only the
// tick touches it, except timings(), which blocks the tick while it reads.
struct Sampler {
  bool many = false;  // ReferenceSampler::Threads::kMany
  std::vector<int> cpus;
  cpu_set_t allowed{};
  std::vector<std::array<double, kRecent>> recent;  // per CPU, newest last
  std::vector<double> timings;                      // reserved: the tick never allocates
  std::size_t next = 0;
  timer_t timer{};
};
Sampler* g_sampler = nullptr;
volatile std::uint64_t g_sink = 0;

// Times the reference kernel, in CPU time, on the sampler's k-th CPU. With
// many threads the caller gets its whole CPU set back afterwards: threads it
// starts inherit its affinity.
void time_kernel(Sampler& s, std::size_t k) {
  if (s.cpus.size() > 1) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(s.cpus[k], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  const std::int64_t t0 = ns_of(CLOCK_THREAD_CPUTIME_ID);
  g_sink = g_sink + reference_kernel();
  const double took = static_cast<double>(ns_of(CLOCK_THREAD_CPUTIME_ID) - t0) * 1e-9;
  if (s.many && s.cpus.size() > 1) sched_setaffinity(0, sizeof(s.allowed), &s.allowed);
  std::array<double, kRecent>& r = s.recent[k];
  if (r.back() == 0.0) r.fill(took);  // first visit to this CPU
  std::rotate(r.begin(), r.begin() + 1, r.end());
  r.back() = took;
  if (s.timings.size() < s.timings.capacity()) s.timings.push_back(took);
}

double recent_median(const Sampler& s, std::size_t k) {
  std::array<double, kRecent> sorted = s.recent[k];
  std::sort(sorted.begin(), sorted.end());
  return sorted[kRecent / 2];
}

void tick(int /*signo*/) {
  const int saved_errno = errno;
  Sampler& s = *g_sampler;
  const std::size_t k = s.next++ % s.cpus.size();
  if (s.many) {
    // Wall time, and the tick counts: the other threads run on through it.
    // Their speed is that of all CPUs together.
    const std::int64_t t = ns_of(CLOCK_MONOTONIC);
    time_kernel(s, k);
    double mean = 0.0;
    for (std::size_t c = 0; c < s.cpus.size(); ++c) mean += recent_median(s, c);
    mean /= static_cast<double>(s.cpus.size());
    set_clock(false, t, clock_at(t), kReferenceNominalS / mean);
  } else {
    // The thread's CPU time; the tick itself is not counted. The thread runs
    // on the CPU the tick leaves it on until the next tick.
    const std::int64_t t_stop = ns_of(CLOCK_THREAD_CPUTIME_ID);
    time_kernel(s, k);
    set_clock(true, ns_of(CLOCK_THREAD_CPUTIME_ID), clock_at(t_stop),
              kReferenceNominalS / recent_median(s, k));
  }
  errno = saved_errno;
}

}  // namespace

ReferenceClock::time_point ReferenceClock::now() noexcept {
  for (;;) {
    const std::uint32_t seq = g_seq.load(std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    const double s = clock_at(base_ns());
    std::atomic_signal_fence(std::memory_order_seq_cst);
    if (g_seq.load(std::memory_order_relaxed) == seq) return time_point(duration(s));
  }
}

ReferenceSampler::ReferenceSampler(Threads threads) {
  PAS_CHECK_MSG(g_sampler == nullptr, "only one ReferenceSampler may be alive");
  auto* s = new Sampler;
  s->many = threads == Threads::kMany;
  CPU_ZERO(&s->allowed);
  if (sched_getaffinity(0, sizeof(s->allowed), &s->allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &s->allowed)) s->cpus.push_back(c);
    }
  }
  if (s->cpus.empty()) s->cpus.push_back(-1);  // affinity unknown: stay put
  s->recent.assign(s->cpus.size(), std::array<double, kRecent>{});
  s->timings.reserve(kMaxTimings);
  g_sampler = s;
  // Every CPU's speed before the first tick, then a rate from it.
  for (std::size_t k = 0; k + 1 < s->cpus.size(); ++k) time_kernel(*s, k);
  s->next = s->cpus.size() - 1;
  if (!s->many) {
    set_clock(true, ns_of(CLOCK_THREAD_CPUTIME_ID), clock_at(ns_of(CLOCK_MONOTONIC)), 1.0);
  }
  tick(0);

  struct sigaction sa {};
  sa.sa_handler = tick;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  PAS_CHECK(sigaction(SIGALRM, &sa, nullptr) == 0);
  sigevent ev{};
  ev.sigev_notify = SIGEV_THREAD_ID;
  ev.sigev_signo = SIGALRM;
  ev._sigev_un._tid = gettid();  // glibc's name for sigev_notify_thread_id
  PAS_CHECK(timer_create(CLOCK_MONOTONIC, &ev, &s->timer) == 0);
  itimerspec every{};
  every.it_interval.tv_nsec = kTickNs;
  every.it_value.tv_nsec = kTickNs;
  PAS_CHECK(timer_settime(s->timer, 0, &every, nullptr) == 0);
}

ReferenceSampler::~ReferenceSampler() {
  timer_delete(g_sampler->timer);
  // Ignoring the signal also discards one still pending; then the default
  // action comes back.
  struct sigaction sa {};
  sa.sa_handler = SIG_IGN;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGALRM, &sa, nullptr);
  sa.sa_handler = SIG_DFL;
  sigaction(SIGALRM, &sa, nullptr);
  // From here the clock runs on at wall speed.
  const double reading = clock_at(base_ns());
  set_clock(false, ns_of(CLOCK_MONOTONIC), reading, 1.0);
  if (g_sampler->cpus.size() > 1) {
    sched_setaffinity(0, sizeof(g_sampler->allowed), &g_sampler->allowed);
  }
  delete g_sampler;
  g_sampler = nullptr;
}

std::vector<double> ReferenceSampler::timings() const {
  sigset_t block;
  sigemptyset(&block);
  sigaddset(&block, SIGALRM);
  sigset_t old;
  pthread_sigmask(SIG_BLOCK, &block, &old);
  std::vector<double> out = g_sampler->timings;
  pthread_sigmask(SIG_SETMASK, &old, nullptr);
  return out;
}

}  // namespace perfbench
