// SIGPROF program-counter sampler, loaded into any binary with LD_PRELOAD.
//
// A fallback for hosts without perf(1). Every ITIMER_PROF tick (CPU time,
// not wall time, summed over the process's threads) the handler records the
// interrupted instruction pointer. At exit the samples are written together
// with /proc/self/maps, so scripts/pcsample_report.py can map each address
// back to a symbol with nm. Unlike gprof's -pg, the profiled code is not
// rebuilt or instrumented, so call-heavy functions carry no counting bias.
//
//   c++ -O2 -shared -fPIC -o pcsample.so scripts/pcsample.cpp
//   PCSAMPLE_OUT=samples.txt LD_PRELOAD=./pcsample.so ./some_binary
//   python3 scripts/pcsample_report.py samples.txt
//
// The sampling rate is 997 Hz (prime, so it does not lock onto periodic
// work). Without PCSAMPLE_OUT the shim does nothing.

#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr long kHz = 997;
constexpr std::size_t kMaxSamples = std::size_t{1} << 21;
std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_count{0};

void on_prof(int, siginfo_t*, void* raw) {
  const auto* uc = static_cast<const ucontext_t*>(raw);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pcsample: unsupported architecture"
#endif
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = pc;
}

void set_timer(long usec) {
  itimerval tv{};
  tv.it_interval.tv_sec = usec / 1'000'000;
  tv.it_interval.tv_usec = usec % 1'000'000;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

__attribute__((constructor)) void pcsample_start() {
  if (std::getenv("PCSAMPLE_OUT") == nullptr) return;
  struct sigaction sa {};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  set_timer(1'000'000 / kHz);
}

__attribute__((destructor)) void pcsample_stop() {
  const char* out = std::getenv("PCSAMPLE_OUT");
  if (out == nullptr) return;
  set_timer(0);
  std::FILE* f = std::fopen(out, "w");
  if (f == nullptr) return;
  // Section 1: the address map, copied verbatim.
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, maps)) > 0) {
      std::fwrite(buf, 1, n, f);
    }
    std::fclose(maps);
  }
  // Section 2: one sampled address per line.
  std::size_t count = g_count.load();
  std::fprintf(f, "--- samples %zu\n", count);
  if (count > kMaxSamples) count = kMaxSamples;
  for (std::size_t i = 0; i < count; ++i) {
    std::fprintf(f, "%zx\n", static_cast<std::size_t>(g_pcs[i]));
  }
  std::fclose(f);
}

}  // namespace
