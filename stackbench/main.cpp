// stackbench: the repository's end-to-end benchmark.
//
//   stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <file>]
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   paper_tables    the configs of Tables 1-8, back to back on one thread
//   city_fanout     a reduced CityScale fan-out on the sharded simulator
//   loopback_paced  open-loop 1 KB marked/unmarked/FEC mix at a fixed rate
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 alternates untraced and traced rounds of the same work, reports
// the per-layer ledger plus the tracing overhead, and checks that both
// sides performed identical operations with identical outcomes.
// The last stdout line is the result object; run.py documents its format.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>

#include "bench.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every global operator new in this process is counted,
// so allocations per message or per event are exact, not sampled.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
void* counted(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* counted_aligned(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t size = ((n == 0 ? 1 : n) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}
void* counted_nothrow(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_nothrow(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

std::uint64_t stackbench::alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "stackbench: %s\nusage: stackbench --workload <paper_tables|"
               "city_fanout|loopback_paced> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stackbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  Report r;
  if (opt.workload == "paper_tables") {
    r = run_paper_tables(opt);
  } else if (opt.workload == "city_fanout") {
    r = run_city_fanout(opt);
  } else if (opt.workload == "loopback_paced") {
    r = run_loopback_paced(opt);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  // Every run reports the full metric set of its mode, in a fixed order.
  std::string metrics;
  for (const MetricDef& m : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = r.values.find(m.name);
    if (it == r.values.end() && !opt.trace) {
      r.fail(std::string("workload did not measure ") + m.name);
    }
    const double v = it == r.values.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, v, m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
