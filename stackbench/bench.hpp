#pragma once
// Shared pieces of the full-stack benchmark: options, the result record,
// host-side measurements (CPU, memory, kernel UDP counters, allocations)
// and small statistics helpers. Workloads live in sim_workloads.cpp and
// loopback_workloads.cpp; the span recorder and the layer decorators in
// trace.hpp.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace stackbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

/// Metric names and units. Every run reports every end-to-end metric
/// (--trace 0) or every per-layer metric (--trace 1); run.py checks the
/// names against BENCHMARK.json. A per-layer metric that a workload does
/// not exercise (a socket counter in a simulator workload) reads 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_x_realtime", "x"},
    {"goodput_MBps", "MB/s"},
    {"cpu_us_per_msg", "us"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"peak_rss_MB", "MB"},
};
inline constexpr MetricDef kPerLayer[] = {
    {"wire.datagrams_per_msg", "count"},
    {"wire.sendmmsg_per_msg", "count"},
    {"wire.recvmmsg_per_msg", "count"},
    {"wire.tx_batch_mean", "count"},
    {"wire.send_ns", "ns"},
    {"wire.sys_cpu_share", "ratio"},
    {"wire.kernel_rcvbuf_drops", "count"},
    {"wire.kernel_sndbuf_errors", "count"},
    {"wire.kernel_in_errors", "count"},
    {"rudp.acks_per_data_segment", "count"},
    {"rudp.recv_ns_per_segment", "ns"},
    {"rudp.retransmit_ratio", "ratio"},
    {"rudp.timeouts", "count"},
    {"rudp.parity_ratio", "ratio"},
    {"core.send_ns_per_msg", "ns"},
    {"core.epochs_per_flow", "count"},
    {"loop.timer_ops_per_msg", "count"},
    {"loop.timer_fire_ns_per_msg", "ns"},
    {"loop.residual_ns_per_msg", "ns"},
    {"loop.wait_ns_per_msg", "ns"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_segment", "count"},
    {"sharded.shard_imbalance", "ratio"},
    {"sharded.ns_per_epoch", "ns"},
    {"sharded.parcels_per_epoch", "count"},
    {"alloc.per_msg", "count"},
    {"alloc.per_event", "count"},
    {"host.user_us_per_msg", "us"},
    {"host.sys_us_per_msg", "us"},
    {"bench.gen_late_p99_us", "us"},
    {"bench.latency_samples", "count"},
    {"bench.latency_p99_us", "us"},
    {"trace.overhead_pct", "%"},
};

/// What one run prints as its last line (see run.py for the format).
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Count one failed operation and say why on stderr. A failure never
  /// aborts the run: the remaining operations still execute and count.
  void fail(const std::string& why);
};

// ------------------------------------------------------------- clocks ---

inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads), from getrusage(RUSAGE_SELF).
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  double total() const { return user_s + sys_s; }
  CpuTimes operator-(const CpuTimes& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s};
  }
};
CpuTimes cpu_now();

/// Peak resident set of this process image so far, in MB.
double peak_rss_mb();

/// /proc/net/snmp "Udp:" counters of interest; all zero when the file
/// cannot be read.
struct UdpSnmp {
  std::uint64_t in_errors = 0;
  std::uint64_t rcvbuf_errors = 0;
  std::uint64_t sndbuf_errors = 0;
  UdpSnmp operator-(const UdpSnmp& o) const {
    return {in_errors - o.in_errors, rcvbuf_errors - o.rcvbuf_errors,
            sndbuf_errors - o.sndbuf_errors};
  }
};
UdpSnmp udp_snmp_now();

/// Pin the calling thread to the CPU it runs on; returns that CPU, or -1
/// when pinning failed.
int pin_to_current_cpu();

/// Global operator-new calls in this process so far (the benchmark binary
/// replaces the global allocation functions; see main.cpp).
std::uint64_t alloc_count();

/// One line describing the host, printed before the result: core count,
/// kernel, the CRC-32 tier the codec dispatched to, and what carried the
/// traffic.
std::string host_json(const std::string& link);

// ---------------------------------------------------------- statistics ---

/// Linear-interpolated quantile of `v` (sorted in place), q in [0, 1].
double quantile(std::vector<double>& v, double q);
inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// splitmix64: derives independent workload seeds from the command-line
/// seed, so the program only ever sees generated inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a over raw values, for output digests.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void mix_bytes(const void* p, std::size_t n);
  template <typename T>
  void mix(const T& v) {
    mix_bytes(&v, sizeof(v));
  }
};

// ----------------------------------------------------------- workloads ---

Report run_paper_tables(const Options& opt);
Report run_city_fanout(const Options& opt);
Report run_loopback_paced(const Options& opt);

}  // namespace stackbench
