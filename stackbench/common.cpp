// Host measurements, statistics helpers and the span recorder.

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "iq/common/bytes.hpp"
#include "trace.hpp"

namespace stackbench {

void Report::fail(const std::string& why) {
  // A systematic fault fails every message; the first reasons suffice.
  static int printed = 0;
  ++failed;
  if (++printed <= 20) std::fprintf(stderr, "stackbench: FAILED: %s\n", why.c_str());
}

CpuTimes cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image exec replaced (a Python launcher's, say).
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

UdpSnmp udp_snmp_now() {
  // Two "Udp:" lines: field names, then values.
  std::ifstream in("/proc/net/snmp");
  std::string line;
  std::vector<std::string> names;
  UdpSnmp out;
  while (std::getline(in, line)) {
    if (line.rfind("Udp:", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    std::vector<std::string> tok;
    for (std::string t; fields >> t;) tok.push_back(t);
    if (names.empty()) {
      names = tok;
      continue;
    }
    for (std::size_t i = 0; i < names.size() && i < tok.size(); ++i) {
      const std::uint64_t v = std::stoull(tok[i]);
      if (names[i] == "InErrors") out.in_errors = v;
      if (names[i] == "RcvbufErrors") out.rcvbuf_errors = v;
      if (names[i] == "SndbufErrors") out.sndbuf_errors = v;
    }
    break;
  }
  return out;
}

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

std::string host_json(const std::string& link) {
  utsname u{};
  uname(&u);
  std::ostringstream o;
  o << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"kernel\": \""
    << u.sysname << ' ' << u.release << ' ' << u.machine
    << "\", \"crc32_tier\": \"" << iq::crc32_impl_name()
    << "\", \"traffic\": \"" << link << "\"}";
  return o.str();
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Digest::mix_bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
}

// -------------------------------------------------------------- Tracer ---

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::LoopRun: return "loop.run_until";
    case SpanKind::CoreSend: return "core.send_with_attrs";
    case SpanKind::WireSend: return "wire.send";
    case SpanKind::RudpRecv: return "rudp.recv";
    case SpanKind::AppDeliver: return "app.deliver";
    case SpanKind::TimerFire: return "loop.timer_fire";
    case SpanKind::BenchApp: return "bench.app";
    case SpanKind::SimConfig: return "sim.run_experiment";
    case SpanKind::ShardStep: return "sharded.step";
    case SpanKind::kCount: break;
  }
  return "?";
}

Tracer::Tracer() : origin_ns_(mono_ns()) { spans_.reserve(kKeep); }

void Tracer::open(SpanKind kind, std::uint32_t msg_id) {
  const std::int64_t now = mono_ns();
  std::int64_t stored = -1;
  if (spans_.size() < kKeep) {
    stored = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({now, now, depth_ > 0 ? stack_[depth_ - 1].stored : -1,
                      msg_id, kind});
  } else {
    ++dropped_;
  }
  stack_.at(depth_++) = Open{kind, msg_id, now, 0, stored};
}

void Tracer::close() {
  const std::int64_t now = mono_ns();
  const Open o = stack_[--depth_];
  const std::int64_t dur = now - o.start_ns;
  Totals& t = totals_[static_cast<std::size_t>(o.kind)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - o.child_ns;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  if (o.stored >= 0) {
    Stored& s = spans_[static_cast<std::size_t>(o.stored)];
    s.end_ns = now;
    s.msg_id = o.msg_id;
  }
}

bool Tracer::write_json(const std::string& path,
                        const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run\": " << header << ",\n\"totals\": {";
  for (std::size_t k = 0; k < totals_.size(); ++k) {
    const Totals& t = totals_[k];
    out << (k ? ", " : "") << '"' << span_name(static_cast<SpanKind>(k))
        << "\": {\"count\": " << t.count << ", \"total_ns\": " << t.total_ns
        << ", \"self_ns\": " << t.self_ns << '}';
  }
  out << "},\n\"timer_schedules\": " << timer_schedules
      << ", \"timer_cancels\": " << timer_cancels
      << ", \"spans_dropped\": " << dropped_
      << ",\n\"span_fields\": [\"name\", \"start_ns\", \"end_ns\", "
         "\"parent\", \"msg_id\"],\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Stored& s = spans_[i];
    out << (i ? ",\n" : "\n") << "[\"" << span_name(s.kind) << "\", "
        << s.start_ns - origin_ns_ << ", " << s.end_ns - origin_ns_ << ", "
        << s.parent << ", " << s.msg_id << ']';
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void write_trace(const Options& opt, const Tracer& tracer,
                 const std::string& host, Report& r) {
  if (opt.trace_out.empty()) return;
  const std::string header = "{\"workload\": \"" + opt.workload +
                             "\", \"seed\": " + std::to_string(opt.seed) +
                             ", \"host\": " + host + "}";
  if (!tracer.write_json(opt.trace_out, header)) {
    r.fail("could not write " + opt.trace_out);
  }
}

}  // namespace stackbench
