// Simulator workloads: paper_tables and city_fanout.
//
// Both run the same sim/rudp/core code. paper_tables is a small working set
// (1-3 flows per config, one thread); city_fanout is thousands of flows on
// the sharded simulator with per-site congestion managers, the only
// workload that reaches `sharded` and `cm`. The simulator's inner layers
// are not instrumented: the traced run adds spans around the entry points
// (one per config, one per 50 ms simulated step) and otherwise reports
// exact counts the library already keeps.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "bench.hpp"
#include "iq/harness/cityscale.hpp"
#include "iq/harness/runner.hpp"
#include "iq/harness/scenarios.hpp"
#include "iq/net/dumbbell.hpp"
#include "iq/net/network.hpp"
#include "iq/sim/simulator.hpp"
#include "trace.hpp"

namespace stackbench {

namespace {

using iq::harness::ExperimentConfig;
using iq::harness::ExperimentResult;
using iq::harness::SchemeSpec;

long online_cpus() { return sysconf(_SC_NPROCESSORS_ONLN); }

/// Threads for the parallel reference runner: at most four.
std::size_t worker_threads() {
  return static_cast<std::size_t>(std::clamp<long>(online_cpus(), 1, 4));
}

/// CityScale shards: one CPU is left to the lockstep coordinator and the
/// rest of the host. With every CPU busy, a single descheduled thread
/// stalls all shards at the next barrier; on a 4-CPU host that made
/// sim_x_realtime swing from 6.1 to 7.7 between runs, against 5.0-5.3 at
/// three shards.
std::size_t city_shards() {
  return static_cast<std::size_t>(std::clamp<long>(online_cpus() - 1, 1, 4));
}

// --------------------------------------------------------- paper_tables ---

/// Every scheme row of Tables 1-8 (Table 6 at each of its three CBR
/// rates), with the repository's trace and cross-traffic seeds, which
/// define the reproduced tables. The benchmark seed shuffles the order the
/// configs run in. It does not replace the trace seed: other traces change
/// the simulated load, and with it sim_x_realtime, by 10-25% from seed to
/// seed, which would swamp any regression bound.
std::vector<ExperimentConfig> paper_configs(std::uint64_t seed) {
  namespace sc = iq::harness::scenarios;
  using S = SchemeSpec;
  std::vector<ExperimentConfig> cfgs = {
      sc::table1(S::tcp(), false),
      sc::table1(S::rudp(), false),
      sc::table1(S::app_only(), true),
      sc::table1(S::iq_rudp(), true),
      sc::table2(S::tcp()),
      sc::table2(S::rudp()),
      sc::table3(S::iq_rudp()),
      sc::table3(S::rudp()),
      sc::table4(S::iq_rudp()),
      sc::table4(S::rudp()),
      sc::table5(S::iq_rudp()),
      sc::table5(S::rudp()),
  };
  for (const std::int64_t rate : {12'000'000, 16'000'000, 18'000'000}) {
    cfgs.push_back(sc::table6(S::iq_rudp(), rate));
    cfgs.push_back(sc::table6(S::rudp(), rate));
  }
  cfgs.push_back(sc::table7(S::iq_rudp_no_cond()));
  cfgs.push_back(sc::table7(S::rudp()));
  cfgs.push_back(sc::table8(S::iq_rudp()));
  cfgs.push_back(sc::table8(S::iq_rudp_no_cond()));
  cfgs.push_back(sc::table8(S::rudp()));
  std::mt19937_64 rng(derive_seed(seed, 1));
  std::shuffle(cfgs.begin(), cfgs.end(), rng);
  return cfgs;
}

/// Digest of everything a table row is made from.
std::uint64_t result_digest(const ExperimentResult& r) {
  static_assert(std::has_unique_object_representations_v<iq::rudp::RudpStats>);
  Digest d;
  const auto& s = r.summary;
  for (const double v :
       {s.duration_s, s.throughput_kBps, s.interarrival_s, s.jitter_s,
        s.delivered_pct, s.tagged_delay_ms, s.tagged_jitter_ms, s.delay_ms,
        s.jitter_ms, s.owd_mean_ms, s.owd_p50_ms, s.owd_p95_ms,
        r.app_lifetime_loss_ratio, r.max_epoch_loss, r.mean_epoch_loss,
        r.pkt_interarrival_s, r.pkt_jitter_s, r.sim_seconds}) {
    d.mix(v);
  }
  d.mix(s.messages);
  d.mix(s.tagged_messages);
  d.mix(r.rudp);
  d.mix(r.epochs);
  d.mix(r.events_executed);
  d.mix(r.completed);
  return d.h;
}

/// One pass over every config, back to back on the calling thread.
struct Pass {
  double wall_s = 0.0;
  CpuTimes cpu;
  std::uint64_t allocs = 0;
  std::vector<std::uint64_t> digests;
  std::vector<bool> completed;
  std::vector<double> config_wall_us;
  double sim_s = 0.0;
  double bytes = 0.0;
  double msgs = 0.0;
  std::uint64_t events = 0;
  // RUDP application flows only (the TCP rows have no RudpStats).
  std::uint64_t rudp_flows = 0;
  std::uint64_t rudp_events = 0;
  std::uint64_t segments = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t parities = 0;
  std::uint64_t epochs = 0;
};

Pass run_pass(const std::vector<ExperimentConfig>& cfgs, Tracer* tracer) {
  Pass p;
  p.digests.reserve(cfgs.size());
  p.config_wall_us.reserve(cfgs.size());
  const CpuTimes c0 = cpu_now();
  const std::uint64_t a0 = alloc_count();
  const std::int64_t t0 = mono_ns();
  for (const auto& cfg : cfgs) {
    const std::int64_t s0 = mono_ns();
    ExperimentResult r;
    {
      Span span(tracer, SpanKind::SimConfig);
      r = iq::harness::run_experiment(cfg);
    }
    p.config_wall_us.push_back(static_cast<double>(mono_ns() - s0) / 1e3);
    p.digests.push_back(result_digest(r));
    p.completed.push_back(r.completed);
    p.sim_s += r.sim_seconds;
    p.bytes += r.summary.throughput_kBps * 1e3 * r.summary.duration_s;
    p.msgs += static_cast<double>(r.summary.messages);
    p.events += r.events_executed;
    if (!cfg.scheme.use_tcp) {
      ++p.rudp_flows;
      p.rudp_events += r.events_executed;
      p.segments += r.rudp.segments_sent;
      p.retransmits += r.rudp.segments_retransmitted;
      p.timeouts += r.rudp.timeouts;
      p.parities += r.rudp.parities_sent;
      p.epochs += r.epochs;
    }
  }
  p.wall_s = static_cast<double>(mono_ns() - t0) / 1e9;
  p.allocs = alloc_count() - a0;
  p.cpu = cpu_now() - c0;
  return p;
}

/// Scenario construction: the configs and, for each, the simulator,
/// network and dumbbell topology run_experiment builds first.
double paper_setup_s(std::uint64_t seed) {
  const std::int64_t t0 = mono_ns();
  const auto cfgs = paper_configs(seed);
  for (const auto& cfg : cfgs) {
    iq::sim::Simulator sim;
    iq::net::Network net(sim);
    iq::net::Dumbbell topo(net, cfg.net);
  }
  return static_cast<double>(mono_ns() - t0) / 1e9;
}

/// Checks a pass against the reference digests: every config completed and
/// reproduced its reference row. Counts one operation per config.
void check_pass(const Pass& p, const std::vector<std::uint64_t>& ref,
                const char* what, Report& r) {
  for (std::size_t i = 0; i < p.digests.size(); ++i) {
    ++r.attempted;
    if (!p.completed[i]) {
      r.fail(std::string(what) + ": config " + std::to_string(i) +
             " did not complete");
    } else if (p.digests[i] != ref[i]) {
      r.fail(std::string(what) + ": config " + std::to_string(i) +
             " rows differ from its reference output");
    }
  }
}

}  // namespace

Report run_paper_tables(const Options& opt) {
  Report r;
  const std::string host = host_json("simulated (no sockets)");
  std::printf("host %s\n", host.c_str());
  const auto cfgs = paper_configs(opt.seed);

  // The reference: the same configs through the library's parallel runner
  // (other threads, other pools). Each serial pass must match it row for
  // row.
  auto reference = [&] {
    const auto timed = iq::harness::run_experiments(cfgs, worker_threads());
    std::vector<std::uint64_t> d;
    for (const auto& t : timed) d.push_back(result_digest(t.result));
    return d;
  };

  if (!opt.trace) {
    std::vector<double> setups;
    for (int i = 0; i < 21; ++i) setups.push_back(paper_setup_s(opt.seed));
    std::vector<Pass> passes;
    const std::int64_t end = mono_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
    while (passes.size() < 2 || mono_ns() < end) {
      passes.push_back(run_pass(cfgs, nullptr));
    }
    const double rss = peak_rss_mb();
    const auto ref = reference();
    // Rates over all passes: the host's speed drifts by +-20% over
    // seconds, and a total averages over that drift better than a median
    // of passes does.
    double wall = 0, sim_s = 0, bytes = 0, cpu = 0, msgs = 0;
    std::vector<double> lat;
    for (const Pass& p : passes) {
      check_pass(p, ref, "serial pass", r);
      wall += p.wall_s;
      sim_s += p.sim_s;
      bytes += p.bytes;
      cpu += p.cpu.total();
      msgs += p.msgs;
      lat.insert(lat.end(), p.config_wall_us.begin(), p.config_wall_us.end());
    }
    std::printf("paper_tables: %zu configs x %zu passes, %zu latency samples "
                "(wall time per config)\n",
                cfgs.size(), passes.size(), lat.size());
    r.set("setup_s", median(setups));
    r.set("sim_x_realtime", sim_s / wall);
    r.set("goodput_MBps", bytes / 1e6 / wall);
    r.set("cpu_us_per_msg", cpu * 1e6 / msgs);
    r.set("latency_p50_us", quantile(lat, 0.50));
    r.set("latency_p90_us", quantile(lat, 0.90));
    r.set("peak_rss_MB", rss);
    return r;
  }

  // Traced run: untraced and traced passes take turns, so drift in the
  // host's speed falls on both alike and the difference is the tracing
  // overhead.
  Tracer tracer;
  std::vector<Pass> plain, traced;
  const std::int64_t end = mono_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (plain.empty() || mono_ns() < end) {
    plain.push_back(run_pass(cfgs, nullptr));
    traced.push_back(run_pass(cfgs, &tracer));
  }
  const auto ref = reference();
  Report plain_ops, traced_ops;
  for (const Pass& p : plain) check_pass(p, ref, "untraced pass", plain_ops);
  for (const Pass& p : traced) check_pass(p, ref, "traced pass", traced_ops);
  r.attempted = plain_ops.attempted + traced_ops.attempted;
  r.failed = plain_ops.failed + traced_ops.failed;
  if (plain_ops.attempted != traced_ops.attempted ||
      plain_ops.failed != traced_ops.failed) {
    r.fail("traced and untraced passes disagree on operation counts");
  }

  auto sum = [](const std::vector<Pass>& v, auto field) {
    double s = 0.0;
    for (const Pass& p : v) s += static_cast<double>(field(p));
    return s;
  };
  const double wall_t = sum(traced, [](const Pass& p) { return p.wall_s; });
  const double cpu_u = sum(plain, [](const Pass& p) { return p.cpu.total(); });
  const double events = sum(traced, [](const Pass& p) { return p.events; });
  const double msgs = sum(traced, [](const Pass& p) { return p.msgs; });
  const double segs = sum(traced, [](const Pass& p) { return p.segments; });
  const double flows = sum(traced, [](const Pass& p) { return p.rudp_flows; });
  const double user = sum(traced, [](const Pass& p) { return p.cpu.user_s; });
  const double sys = sum(traced, [](const Pass& p) { return p.cpu.sys_s; });
  const double allocs = sum(plain, [](const Pass& p) { return p.allocs; });
  const double plain_events = sum(plain, [](const Pass& p) { return p.events; });
  const double plain_msgs = sum(plain, [](const Pass& p) { return p.msgs; });
  const double n = static_cast<double>(traced.size());

  r.set("sim.ns_per_event", wall_t * 1e9 / events);
  r.set("sim.events_per_segment",
        sum(traced, [](const Pass& p) { return p.rudp_events; }) / segs);
  r.set("alloc.per_event", allocs / plain_events);
  r.set("alloc.per_msg", allocs / plain_msgs);
  r.set("rudp.retransmit_ratio",
        sum(traced, [](const Pass& p) { return p.retransmits; }) / segs);
  r.set("rudp.timeouts", sum(traced, [](const Pass& p) { return p.timeouts; }) / n);
  r.set("rudp.parity_ratio",
        sum(traced, [](const Pass& p) { return p.parities; }) / segs);
  r.set("core.epochs_per_flow",
        sum(traced, [](const Pass& p) { return p.epochs; }) / flows);
  r.set("host.user_us_per_msg", user * 1e6 / msgs);
  r.set("host.sys_us_per_msg", sys * 1e6 / msgs);
  r.set("wire.sys_cpu_share", sys / (user + sys));
  std::vector<double> lat;
  for (const Pass& p : plain) {
    lat.insert(lat.end(), p.config_wall_us.begin(), p.config_wall_us.end());
  }
  r.set("bench.latency_samples", static_cast<double>(lat.size()));
  r.set("bench.latency_p99_us", quantile(lat, 0.99));
  r.set("trace.overhead_pct", ((user + sys) / cpu_u - 1.0) * 100.0);
  write_trace(opt, tracer, host, r);
  return r;
}

// ---------------------------------------------------------- city_fanout ---

namespace {

/// 16 sites x 160 subscribers = 2560 fan-out flows under per-site
/// congestion managers. The scenario keeps the repository's trace seed for
/// the reason paper_tables does: the hub trace sets every frame size, and
/// other traces moved goodput from 144 to 248 MB/s across four seeds.
iq::harness::CityScaleConfig city_config(std::size_t shards) {
  iq::harness::CityScaleConfig cfg;
  cfg.sites = 16;
  cfg.subs_per_site = 160;
  cfg.attach_cm = true;
  cfg.shards = shards;
  cfg.threaded = shards > 1;
  cfg.sim_time = iq::Duration::seconds(8);
  cfg.drain_time = iq::Duration::seconds(2);
  return cfg;
}

struct CityRound {
  double setup_s = 0.0;
  double wall_s = 0.0;
  CpuTimes cpu;
  std::uint64_t allocs = 0;
  iq::harness::CityScaleResult result;
  std::vector<double> step_us;
  double imbalance = 0.0;
  double sim_s = 0.0;
};

/// Latency samples time one step of this much simulated time, five
/// lockstep windows. A single window lasts about 1.5 ms of wall time, and
/// the tail of that was set by how the host happened to schedule the shard
/// threads: its p99 spread 35% between runs.
constexpr iq::Duration kCityStep = iq::Duration::millis(50);

/// Construct the scenario (the set-up), then advance it kCityStep at a time
/// to the end and collect.
CityRound run_city(const iq::harness::CityScaleConfig& cfg, Tracer* tracer) {
  CityRound out;
  const std::int64_t t0 = mono_ns();
  iq::harness::CityScale city(cfg);
  out.setup_s = static_cast<double>(mono_ns() - t0) / 1e9;

  auto& sharded = city.sharded();
  const iq::TimePoint end = iq::TimePoint::zero() + cfg.sim_time + cfg.drain_time;
  out.step_us.reserve(static_cast<std::size_t>(
      (cfg.sim_time + cfg.drain_time).ns() / kCityStep.ns() + 1));
  const CpuTimes c0 = cpu_now();
  const std::uint64_t a0 = alloc_count();
  const std::int64_t r0 = mono_ns();
  while (sharded.now() < end) {
    const std::int64_t w0 = mono_ns();
    {
      Span span(tracer, SpanKind::ShardStep);
      sharded.run_until(std::min(sharded.now() + kCityStep, end));
    }
    out.step_us.push_back(static_cast<double>(mono_ns() - w0) / 1e3);
  }
  out.wall_s = static_cast<double>(mono_ns() - r0) / 1e9;
  out.allocs = alloc_count() - a0;
  out.cpu = cpu_now() - c0;
  out.result = city.collect();
  out.sim_s = (cfg.sim_time + cfg.drain_time).to_seconds();
  double max_ev = 0.0, sum_ev = 0.0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    const auto ev = static_cast<double>(sharded.shard_sim(s).events_executed());
    max_ev = std::max(max_ev, ev);
    sum_ev += ev;
  }
  out.imbalance = max_ev / (sum_ev / static_cast<double>(sharded.shard_count()));
  return out;
}

double city_bytes(const CityRound& c) {
  return c.result.goodput_mbps * 1e6 / 8.0 * c.sim_s;
}

void check_city(const CityRound& c, std::uint64_t ref_digest, const char* what,
                Report& r) {
  ++r.attempted;
  if (c.result.digest != ref_digest) {
    r.fail(std::string(what) + ": digest differs from the 1-shard reference");
  } else if (c.result.fanout_delivered == 0) {
    r.fail(std::string(what) + ": no fan-out message was delivered");
  }
}

}  // namespace

Report run_city_fanout(const Options& opt) {
  Report r;
  const std::string host = host_json("simulated (no sockets)");
  std::printf("host %s\n", host.c_str());
  const auto cfg = city_config(city_shards());
  // The reference: the same scenario on one inline shard, run through the
  // library's own CityScale::run(). Sharding must not change a single bit.
  auto reference = [&] {
    auto one = city_config(1);
    return iq::harness::run_cityscale(one).digest;
  };

  if (!opt.trace) {
    std::vector<CityRound> rounds;
    const std::int64_t end = mono_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
    while (rounds.size() < 3 || mono_ns() < end) {
      rounds.push_back(run_city(cfg, nullptr));
    }
    const double rss = peak_rss_mb();
    const std::uint64_t ref = reference();
    double wall = 0, sim_s = 0, bytes = 0, cpu = 0, msgs = 0;
    std::vector<double> setup, lat;
    for (const CityRound& c : rounds) {
      check_city(c, ref, "sharded run", r);
      setup.push_back(c.setup_s);
      wall += c.wall_s;
      sim_s += c.sim_s;
      bytes += city_bytes(c);
      cpu += c.cpu.total();
      msgs += static_cast<double>(c.result.fanout_delivered);
      lat.insert(lat.end(), c.step_us.begin(), c.step_us.end());
    }
    std::printf("city_fanout: %llu flows, %zu shards, %zu runs, %zu latency "
                "samples (wall time per 50 ms simulated step)\n",
                static_cast<unsigned long long>(rounds[0].result.flows),
                cfg.shards, rounds.size(), lat.size());
    r.set("setup_s", median(setup));
    r.set("sim_x_realtime", sim_s / wall);
    r.set("goodput_MBps", bytes / 1e6 / wall);
    r.set("cpu_us_per_msg", cpu * 1e6 / msgs);
    r.set("latency_p50_us", quantile(lat, 0.50));
    r.set("latency_p90_us", quantile(lat, 0.90));
    r.set("peak_rss_MB", rss);
    return r;
  }

  Tracer tracer;
  std::vector<CityRound> plain, traced;
  const std::int64_t end = mono_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (plain.empty() || mono_ns() < end) {
    plain.push_back(run_city(cfg, nullptr));
    traced.push_back(run_city(cfg, &tracer));
  }
  const std::uint64_t ref = reference();
  Report plain_ops, traced_ops;
  for (const CityRound& c : plain) check_city(c, ref, "untraced run", plain_ops);
  for (const CityRound& c : traced) check_city(c, ref, "traced run", traced_ops);
  r.attempted = plain_ops.attempted + traced_ops.attempted;
  r.failed = plain_ops.failed + traced_ops.failed;
  if (plain_ops.attempted != traced_ops.attempted ||
      plain_ops.failed != traced_ops.failed) {
    r.fail("traced and untraced runs disagree on operation counts");
  }

  double cpu_u = 0, wall_t = 0, events = 0, parcels = 0, epochs = 0, msgs = 0,
         user = 0, sys = 0, allocs = 0, plain_events = 0, plain_msgs = 0;
  std::vector<double> imbalance;
  for (const CityRound& c : plain) {
    cpu_u += c.cpu.total();
    allocs += static_cast<double>(c.allocs);
    plain_events += static_cast<double>(c.result.events_executed);
    plain_msgs += static_cast<double>(c.result.fanout_delivered);
  }
  for (const CityRound& c : traced) {
    wall_t += c.wall_s;
    events += static_cast<double>(c.result.events_executed);
    parcels += static_cast<double>(c.result.parcels_delivered);
    epochs += static_cast<double>(c.result.epochs);
    msgs += static_cast<double>(c.result.fanout_delivered);
    user += c.cpu.user_s;
    sys += c.cpu.sys_s;
    imbalance.push_back(c.imbalance);
  }
  const auto& steps = tracer.totals(SpanKind::ShardStep);
  r.set("sharded.shard_imbalance", median(imbalance));
  r.set("sharded.ns_per_epoch", static_cast<double>(steps.total_ns) / epochs);
  r.set("sharded.parcels_per_epoch", parcels / epochs);
  r.set("sim.ns_per_event", wall_t * 1e9 / events);
  r.set("alloc.per_event", allocs / plain_events);
  r.set("alloc.per_msg", allocs / plain_msgs);
  r.set("host.user_us_per_msg", user * 1e6 / msgs);
  r.set("host.sys_us_per_msg", sys * 1e6 / msgs);
  r.set("wire.sys_cpu_share", sys / (user + sys));
  std::vector<double> lat;
  for (const CityRound& c : plain) {
    lat.insert(lat.end(), c.step_us.begin(), c.step_us.end());
  }
  r.set("bench.latency_samples", static_cast<double>(lat.size()));
  r.set("bench.latency_p99_us", quantile(lat, 0.99));
  r.set("trace.overhead_pct", ((user + sys) / cpu_u - 1.0) * 100.0);
  write_trace(opt, tracer, host, r);
  return r;
}

}  // namespace stackbench
