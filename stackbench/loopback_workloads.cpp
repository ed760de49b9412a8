// Real-socket workload: loopback_paced.
//
// Two IqRudpConnections share one RealtimeLoop thread and talk over real
// 127.0.0.1 UDP sockets, so every message crosses the whole stack:
// send_with_attrs -> coordinator -> RudpConnection -> codec/CRC -> UdpWire
// (sendmmsg) -> kernel -> UdpWire (recvmmsg) -> decode -> RudpConnection ->
// the peer's delivery callback. An open loop sends kPacedRate msg/s of 1 KB
// messages in a seeded marked/unmarked/FEC mix, each carrying adaptation
// attributes, from the loop's own timers. Latency runs from each message's
// scheduled send time to the peer's delivery callback.
//
// The wire is not impaired: loss in userspace made RTO stalls swing
// latency by four orders of magnitude run to run, so loss is measured in
// the simulator workloads instead.
//
// Work is done in rounds of a fixed number of messages. Every round checks
// that each marked and FEC message arrived exactly once, in order, with its
// byte count, and that unmarked losses stay within the receiver's
// advertised tolerance.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "iq/attr/names.hpp"
#include "iq/core/iq_connection.hpp"
#include "iq/wire/udp_wire.hpp"
#include "trace.hpp"

namespace stackbench {

namespace {

using iq::Duration;
using iq::TimePoint;

constexpr std::size_t kPacedRoundMsgs = 1000;
constexpr double kPacedRate = 10'000.0;  ///< messages per second
constexpr std::int32_t kPacedBytes = 1024;
constexpr double kRecvTolerance = 0.10;  ///< receiver's unmarked loss budget
constexpr int kSetups = 31;

/// Two distinct free UDP ports on 127.0.0.1, found by binding port 0 with
/// both probe sockets open at once.
std::pair<std::uint16_t, std::uint16_t> free_ports() {
  std::uint16_t ports[2] = {0, 0};
  int fds[2] = {-1, -1};
  for (int i = 0; i < 2; ++i) {
    fds[i] = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fds[i] >= 0 &&
        ::bind(fds[i], reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::getsockname(fds[i], reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      ports[i] = ntohs(addr.sin_port);
    }
  }
  for (const int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
  return {ports[0], ports[1]};
}

/// Both endpoints on one loop. With a tracer, each connection sees its
/// UdpWire through a TracedWire and the loop through a TracedExecutor;
/// without one, the connections use the UdpWires directly.
struct Stack {
  Stack(std::uint16_t client_port, std::uint16_t server_port, Tracer* tracer)
      : client_wire(loop, client_port, server_port),
        server_wire(loop, server_port, client_port) {
    iq::rudp::SegmentWire* cw = &client_wire;
    iq::rudp::SegmentWire* sw = &server_wire;
    if (tracer != nullptr) {
      traced_exec = std::make_unique<TracedExecutor>(loop, *tracer);
      traced_client = std::make_unique<TracedWire>(client_wire, *traced_exec, *tracer);
      traced_server = std::make_unique<TracedWire>(server_wire, *traced_exec, *tracer);
      cw = traced_client.get();
      sw = traced_server.get();
    }
    iq::rudp::RudpConfig ccfg;
    iq::rudp::RudpConfig scfg;
    scfg.recv_loss_tolerance = kRecvTolerance;
    client = std::make_unique<iq::core::IqRudpConnection>(*cw, ccfg,
                                                          iq::rudp::Role::Client);
    server = std::make_unique<iq::core::IqRudpConnection>(*sw, scfg,
                                                          iq::rudp::Role::Server);
  }

  bool handshake() {
    server->listen();
    client->connect();
    return loop.run_until(
        [&] { return client->established() && server->established(); },
        Duration::seconds(2));
  }

  iq::wire::RealtimeLoop loop;
  iq::wire::UdpWire client_wire;
  iq::wire::UdpWire server_wire;
  std::unique_ptr<TracedExecutor> traced_exec;
  std::unique_ptr<TracedWire> traced_client;
  std::unique_ptr<TracedWire> traced_server;
  std::unique_ptr<iq::core::IqRudpConnection> client;
  std::unique_ptr<iq::core::IqRudpConnection> server;
};

/// Bind plus handshake, from nothing to two established connections.
/// Returns the stack, or nullptr when the handshake did not complete.
std::unique_ptr<Stack> open_stack(Tracer* tracer, double* seconds, Report& r) {
  const std::int64_t t0 = mono_ns();
  const auto [cp, sp] = free_ports();
  ++r.attempted;
  if (cp == 0 || sp == 0) {
    r.fail("no free UDP port on 127.0.0.1");
    return nullptr;
  }
  auto st = std::make_unique<Stack>(cp, sp, tracer);
  if (!st->handshake()) {
    r.fail("handshake did not complete");
    return nullptr;
  }
  if (seconds != nullptr) *seconds = static_cast<double>(mono_ns() - t0) / 1e9;
  return st;
}

enum class Cls : std::uint8_t { Marked, Unmarked, Fec };

/// What the receiver must see for one round, indexed by msg_id - base.
struct Ledger {
  struct Expect {
    std::int64_t t_ns = 0;  ///< scheduled send time, the latency origin
    std::int32_t bytes = 0;
    Cls cls = Cls::Marked;
    bool delivered = false;
  };
  std::vector<Expect> expect;
  std::vector<double> latency_us;
  std::uint32_t base = 0;
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::size_t discarded = 0;  ///< unmarked messages the sender dropped
  std::uint32_t last_id = 0;
  Report* report = nullptr;

  explicit Ledger(std::size_t n) : expect(n) { latency_us.reserve(n); }

  void reset(Report& r) {
    report = &r;
    sent = delivered = discarded = 0;
    latency_us.clear();
  }

  void on_sent(const iq::rudp::RudpConnection::SendResult& res,
               std::int64_t t_ns, std::int32_t bytes, Cls cls) {
    if (sent == 0) {
      base = res.msg_id;
      last_id = base - 1;
    }
    if (res.msg_id != base + sent) report->fail("message ids not sequential");
    expect[sent] = {t_ns, bytes, cls, false};
    ++sent;
    if (res.discarded) ++discarded;
  }

  void on_delivered(const iq::rudp::DeliveredMessage& m, std::int64_t now_ns) {
    const std::uint32_t idx = m.msg_id - base;
    if (idx >= sent) {
      report->fail("delivered a message that was not sent this round");
      return;
    }
    Expect& e = expect[idx];
    if (e.delivered) {
      report->fail("message " + std::to_string(m.msg_id) + " delivered twice");
      return;
    }
    if (static_cast<std::int32_t>(m.msg_id - last_id) <= 0) {
      report->fail("message " + std::to_string(m.msg_id) + " out of order");
    }
    if (m.bytes != e.bytes) {
      report->fail("message " + std::to_string(m.msg_id) + " has " +
                   std::to_string(m.bytes) + " bytes, sent " +
                   std::to_string(e.bytes));
    }
    e.delivered = true;
    last_id = m.msg_id;
    ++delivered;
    latency_us.push_back(static_cast<double>(now_ns - e.t_ns) / 1e3);
  }

  /// Round-end check. Every marked and FEC message is one operation that
  /// fails unless delivered; unmarked messages fail as a group when their
  /// losses exceed the receiver's tolerance.
  void settle() {
    std::size_t unmarked_lost = 0;
    for (std::size_t i = 0; i < sent; ++i) {
      ++report->attempted;
      if (expect[i].delivered) continue;
      if (expect[i].cls == Cls::Unmarked) {
        ++unmarked_lost;
      } else {
        report->fail("message " + std::to_string(base + i) + " never delivered");
      }
    }
    if (static_cast<double>(unmarked_lost) >
        kRecvTolerance * static_cast<double>(sent)) {
      report->fail(std::to_string(unmarked_lost) +
                   " unmarked messages lost, beyond the tolerance");
    }
  }
};

/// Protocol and wire counters of one stack, cumulative.
struct StackCounters {
  iq::wire::UdpWireStats cw, sw;
  iq::rudp::RudpStats cs, ss;

  static StackCounters take(const Stack& st) {
    return {st.client_wire.stats(), st.server_wire.stats(),
            st.client->transport().stats(), st.server->transport().stats()};
  }
};

/// One round's measurements; host-wide counters are taken around each
/// round, so rounds of two interleaved stacks never mix.
struct RoundStats {
  double wall_s = 0.0;
  double bytes = 0.0;
  double msgs = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double allocs = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double gen_late_p99_us = 0.0;
  UdpSnmp snmp;
};

/// Open loop at a fixed rate, scheduled on the loop's own timers.
class PacedGenerator {
 public:
  explicit PacedGenerator(std::uint64_t seed) : rng_(derive_seed(seed, 5)) {
    attrs_.set(iq::attr::kAdaptMark, 0.0);  // a reliability adaptation of 0
    attrs_.set(iq::attr::kAppFrameBytes, std::int64_t{kPacedBytes});
    late_us_.reserve(kPacedRoundMsgs);
  }
  /// Run one round; false if it stalled.
  bool round(Stack& st, Ledger& ledger, Tracer* tracer, RoundStats& out) {
    st_ = &st;
    ledger_ = &ledger;
    tracer_ = tracer;
    out_ = &out;
    next_ = 0;
    late_us_.clear();
    start_ns_ = st.loop.now().ns() + 1'000'000;
    gen_id_ = st.loop.schedule_at(TimePoint::from_ns(start_ns_), [this] { fire(); });
    const auto& rs = st.server->transport().stats();
    const std::uint64_t dropped0 = rs.messages_dropped;
    Span run(tracer, SpanKind::LoopRun);
    const bool ok = st.loop.run_until(
        [&] {
          return next_ == kPacedRoundMsgs &&
                 ledger.delivered + ledger.discarded +
                         (rs.messages_dropped - dropped0) >=
                     kPacedRoundMsgs;
        },
        Duration::seconds(20));
    if (!late_us_.empty()) out.gen_late_p99_us = quantile(late_us_, 0.99);
    // A stalled round leaves the generator armed; stop it before the stack
    // can go away.
    if (next_ < kPacedRoundMsgs) {
      st.loop.cancel_event(gen_id_);
      next_ = kPacedRoundMsgs;
    }
    return ok;
  }

 private:
  std::int64_t due_ns(std::size_t i) const {
    return start_ns_ + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                                 kPacedRate);
  }

  Cls draw_class() {
    const auto u = rng_() % 100;
    return u < 50 ? Cls::Marked : u < 80 ? Cls::Unmarked : Cls::Fec;
  }

  void fire() {
    Span app(tracer_, SpanKind::BenchApp);
    const std::int64_t now = st_->loop.now().ns();
    while (next_ < kPacedRoundMsgs && due_ns(next_) <= now) {
      const std::int64_t due = due_ns(next_);
      late_us_.push_back(static_cast<double>(now - due) / 1e3);
      const Cls cls = draw_class();
      iq::rudp::MessageSpec spec;
      spec.bytes = kPacedBytes;
      spec.marked = cls != Cls::Unmarked;
      spec.fec = cls == Cls::Fec;
      iq::rudp::RudpConnection::SendResult res;
      {
        Span s(tracer_, SpanKind::CoreSend);
        res = st_->client->send_with_attrs(spec, attrs_);
        if (tracer_ != nullptr) tracer_->set_msg(res.msg_id);
      }
      ledger_->on_sent(res, due, kPacedBytes, cls);
      out_->bytes += kPacedBytes;
      ++next_;
    }
    if (next_ < kPacedRoundMsgs) {
      gen_id_ = st_->loop.schedule_at(TimePoint::from_ns(due_ns(next_)),
                                      [this] { fire(); });
    }
  }

  std::mt19937_64 rng_;
  iq::attr::AttrList attrs_;
  std::vector<double> late_us_;
  Stack* st_ = nullptr;
  Ledger* ledger_ = nullptr;
  Tracer* tracer_ = nullptr;
  RoundStats* out_ = nullptr;
  std::size_t next_ = 0;
  std::int64_t start_ns_ = 0;
  iq::sim::EventId gen_id_ = 0;
};

/// One established stack and the generator driving it, measured round by
/// round. Each session has its own seeded generator, so two sessions of one
/// run send identical message sequences.
class Session {
 public:
  Session(std::unique_ptr<Stack> st, std::uint64_t seed, Tracer* tracer)
      : gen_(seed), tracer_(tracer), ledger_(kPacedRoundMsgs), st_(std::move(st)) {
    st_->server->set_message_handler([this](const iq::rudp::DeliveredMessage& m) {
      Span s(tracer_, SpanKind::AppDeliver, m.msg_id);
      ledger_.on_delivered(m, st_->loop.now().ns());
    });
    st_->client->set_epoch_observer([this](const iq::rudp::EpochReport&) { ++epochs; });
    st_->client->enable_fec();
    rounds.reserve(4096);
    before = StackCounters::take(*st_);
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// One round; false when it stalled (the caller stops the run).
  bool round() {
    RoundStats rs;
    ledger_.reset(ops);
    const UdpSnmp k0 = udp_snmp_now();
    const std::uint64_t a0 = alloc_count();
    const CpuTimes c0 = cpu_now();
    const std::int64_t t0 = mono_ns();
    const bool ok = gen_.round(*st_, ledger_, tracer_, rs);
    rs.wall_s = static_cast<double>(mono_ns() - t0) / 1e9;
    const CpuTimes cpu = cpu_now() - c0;
    rs.allocs = static_cast<double>(alloc_count() - a0);
    rs.snmp = udp_snmp_now() - k0;
    rs.user_s = cpu.user_s;
    rs.sys_s = cpu.sys_s;
    rs.msgs = static_cast<double>(ledger_.delivered);
    ledger_.settle();
    latency_samples += static_cast<double>(ledger_.latency_us.size());
    rs.p50_us = quantile(ledger_.latency_us, 0.50);
    rs.p90_us = quantile(ledger_.latency_us, 0.90);
    rs.p99_us = quantile(ledger_.latency_us, 0.99);
    rounds.push_back(rs);
    if (!ok) ops.fail("round stalled; stopping the run");
    return ok;
  }

  /// Stop measuring: take the closing counters and tear the stack down.
  void finish() {
    after = StackCounters::take(*st_);
    st_.reset();
  }

  double sum(double RoundStats::*f) const {
    double s = 0.0;
    for (const RoundStats& r : rounds) s += r.*f;
    return s;
  }
  std::vector<double> each(double RoundStats::*f) const {
    std::vector<double> v;
    for (const RoundStats& r : rounds) v.push_back(r.*f);
    return v;
  }
  UdpSnmp snmp() const {
    UdpSnmp t;
    for (const RoundStats& r : rounds) {
      t.in_errors += r.snmp.in_errors;
      t.rcvbuf_errors += r.snmp.rcvbuf_errors;
      t.sndbuf_errors += r.snmp.sndbuf_errors;
    }
    return t;
  }

  std::vector<RoundStats> rounds;
  Report ops;
  StackCounters before, after;
  std::uint64_t epochs = 0;
  double latency_samples = 0.0;

 private:
  PacedGenerator gen_;
  Tracer* tracer_;
  Ledger ledger_;
  /// Last, so it goes first: its handlers point at the members above.
  std::unique_ptr<Stack> st_;
};

/// The paper's bottleneck link, 20 Mb/s: sim_x_realtime for a real-time
/// workload is the payload rate in units of that link, i.e. seconds of the
/// paper's fully loaded testbed link carried per wall second.
constexpr double kPaperLinkBytesPerS = 20e6 / 8.0;

}  // namespace

Report run_loopback_paced(const Options& opt) {
  Report r;
  const std::string host = host_json("loopback 127.0.0.1 (no physical link)");
  std::printf("host %s\n", host.c_str());
  // The loop is one thread; pinned, the scheduler cannot migrate it between
  // wakeups (p99 35-43 us pinned against 42-55 us unpinned, two runs each).
  std::printf("loop thread pinned to cpu %d\n", pin_to_current_cpu());
  auto session = [&](Tracer* tracer) -> std::unique_ptr<Session> {
    auto st = open_stack(tracer, nullptr, r);
    if (st == nullptr) return nullptr;
    return std::make_unique<Session>(std::move(st), opt.seed, tracer);
  };
  const std::int64_t end = mono_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);

  if (!opt.trace) {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      double s = 0.0;
      if (open_stack(nullptr, &s, r) != nullptr) setups.push_back(s);
    }
    auto ph = session(nullptr);
    if (ph == nullptr) return r;
    while ((ph->rounds.size() < 3 || mono_ns() < end) && ph->round()) {
    }
    ph->finish();
    r.attempted += ph->ops.attempted;
    r.failed += ph->ops.failed;
    // Rates over the whole run: the host's speed drifts by +-20% over
    // seconds, and a total averages over that drift better than a median
    // of rounds does.
    const double wall = ph->sum(&RoundStats::wall_s);
    const double goodput = ph->sum(&RoundStats::bytes) / 1e6 / wall;
    std::printf("%s: %zu rounds x %zu messages, %.0f latency samples\n",
                opt.workload.c_str(), ph->rounds.size(),
                kPacedRoundMsgs, ph->latency_samples);
    r.set("setup_s", median(setups));
    r.set("sim_x_realtime", goodput * 1e6 / kPaperLinkBytesPerS);
    r.set("goodput_MBps", goodput);
    r.set("cpu_us_per_msg",
          (ph->sum(&RoundStats::user_s) + ph->sum(&RoundStats::sys_s)) * 1e6 /
              ph->sum(&RoundStats::msgs));
    r.set("latency_p50_us", median(ph->each(&RoundStats::p50_us)));
    r.set("latency_p90_us", median(ph->each(&RoundStats::p90_us)));
    r.set("peak_rss_MB", peak_rss_mb());
    return r;
  }

  // Traced run: an untraced and a traced stack, each with its own loop,
  // take turns round by round, so drift in the host's speed falls on both
  // alike and the difference is the tracing overhead.
  Tracer tracer;
  auto plain = session(nullptr);
  auto traced = session(&tracer);
  if (plain == nullptr || traced == nullptr) return r;
  const std::uint64_t timer_ops0 = tracer.timer_schedules + tracer.timer_cancels;
  while ((plain->rounds.empty() || mono_ns() < end) && plain->round() &&
         traced->round()) {
  }
  const std::uint64_t timer_ops =
      tracer.timer_schedules + tracer.timer_cancels - timer_ops0;
  plain->finish();
  traced->finish();
  r.attempted += plain->ops.attempted + traced->ops.attempted;
  r.failed += plain->ops.failed + traced->ops.failed;
  if (plain->ops.attempted != traced->ops.attempted ||
      plain->ops.failed != traced->ops.failed) {
    r.fail("traced and untraced stacks disagree on operation counts");
  }

  const StackCounters& b = traced->before;
  const StackCounters& a = traced->after;
  const double msgs = traced->sum(&RoundStats::msgs);
  const double user = traced->sum(&RoundStats::user_s);
  const double sys = traced->sum(&RoundStats::sys_s);
  const double dgrams = static_cast<double>(
      (a.cw.datagrams_sent - b.cw.datagrams_sent) +
      (a.sw.datagrams_sent - b.sw.datagrams_sent));
  const double sendmmsg = static_cast<double>(
      (a.cw.send_batches - b.cw.send_batches) +
      (a.sw.send_batches - b.sw.send_batches));
  const double recvmmsg = static_cast<double>(
      (a.cw.recv_batches - b.cw.recv_batches) +
      (a.sw.recv_batches - b.sw.recv_batches));
  const double data_segs =
      static_cast<double>(a.cs.segments_sent - b.cs.segments_sent);
  const UdpSnmp snmp = traced->snmp();
  auto self_ns = [&](SpanKind k) {
    return static_cast<double>(tracer.totals(k).self_ns);
  };
  auto per_call = [&](SpanKind k) {
    const auto& t = tracer.totals(k);
    return t.count ? static_cast<double>(t.self_ns) / static_cast<double>(t.count)
                   : 0.0;
  };

  r.set("wire.datagrams_per_msg", dgrams / msgs);
  r.set("wire.sendmmsg_per_msg", sendmmsg / msgs);
  r.set("wire.recvmmsg_per_msg", recvmmsg / msgs);
  r.set("wire.tx_batch_mean", dgrams / sendmmsg);
  r.set("wire.send_ns", per_call(SpanKind::WireSend));
  r.set("wire.sys_cpu_share", sys / (user + sys));
  r.set("wire.kernel_rcvbuf_drops", static_cast<double>(snmp.rcvbuf_errors));
  r.set("wire.kernel_sndbuf_errors", static_cast<double>(snmp.sndbuf_errors));
  r.set("wire.kernel_in_errors", static_cast<double>(snmp.in_errors));
  r.set("rudp.acks_per_data_segment",
        static_cast<double>(a.ss.acks_sent - b.ss.acks_sent) / data_segs);
  r.set("rudp.recv_ns_per_segment", per_call(SpanKind::RudpRecv));
  r.set("rudp.retransmit_ratio",
        static_cast<double>(a.cs.segments_retransmitted -
                            b.cs.segments_retransmitted) / data_segs);
  r.set("rudp.timeouts", static_cast<double>(a.cs.timeouts - b.cs.timeouts));
  r.set("rudp.parity_ratio",
        static_cast<double>(a.cs.parities_sent - b.cs.parities_sent) / data_segs);
  r.set("core.send_ns_per_msg", per_call(SpanKind::CoreSend));
  r.set("core.epochs_per_flow", static_cast<double>(traced->epochs));
  r.set("loop.timer_ops_per_msg", static_cast<double>(timer_ops) / msgs);
  r.set("loop.timer_fire_ns_per_msg", self_ns(SpanKind::TimerFire) / msgs);
  // run_until's own time splits into work the spans do not cover (epoll,
  // the syscalls, the flush) and waiting. The CPU the rounds used beyond
  // the child spans is the former; the rest of run_until's self time the
  // loop spent blocked.
  const auto& loop_run = tracer.totals(SpanKind::LoopRun);
  const double in_children =
      static_cast<double>(loop_run.total_ns - loop_run.self_ns);
  const double residual = std::max(0.0, (user + sys) * 1e9 - in_children);
  r.set("loop.residual_ns_per_msg", residual / msgs);
  r.set("loop.wait_ns_per_msg",
        std::max(0.0, self_ns(SpanKind::LoopRun) - residual) / msgs);
  // Allocations from the untraced stack: the executor decorator boxes each
  // timer callback it wraps.
  r.set("alloc.per_msg",
        plain->sum(&RoundStats::allocs) / plain->sum(&RoundStats::msgs));
  r.set("host.user_us_per_msg", user * 1e6 / msgs);
  r.set("host.sys_us_per_msg", sys * 1e6 / msgs);
  r.set("bench.gen_late_p99_us", median(plain->each(&RoundStats::gen_late_p99_us)));
  r.set("bench.latency_samples", plain->latency_samples);
  r.set("bench.latency_p99_us", median(plain->each(&RoundStats::p99_us)));
  // CPU, not wall time: the paced loop's wall time is fixed by its rate.
  const double plain_cpu =
      plain->sum(&RoundStats::user_s) + plain->sum(&RoundStats::sys_s);
  r.set("trace.overhead_pct", ((user + sys) / plain_cpu - 1.0) * 100.0);
  write_trace(opt, tracer, host, r);
  return r;
}

}  // namespace stackbench
