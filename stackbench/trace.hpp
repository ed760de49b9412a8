#pragma once
// Span recording from outside the program.
//
// The traced run wraps calls into the library's public interfaces: a
// rudp::SegmentWire decorator times UdpWire::send and the receive callback
// the protocol engine installs; an sim::Executor decorator counts the
// engine's timer operations and times the callbacks it fires; the workloads
// open spans around send_with_attrs, the delivery callback, the event loop
// and the simulator entry points. Nothing inside the library is changed, so
// the untraced run measures exactly the code the repository ships.
//
// Each span carries (kind, start, end, parent, message id). Self time — a
// span's duration minus the time its child spans cover — is accumulated
// online per kind, so ledgers stay exact however many spans a run makes;
// the first kKeep spans are also stored and written out when the run ends.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "iq/rudp/segment_wire.hpp"
#include "iq/sim/executor.hpp"

namespace stackbench {

enum class SpanKind : std::uint8_t {
  LoopRun,     ///< RealtimeLoop::run_until
  CoreSend,    ///< IqRudpConnection::send_with_attrs
  WireSend,    ///< UdpWire::send (encode, CRC, enqueue; flush when full)
  RudpRecv,    ///< the receive callback RudpConnection installs on its wire
  AppDeliver,  ///< the application's delivery callback
  TimerFire,   ///< a timer callback the engine scheduled
  BenchApp,    ///< the benchmark's own generator / top-up code
  SimConfig,   ///< harness::run_experiment for one config
  ShardStep,   ///< ShardedSim::run_until over five lockstep windows
  kCount
};
const char* span_name(SpanKind k);

class Tracer {
 public:
  /// Spans stored for the trace file; later spans only feed the totals.
  static constexpr std::size_t kKeep = std::size_t{1} << 18;

  Tracer();

  void open(SpanKind kind, std::uint32_t msg_id = 0);
  void close();
  /// Set the message id of the innermost open span (send_with_attrs learns
  /// its message id only when it returns).
  void set_msg(std::uint32_t msg_id) { stack_[depth_ - 1].msg_id = msg_id; }

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  const Totals& totals(SpanKind k) const {
    return totals_[static_cast<std::size_t>(k)];
  }

  // Timer operations seen by the executor decorator.
  std::uint64_t timer_schedules = 0;
  std::uint64_t timer_cancels = 0;

  /// Write the stored spans and per-kind totals as one JSON object.
  bool write_json(const std::string& path, const std::string& header) const;

 private:
  struct Open {
    SpanKind kind;
    std::uint32_t msg_id;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t stored;  ///< index into spans_, or -1 when not stored
  };
  struct Stored {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::uint32_t msg_id;
    SpanKind kind;
  };

  std::vector<Stored> spans_;
  std::uint64_t dropped_ = 0;
  std::array<Open, 64> stack_{};
  std::size_t depth_ = 0;
  std::array<Totals, static_cast<std::size_t>(SpanKind::kCount)> totals_{};
  std::int64_t origin_ns_;
};

/// Write the tracer's spans to opt.trace_out, when set, under a header
/// naming the workload, seed and host; a failed write fails the run.
void write_trace(const Options& opt, const Tracer& tracer,
                 const std::string& host, Report& r);

/// RAII span; a null tracer makes it a no-op, so one code path serves the
/// traced and the untraced run.
class Span {
 public:
  Span(Tracer* t, SpanKind kind, std::uint32_t msg_id = 0) : t_(t) {
    if (t_ != nullptr) t_->open(kind, msg_id);
  }
  ~Span() {
    if (t_ != nullptr) t_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

/// Executor decorator: counts schedule/cancel calls and wraps each
/// scheduled callback in a TimerFire span.
class TracedExecutor final : public iq::sim::Executor {
 public:
  TracedExecutor(iq::sim::Executor& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  iq::TimePoint now() const override { return inner_.now(); }
  iq::sim::EventId schedule_at(iq::TimePoint t,
                               iq::sim::EventFn fn) override {
    ++tracer_.timer_schedules;
    return inner_.schedule_at(t, [this, f = std::move(fn)]() mutable {
      Span s(&tracer_, SpanKind::TimerFire);
      f();
    });
  }
  bool cancel_event(iq::sim::EventId id) override {
    ++tracer_.timer_cancels;
    return inner_.cancel_event(id);
  }

 private:
  iq::sim::Executor& inner_;
  Tracer& tracer_;
};

/// SegmentWire decorator: times send() and the installed receiver, and
/// hands the engine the traced executor.
class TracedWire final : public iq::rudp::SegmentWire {
 public:
  TracedWire(iq::rudp::SegmentWire& inner, TracedExecutor& exec,
             Tracer& tracer)
      : inner_(inner), exec_(exec), tracer_(tracer) {}

  void send(const iq::rudp::Segment& segment) override {
    Span s(&tracer_, SpanKind::WireSend, segment.msg_id);
    inner_.send(segment);
  }
  void set_receiver(RecvFn fn) override {
    inner_.set_receiver(
        [this, f = std::move(fn)](const iq::rudp::Segment& segment) {
          Span s(&tracer_, SpanKind::RudpRecv, segment.msg_id);
          f(segment);
        });
  }
  void set_corruption_handler(CorruptionFn fn) override {
    inner_.set_corruption_handler(std::move(fn));
  }
  void set_send_drop_handler(SendDropFn fn) override {
    inner_.set_send_drop_handler(std::move(fn));
  }
  iq::sim::Executor& executor() override { return exec_; }

 private:
  iq::rudp::SegmentWire& inner_;
  TracedExecutor& exec_;
  Tracer& tracer_;
};

}  // namespace stackbench
