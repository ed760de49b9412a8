#pragma once
// Window-based congestion controllers for RUDP.
//
// LdaController (the default, per the paper: "TCP-like congestion control
// using an algorithm resembling Loss-Delay Adjustment"): additive increase
// of ~1 packet per RTT — the same average rate of increase as TCP (§3.2) —
// but a *loss-proportional* multiplicative decrease applied once per
// measuring epoch, which produces the smoother window evolution the paper
// credits for IQ-RUDP's better delay/jitter. The decrease is bounded below
// by a TCP-friendly window so the flow never takes more than a TCP-fair
// share under sustained loss.
//
// AimdController: classic Reno-style slow start + AIMD (halve per loss
// event), provided as an ablation baseline.
//
// FixedWindowController: a constant window; used for the paper's
// "application adaptation only" row, where IQ-RUDP's adaptive congestion
// window is instrumented off but metrics still flow to the application.
//
// All controllers expose scale_window(), the hook the IQ coordinator uses to
// re-adapt the transport after an application adaptation (§3.4, §3.5).

#include <limits>
#include <memory>
#include <string>

#include "iq/common/time.hpp"

namespace iq::rudp {

/// CongestionController::set_wake_point() value meaning "no window would
/// let the connection send".
inline constexpr double kNoWake = std::numeric_limits<double>::infinity();

class CongestionController {
 public:
  virtual ~CongestionController() = default;

  /// A cumulative/selective ack newly covered `newly_acked` segments.
  virtual void on_ack(int newly_acked, TimePoint now) = 0;
  /// Fast-retransmit-detected loss of one segment.
  virtual void on_loss(TimePoint now) = 0;
  /// Retransmission timeout.
  virtual void on_timeout(TimePoint now) = 0;
  /// Close of a loss-measuring epoch with the epoch's loss ratio.
  virtual void on_epoch(double loss_ratio, TimePoint now) = 0;
  /// The smoothed RTT, needed by per-RTT guards and TCP-friendly bounds.
  virtual void set_srtt(Duration srtt) = 0;

  /// Congestion window, in packets (fractional internally).
  virtual double cwnd() const = 0;
  /// IQ coordination hook: multiply the window by `factor` (clamped).
  virtual void scale_window(double factor) = 0;

  /// The clamp bounds every mutation must respect — the invariant auditor
  /// verifies cwnd() stays within [min_cwnd(), max_cwnd()] through every
  /// ack/loss/timeout/epoch/scale transition.
  virtual double min_cwnd() const = 0;
  virtual double max_cwnd() const = 0;

  virtual std::string name() const = 0;

  /// Wake point: the smallest window at which the connection's send loop
  /// (RudpConnection::pump) would send again. inflight+1 when the window
  /// is full; +∞ when no window would help (nothing pending, or the peer's
  /// receive window is the limit); 0 ("wake me on any growth") before the
  /// first call and while the connection cannot tell. Only a controller
  /// plugged in through set_external_congestion() is told, and only when
  /// the value changes; the congestion manager uses it to skip
  /// share-growth wake-ups whose pump would send nothing.
  ///
  /// That skip is exact because every path that can unblock the send loop
  /// ends in pump():
  ///  * inflight falls only in on_ack (cumulative/selective acks, skipped
  ///    losses) and on_rto (skipped losses);
  ///  * peer_rwnd_ rises only in on_ack, which has no early return after it;
  ///  * pending_ changes in send_message and set_max_pending_segments (pump()
  ///    is the only writer of the window_limited_ flag that on_ack reads);
  ///  * the connection becomes Established in become_established();
  ///  * its own window moves in scale_congestion_window, set_external_
  ///    congestion, on_epoch_report, acks, losses and timeouts.
  virtual void set_wake_point(double /*window*/) {}
};

struct LdaConfig {
  double initial_cwnd = 2.0;
  double min_cwnd = 1.0;
  double max_cwnd = 4096.0;
  double additive_per_rtt = 1.0;   ///< packets added per RTT when loss-free
  double decrease_beta = 1.0;      ///< factor = 1 - beta * loss_ratio
  double min_decrease_factor = 0.5;
  double timeout_factor = 0.5;     ///< multiplier on RTO (smoother than Reno)
  bool tcp_friendly_floor = true;  ///< never shrink below the TCP-fair window
};

class LdaController final : public CongestionController {
 public:
  explicit LdaController(const LdaConfig& cfg = {});

  void on_ack(int newly_acked, TimePoint now) override;
  void on_loss(TimePoint now) override;
  void on_timeout(TimePoint now) override;
  void on_epoch(double loss_ratio, TimePoint now) override;
  void set_srtt(Duration srtt) override { srtt_ = srtt; }
  double cwnd() const override { return cwnd_; }
  void scale_window(double factor) override;
  double min_cwnd() const override { return cfg_.min_cwnd; }
  double max_cwnd() const override { return cfg_.max_cwnd; }
  std::string name() const override { return "lda"; }

  /// TCP-throughput-equation window for the given loss ratio (packets).
  static double tcp_friendly_window(double loss_ratio);

 private:
  void clamp();

  LdaConfig cfg_;
  double cwnd_;
  Duration srtt_ = Duration::millis(100);
};

struct AimdConfig {
  double initial_cwnd = 2.0;
  double min_cwnd = 1.0;
  double max_cwnd = 4096.0;
  double initial_ssthresh = 64.0;
};

class AimdController final : public CongestionController {
 public:
  explicit AimdController(const AimdConfig& cfg = {});

  void on_ack(int newly_acked, TimePoint now) override;
  void on_loss(TimePoint now) override;
  void on_timeout(TimePoint now) override;
  void on_epoch(double loss_ratio, TimePoint now) override;
  void set_srtt(Duration srtt) override { srtt_ = srtt; }
  double cwnd() const override { return cwnd_; }
  void scale_window(double factor) override;
  double min_cwnd() const override { return cfg_.min_cwnd; }
  double max_cwnd() const override { return cfg_.max_cwnd; }
  std::string name() const override { return "aimd"; }

  double ssthresh() const { return ssthresh_; }
  bool in_slow_start() const { return cwnd_ < ssthresh_; }

 private:
  void clamp();

  AimdConfig cfg_;
  double cwnd_;
  double ssthresh_;
  Duration srtt_ = Duration::millis(100);
  TimePoint last_decrease_;
  bool decreased_once_ = false;
};

class FixedWindowController final : public CongestionController {
 public:
  explicit FixedWindowController(double window) : cwnd_(window) {}

  void on_ack(int, TimePoint) override {}
  void on_loss(TimePoint) override {}
  void on_timeout(TimePoint) override {}
  void on_epoch(double, TimePoint) override {}
  void set_srtt(Duration) override {}
  double cwnd() const override { return cwnd_; }
  void scale_window(double factor) override;
  // scale_window clamps to [1, 65536] around the configured fixed window.
  double min_cwnd() const override { return 1.0; }
  double max_cwnd() const override { return 65536.0; }
  std::string name() const override { return "fixed"; }

 private:
  double cwnd_;
};

enum class CcKind { Lda, Aimd, Fixed };

std::unique_ptr<CongestionController> make_controller(CcKind kind,
                                                      double initial_or_fixed);

}  // namespace iq::rudp
