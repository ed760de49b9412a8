#pragma once
// Per-destination Congestion Manager (docs/CM.md).
//
// Every RudpConnection normally probes its path alone; concurrent flows to
// the same destination then fight each other and each re-learns loss and
// RTT from scratch. Following the Congestion-Manager line of work
// (Balakrishnan et al.; Andersen et al.'s bandwidth management, PAPERS.md),
// a CongestionManager owns ONE macro-flow of shared path state per host
// pair — aggregate congestion window (an LDA controller, the paper's §3.2
// control), a shared RTT estimator, and loss-epoch statistics — and splits
// the aggregate window among the live flows by application-declared
// priority weights, with an anti-starvation floor (iq/cm/apportion.hpp).
//
// Integration: a flow joins with register_flow(), which returns a
// FlowHandle implementing rudp::CongestionController. The connection
// delegates to it via RudpConnection::set_external_congestion(): its
// cwnd() is the flow's apportioned *share*, and every ack/loss/timeout/
// epoch event funnels into the shared aggregate controller — so N flows'
// acks grow the macro-flow at the same ~1 packet/RTT a single flow would,
// and one shared path loss is penalized once (dedup window = one smoothed
// RTT). FlowHandle::scale_window() — the coordinator's adaptation hook —
// becomes a *donation*: it reweights this flow within the unchanged
// aggregate, so a down-sampling video flow hands its window to a bulk
// sibling instead of returning it to the network. scale_aggregate() is the
// macro-flow rescale (Coordinator::cm_aggregate_rescale routes there).
//
// Re-apportionment is instant on every join/leave/weight change/aggregate
// mutation, O(flows) and allocation-free in steady state (scratch arrays
// are grown only at registration; zero_alloc_test pins this with a CM
// attached). Per-flow weight ratios are cached at those structural events,
// so the per-ack recompute is one multiply-add pass. A flow whose share
// grows is woken only once the share reaches the window its connection
// declared it needs (CongestionController::set_wake_point). Single-threaded,
// like the rest of the stack.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "iq/audit/audit.hpp"
#include "iq/audit/cm_auditor.hpp"
#include "iq/audit/flight_recorder.hpp"
#include "iq/rudp/congestion.hpp"
#include "iq/rudp/rtt_estimator.hpp"

namespace iq::cm {

class CongestionManager;

/// Why shares were recomputed (CmApportion.flag).
enum class ApportionCause : std::uint8_t {
  Join = 0,
  Leave,
  Weight,     ///< set_weight (priority attribute update)
  Donation,   ///< FlowHandle::scale_window — adaptation reweights one flow
  Aggregate,  ///< scale_aggregate — macro-flow rescale
  Ack,
  Loss,
  Timeout,
  Epoch,
};

const char* apportion_cause_name(ApportionCause c);

/// One flow's registration with a CongestionManager. Implements the
/// transport's CongestionController interface so a RudpConnection can
/// delegate to it wholesale: cwnd() is the apportioned share; every
/// congestion event feeds the shared aggregate. Created by
/// CongestionManager::register_flow(), destroyed by unregister_flow().
class FlowHandle final : public rudp::CongestionController {
 public:
  void on_ack(int newly_acked, TimePoint now) override;
  void on_loss(TimePoint now) override;
  void on_timeout(TimePoint now) override;
  void on_epoch(double loss_ratio, TimePoint now) override;
  void set_srtt(Duration srtt) override;
  /// The flow's current share of the aggregate window.
  double cwnd() const override { return share(); }
  /// Donation semantics: reweight this flow, aggregate untouched.
  void scale_window(double factor) override;
  /// A share may legitimately drop toward zero when many siblings exceed
  /// the aggregate; the transport's ≥1-packet pump floor keeps it live.
  double min_cwnd() const override { return 0.0; }
  double max_cwnd() const override;
  std::string name() const override { return "cm-flow"; }
  /// The share the connection needs before a wake-up can make it send.
  void set_wake_point(double window) override;

  std::uint32_t id() const { return id_; }
  double weight() const { return weight_; }
  /// Set the priority weight directly (the attr-layer path arrives here via
  /// the coordinator parsing FLOW_PRIORITY). Re-apportions immediately.
  void set_weight(double w);
  double share() const;
  double wake_point() const;
  CongestionManager& manager() { return *mgr_; }
  const CongestionManager& manager() const { return *mgr_; }

  /// Fires when this flow's share *grows* because of someone else's event
  /// (a sibling left, donated, acked, or the aggregate was rescaled) and
  /// has reached the wake point — the connection hooks
  /// RudpConnection::window_updated() here so freed window is filled
  /// immediately instead of on the next ack. A flow that never declared a
  /// wake point (0) hears every growth.
  using ShareListener = std::function<void()>;
  void set_share_listener(ShareListener fn) { on_share_ = std::move(fn); }

 private:
  friend class CongestionManager;
  FlowHandle(CongestionManager* mgr, std::uint32_t id, double weight,
             std::size_t index)
      : mgr_(mgr), id_(id), weight_(weight), index_(index) {}

  CongestionManager* mgr_;
  std::uint32_t id_;
  double weight_;
  /// Position in the manager's flows_ and per-flow arrays, which hold this
  /// flow's share and wake point.
  std::size_t index_;
  ShareListener on_share_;
};

struct CmConfig {
  /// Identifies this manager in audit events (the conn_id slot).
  std::uint32_t id = 1;
  /// Aggregate macro-flow controller (LDA, §3.2). initial_cwnd is the whole
  /// aggregate — size it for the expected flow count.
  rudp::LdaConfig aggregate;
  /// Anti-starvation floor, packets per flow (when the aggregate covers it).
  double share_floor = 1.0;
  /// Shared RTT estimation across the macro-flow.
  rudp::RttConfig rtt;
  /// Loss/timeout dedup: a congestion penalty within this many smoothed
  /// RTTs of the previous one is the same path event seen through another
  /// flow — counted, but not applied to the aggregate again.
  double dedup_rtt_multiple = 1.0;
  /// Dedup window lower bound (covers the no-RTT-sample-yet start).
  Duration min_dedup_window = Duration::millis(10);
};

struct CmStats {
  std::uint64_t flows_joined = 0;
  std::uint64_t flows_left = 0;
  std::uint64_t reapportions = 0;        ///< every share recomputation
  std::uint64_t apportion_changes = 0;   ///< structural: join/leave/weight/
                                         ///< donation/aggregate rescale
  std::uint64_t losses_reported = 0;
  std::uint64_t losses_penalized = 0;
  std::uint64_t losses_deduped = 0;
  std::uint64_t timeouts_reported = 0;
  std::uint64_t timeouts_penalized = 0;
  std::uint64_t timeouts_deduped = 0;
  std::uint64_t epochs_reported = 0;
  std::uint64_t epochs_applied = 0;      ///< aggregated applications
  std::uint64_t donation_rescales = 0;
  std::uint64_t aggregate_rescales = 0;
};

/// Shared congestion state for all flows between one host pair.
/// Flows must be unregistered (and connections detached via
/// set_external_congestion(nullptr)) before the manager is destroyed.
class CongestionManager {
 public:
  explicit CongestionManager(const CmConfig& cfg = {});
  ~CongestionManager();
  CongestionManager(const CongestionManager&) = delete;
  CongestionManager& operator=(const CongestionManager&) = delete;

  /// Join the macro-flow with a priority weight; re-apportions instantly.
  FlowHandle* register_flow(double weight = 1.0);
  /// Leave (also the failure path: a failed connection's share returns to
  /// its siblings instantly); re-apportions.
  void unregister_flow(FlowHandle* flow);

  /// Macro-flow rescale: multiply the aggregate window (clamped by the
  /// aggregate controller) and re-apportion every flow.
  void scale_aggregate(double factor);

  double aggregate_cwnd() const { return cc_->cwnd(); }
  double aggregate_max_cwnd() const { return cc_->max_cwnd(); }
  Duration srtt() const { return rtt_.srtt(); }
  std::size_t flow_count() const { return flows_.size(); }
  double share_floor() const { return cfg_.share_floor; }
  const CmStats& stats() const { return stats_; }
  const CmConfig& config() const { return cfg_; }

  // --------------------------------------------------------------- audit --
  /// Arm the flight recorder + CmAuditor on this manager (docs/CM.md).
  /// Also armed process-wide via IQ_AUDIT=1, like connections.
  audit::CmAuditor* enable_audit(audit::AuditConfig acfg = {});
  /// nullptr while disarmed.
  const audit::CmAuditor* auditor() const { return auditor_.get(); }
  const audit::FlightRecorder* recorder() const { return recorder_.get(); }

 private:
  friend class FlowHandle;

  void on_flow_ack(FlowHandle* flow, int newly_acked, TimePoint now);
  void on_flow_loss(FlowHandle* flow, TimePoint now, bool timeout);
  void on_flow_epoch(FlowHandle* flow, double loss_ratio, TimePoint now);
  void on_flow_srtt(Duration srtt);
  void set_flow_weight(FlowHandle* flow, double weight, ApportionCause cause);

  Duration dedup_window() const;
  /// Recompute every share from the current aggregate and weights, then
  /// notify flows that grew to their wake point (except `exclude`, whose
  /// connection is mid-event and pumps on its own return path).
  void reapportion(ApportionCause cause, FlowHandle* exclude);
  void audit_emit(audit::EventType type, std::uint64_t seq, std::uint64_t a,
                  std::uint64_t b, std::uint64_t c, std::uint64_t d,
                  double x, double y, std::uint8_t flag, bool record);
  void handle_violations();
  std::string dump_to_file() const;

  CmConfig cfg_;
  std::unique_ptr<rudp::CongestionController> cc_;  ///< the aggregate
  rudp::RttEstimator rtt_;
  std::vector<std::unique_ptr<FlowHandle>> flows_;
  std::uint32_t next_flow_id_ = 1;

  // Per-flow state in flows_ order, contiguous so the per-ack pass never
  // leaves these arrays — reserved at registration so it never allocates.
  // ratios_/total_w_ are apportion_ratios() of the weights, refreshed at
  // structural events only. shares_ and wake_ back FlowHandle::share() and
  // set_wake_point(); next_ is the scratch the split writes into.
  std::vector<double> ratios_;
  double total_w_ = 0.0;
  std::vector<double> shares_;
  std::vector<double> wake_;
  std::vector<double> next_;

  // Loss/timeout dedup clock.
  bool penalty_seen_ = false;
  TimePoint last_penalty_;

  // Epoch aggregation: flow epoch reports within one dedup window collapse
  // into a single aggregate on_epoch with their mean loss ratio.
  bool epoch_seen_ = false;
  TimePoint last_epoch_applied_;
  double pending_epoch_sum_ = 0.0;
  std::uint64_t pending_epoch_n_ = 0;

  CmStats stats_;

  audit::AuditConfig audit_cfg_;
  std::unique_ptr<audit::FlightRecorder> recorder_;
  std::unique_ptr<audit::CmAuditor> auditor_;
  std::size_t violations_handled_ = 0;
  std::string dump_path_;
};

}  // namespace iq::cm
