#include "iq/cm/manager.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>

#include "iq/cm/apportion.hpp"
#include "iq/common/check.hpp"
#include "iq/common/log.hpp"

namespace iq::cm {

namespace {

std::atomic<std::uint64_t> cm_dump_counter{0};

}  // namespace

const char* apportion_cause_name(ApportionCause c) {
  switch (c) {
    case ApportionCause::Join: return "join";
    case ApportionCause::Leave: return "leave";
    case ApportionCause::Weight: return "weight";
    case ApportionCause::Donation: return "donation";
    case ApportionCause::Aggregate: return "aggregate";
    case ApportionCause::Ack: return "ack";
    case ApportionCause::Loss: return "loss";
    case ApportionCause::Timeout: return "timeout";
    case ApportionCause::Epoch: return "epoch";
  }
  return "?";
}

// ---------------------------------------------------------------- FlowHandle

void FlowHandle::on_ack(int newly_acked, TimePoint now) {
  mgr_->on_flow_ack(this, newly_acked, now);
}

void FlowHandle::on_loss(TimePoint now) {
  mgr_->on_flow_loss(this, now, /*timeout=*/false);
}

void FlowHandle::on_timeout(TimePoint now) {
  mgr_->on_flow_loss(this, now, /*timeout=*/true);
}

void FlowHandle::on_epoch(double loss_ratio, TimePoint now) {
  mgr_->on_flow_epoch(this, loss_ratio, now);
}

void FlowHandle::set_srtt(Duration srtt) { mgr_->on_flow_srtt(srtt); }

double FlowHandle::max_cwnd() const { return mgr_->aggregate_max_cwnd(); }

double FlowHandle::share() const { return mgr_->shares_[index_]; }

double FlowHandle::wake_point() const { return mgr_->wake_[index_]; }

void FlowHandle::set_wake_point(double window) { mgr_->wake_[index_] = window; }

void FlowHandle::scale_window(double factor) {
  // Donation: the coordinator shrank (or grew) *this application's* demand,
  // not the path's capacity — so reweight the flow and let the freed window
  // flow to its siblings instead of returning it to the network. The
  // aggregate is untouched.
  if (!std::isfinite(factor) || factor < 0.0) factor = 0.0;
  ++mgr_->stats_.donation_rescales;
  mgr_->set_flow_weight(this, weight_ * factor, ApportionCause::Donation);
}

void FlowHandle::set_weight(double w) {
  mgr_->set_flow_weight(this, w, ApportionCause::Weight);
}

// --------------------------------------------------------- CongestionManager

CongestionManager::CongestionManager(const CmConfig& cfg)
    : cfg_(cfg),
      cc_(std::make_unique<rudp::LdaController>(cfg_.aggregate)),
      rtt_(cfg_.rtt) {
  if (const audit::AuditConfig* env = audit::env_audit_config()) {
    enable_audit(*env);
  }
}

CongestionManager::~CongestionManager() {
  IQ_CHECK_MSG(flows_.empty(),
               "CongestionManager destroyed with flows still registered");
}

FlowHandle* CongestionManager::register_flow(double weight) {
  if (!std::isfinite(weight) || weight < 0.0) weight = 0.0;
  auto flow = std::unique_ptr<FlowHandle>(
      new FlowHandle(this, next_flow_id_++, weight, flows_.size()));
  FlowHandle* ptr = flow.get();
  flows_.push_back(std::move(flow));
  // A new flow holds no window yet and has not declared a wake point.
  shares_.push_back(0.0);
  wake_.push_back(0.0);
  ratios_.reserve(flows_.size());
  next_.reserve(flows_.size());
  ++stats_.flows_joined;
  audit_emit(audit::EventType::CmFlowJoin, ptr->id(), flows_.size(), 0, 0, 0,
             weight, 0.0, 0, /*record=*/true);
  reapportion(ApportionCause::Join, nullptr);
  return ptr;
}

void CongestionManager::unregister_flow(FlowHandle* flow) {
  auto it = std::find_if(
      flows_.begin(), flows_.end(),
      [flow](const std::unique_ptr<FlowHandle>& f) { return f.get() == flow; });
  IQ_CHECK_MSG(it != flows_.end(), "unregister_flow: unknown flow");
  const std::uint32_t id = flow->id();
  const std::size_t k = flow->index_;
  flows_.erase(it);
  shares_.erase(shares_.begin() + static_cast<std::ptrdiff_t>(k));
  wake_.erase(wake_.begin() + static_cast<std::ptrdiff_t>(k));
  for (std::size_t i = k; i < flows_.size(); ++i) flows_[i]->index_ = i;
  ++stats_.flows_left;
  audit_emit(audit::EventType::CmFlowLeave, id, flows_.size(), 0, 0, 0, 0.0,
             0.0, 0, /*record=*/true);
  reapportion(ApportionCause::Leave, nullptr);
}

void CongestionManager::scale_aggregate(double factor) {
  cc_->scale_window(factor);
  ++stats_.aggregate_rescales;
  audit_emit(audit::EventType::CmAggregateScale, 0, 0, 0, 0, 0, factor,
             cc_->cwnd(), 0, /*record=*/true);
  reapportion(ApportionCause::Aggregate, nullptr);
}

void CongestionManager::on_flow_ack(FlowHandle* flow, int newly_acked,
                                    TimePoint now) {
  // All flows' acks feed the one macro-flow, so the aggregate grows at the
  // same ~1 packet/RTT a single connection would — not N packets/RTT.
  cc_->on_ack(newly_acked, now);
  reapportion(ApportionCause::Ack, flow);
}

void CongestionManager::on_flow_loss(FlowHandle* flow, TimePoint now,
                                     bool timeout) {
  // One path loss seen through several flows is one congestion signal:
  // penalize the aggregate once per dedup window, count the rest.
  const bool penalize =
      !penalty_seen_ || (now - last_penalty_) >= dedup_window();
  if (timeout) {
    ++stats_.timeouts_reported;
    if (penalize) ++stats_.timeouts_penalized; else ++stats_.timeouts_deduped;
  } else {
    ++stats_.losses_reported;
    if (penalize) ++stats_.losses_penalized; else ++stats_.losses_deduped;
  }
  if (penalize) {
    penalty_seen_ = true;
    last_penalty_ = now;
    if (timeout) cc_->on_timeout(now); else cc_->on_loss(now);
  }
  const std::uint8_t flag = static_cast<std::uint8_t>(
      (timeout ? 0x1 : 0x0) | (penalize ? 0x2 : 0x0));
  audit_emit(audit::EventType::CmLoss, 0,
             stats_.losses_reported + stats_.timeouts_reported,
             stats_.losses_penalized + stats_.timeouts_penalized,
             stats_.losses_deduped + stats_.timeouts_deduped, 0, 0.0, 0.0,
             flag, /*record=*/true);
  reapportion(timeout ? ApportionCause::Timeout : ApportionCause::Loss, flow);
}

void CongestionManager::on_flow_epoch(FlowHandle* flow, double loss_ratio,
                                      TimePoint now) {
  // Per-flow loss epochs close independently; within one dedup window they
  // are observations of the same path interval, so collapse them into a
  // single aggregate application with their mean ratio.
  ++stats_.epochs_reported;
  pending_epoch_sum_ += loss_ratio;
  ++pending_epoch_n_;
  if (epoch_seen_ && (now - last_epoch_applied_) < dedup_window()) return;
  epoch_seen_ = true;
  last_epoch_applied_ = now;
  cc_->on_epoch(pending_epoch_sum_ / static_cast<double>(pending_epoch_n_),
                now);
  pending_epoch_sum_ = 0.0;
  pending_epoch_n_ = 0;
  ++stats_.epochs_applied;
  reapportion(ApportionCause::Epoch, flow);
}

void CongestionManager::on_flow_srtt(Duration srtt) {
  // The connection hands us its smoothed estimate; fold it into the shared
  // estimator so every flow (and the dedup window) sees one path RTT.
  rtt_.add_sample(srtt);
  cc_->set_srtt(rtt_.srtt());
}

void CongestionManager::set_flow_weight(FlowHandle* flow, double weight,
                                        ApportionCause cause) {
  if (!std::isfinite(weight) || weight < 0.0) weight = 0.0;
  flow->weight_ = weight;
  reapportion(cause, flow);
}

Duration CongestionManager::dedup_window() const {
  const Duration rtt_based = rtt_.srtt().scaled(cfg_.dedup_rtt_multiple);
  return std::max(cfg_.min_dedup_window, rtt_based);
}

void CongestionManager::reapportion(ApportionCause cause, FlowHandle* exclude) {
  ++stats_.reapportions;
  const bool structural = cause == ApportionCause::Join ||
                          cause == ApportionCause::Leave ||
                          cause == ApportionCause::Weight ||
                          cause == ApportionCause::Donation ||
                          cause == ApportionCause::Aggregate;
  const std::size_t n = flows_.size();
  next_.resize(n);
  if (structural) {
    ++stats_.apportion_changes;
    // Weights only change here; every later ack reuses these ratios. The
    // weights are staged in next_, which the split below overwrites.
    ratios_.resize(n);
    for (std::size_t i = 0; i < n; ++i) next_[i] = flows_[i]->weight_;
    total_w_ = apportion_ratios(next_, ratios_);
  }
  const ApportionResult r =
      apportion_split(cc_->cwnd(), cfg_.share_floor, total_w_, ratios_,
                      next_, /*summarize=*/auditor_ != nullptr);

  // Apply every share before notifying anyone, so a listener that pumps
  // observes a fully consistent apportionment. A flow is woken when its
  // share grew and reached its wake point; any smaller growth leaves its
  // connection's pump with nothing to send. The triggering flow is
  // mid-event inside its own connection (which pumps on its return path),
  // so it is skipped. The old shares are not needed past the comparison,
  // so their slots take the wake flags; the swap then leaves the new
  // shares in shares_ and the flags in next_.
  const std::size_t skip = exclude != nullptr ? exclude->index_ : n;
  bool wake_any = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double share = next_[i];
    const bool wake = share > shares_[i] && share >= wake_[i] && i != skip;
    shares_[i] = wake ? 1.0 : 0.0;
    wake_any = wake_any || wake;
  }
  shares_.swap(next_);

  if (auditor_) {
    const bool record = cause != ApportionCause::Ack;
    audit_emit(audit::EventType::CmApportion, 0, n, 0,
               stats_.apportion_changes,
               static_cast<std::uint64_t>(std::max(0.0, r.min_share) * 1e6),
               r.sum, cc_->cwnd(), static_cast<std::uint8_t>(cause), record);
  }

  if (!wake_any) return;
  for (std::size_t i = 0; i < n; ++i) {
    FlowHandle* f = flows_[i].get();
    if (next_[i] != 0.0 && f->on_share_) f->on_share_();
  }
}

// -------------------------------------------------------------------- audit

audit::CmAuditor* CongestionManager::enable_audit(audit::AuditConfig acfg) {
  audit_cfg_ = std::move(acfg);
  recorder_ = std::make_unique<audit::FlightRecorder>(audit_cfg_.ring_capacity);
  auditor_ = std::make_unique<audit::CmAuditor>();
  audit::CmAuditor::Policy policy;
  policy.share_floor = cfg_.share_floor;
  policy.min_cwnd = cc_->min_cwnd();
  policy.max_cwnd = cc_->max_cwnd();
  auditor_->set_policy(policy);
  return auditor_.get();
}

void CongestionManager::audit_emit(audit::EventType type, std::uint64_t seq,
                                   std::uint64_t a, std::uint64_t b,
                                   std::uint64_t c, std::uint64_t d, double x,
                                   double y, std::uint8_t flag, bool record) {
  if (!auditor_) return;
  audit::Event e;
  e.seq = seq;
  e.a = a;
  e.b = b;
  e.c = c;
  e.d = d;
  e.x = x;
  e.y = y;
  e.conn_id = cfg_.id;
  e.type = type;
  e.flag = flag;
  // Per-ack apportionments are checked but not ring-recorded: they would
  // flood the recorder window with steady-state noise and evict the
  // structural events a post-mortem actually needs.
  if (record) recorder_->record(e);
  auditor_->on_event(e);
  if (auditor_->violations().size() != violations_handled_) {
    handle_violations();
  }
}

void CongestionManager::handle_violations() {
  const auto& all = auditor_->violations();
  if (audit_cfg_.dump_on_violation && dump_path_.empty()) {
    dump_path_ = dump_to_file();
  }
  while (violations_handled_ < all.size()) {
    const audit::Violation& v = all[violations_handled_++];
    log_warn("audit cm ", cfg_.id, ": invariant '", v.invariant,
             "' violated — ", v.detail,
             dump_path_.empty() ? "" : (" (dump: " + dump_path_ + ")"));
    if (audit_cfg_.on_violation) audit_cfg_.on_violation(v);
    if (audit_cfg_.fatal) {
      std::fprintf(stderr,
                   "IQ_AUDIT violation: cm %u invariant '%s' — %s\n"
                   "flight-recorder dump: %s\n",
                   cfg_.id, v.invariant.c_str(), v.detail.c_str(),
                   dump_path_.empty() ? "(no dump)" : dump_path_.c_str());
      std::abort();
    }
  }
}

std::string CongestionManager::dump_to_file() const {
  const std::uint64_t n = cm_dump_counter.fetch_add(1);
  std::string path = audit_cfg_.dump_dir.empty() ? "." : audit_cfg_.dump_dir;
  path += "/iq_cm_audit_dump_" + std::to_string(cfg_.id) + "_" +
          std::to_string(n) + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    log_warn("audit cm ", cfg_.id, ": cannot write dump to ", path);
    return "";
  }
  out << "{\"cm_id\":" << cfg_.id << ",\"violations\":[";
  bool first = true;
  for (const audit::Violation& v : auditor_->violations()) {
    if (!first) out << ',';
    first = false;
    std::string ev;
    audit::append_event_json(ev, v.event);
    out << "{\"invariant\":\"" << v.invariant << "\",\"detail\":\""
        << v.detail << "\",\"event_index\":" << v.event_index
        << ",\"event\":" << ev << '}';
  }
  out << "],\"flight_recorder\":" << recorder_->to_json() << "}\n";
  return path;
}

}  // namespace iq::cm
