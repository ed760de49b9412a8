#include "iq/echo/policies.hpp"

#include <algorithm>
#include <cmath>

namespace iq::echo {

// ------------------------------------------------------------ resolution --

ResolutionPolicy::ResolutionPolicy(const ResolutionPolicyConfig& cfg)
    : cfg_(cfg) {}

core::AdaptationRecord ResolutionPolicy::shrink(double eratio) {
  const double rate_chg =
      std::clamp(eratio, 0.0, cfg_.max_shrink_per_step);
  const double new_scale = std::max(scale_ * (1.0 - rate_chg), cfg_.min_scale);
  // The effective change may be limited by the scale floor.
  const double effective = scale_ > 0 ? 1.0 - new_scale / scale_ : 0.0;
  scale_ = new_scale;
  ++shrinks_;

  core::AdaptationRecord rec;
  rec.resolution_change = effective;
  return rec;
}

core::AdaptationRecord ResolutionPolicy::grow() {
  const double new_scale = std::min(scale_ * (1.0 + cfg_.grow_step), 1.0);
  const double effective = scale_ > 0 ? 1.0 - new_scale / scale_ : 0.0;
  scale_ = new_scale;
  ++grows_;

  core::AdaptationRecord rec;
  rec.resolution_change = effective;  // negative: size increase
  return rec;
}

std::int64_t ResolutionPolicy::apply(std::int64_t nominal_bytes) const {
  const double scaled = static_cast<double>(nominal_bytes) * scale_;
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(scaled));
}

// --------------------------------------------------------------- marking --

MarkingPolicy::MarkingPolicy(const MarkingPolicyConfig& cfg,
                             std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {}

core::AdaptationRecord MarkingPolicy::on_upper(double eratio) {
  unmark_p_ = std::clamp(
      std::max(cfg_.min_unmark_probability, cfg_.eratio_gain * eratio), 0.0,
      0.95);
  active_ = true;

  core::AdaptationRecord rec;
  rec.mark_degree = unmark_p_;
  return rec;
}

core::AdaptationRecord MarkingPolicy::on_lower() {
  unmark_p_ *= (1.0 - cfg_.lower_decay);
  if (unmark_p_ < cfg_.deactivate_below) {
    unmark_p_ = 0.0;
    active_ = false;
  }

  core::AdaptationRecord rec;
  rec.mark_degree = unmark_p_;
  return rec;
}

bool MarkingPolicy::decide_tagged(std::uint64_t index) {
  if (!active_) return true;
  // Every tag_every-th message is control information: always tagged.
  if (cfg_.tag_every > 0 &&
      index % static_cast<std::uint64_t>(cfg_.tag_every) == 0) {
    return true;
  }
  return !rng_.chance(unmark_p_);
}

// ------------------------------------------------------------- frequency --

FrequencyPolicy::FrequencyPolicy(const FrequencyPolicyConfig& cfg)
    : cfg_(cfg) {}

core::AdaptationRecord FrequencyPolicy::reduce(double eratio) {
  const double new_ratio = std::max(
      ratio_ * (1.0 - cfg_.reduce_gain * std::clamp(eratio, 0.0, 0.9)),
      cfg_.min_ratio);
  const double rel = ratio_ > 0 ? new_ratio / ratio_ : 1.0;
  ratio_ = new_ratio;

  core::AdaptationRecord rec;
  rec.freq_ratio = rel;
  return rec;
}

core::AdaptationRecord FrequencyPolicy::restore() {
  const double new_ratio = std::min(ratio_ * (1.0 + cfg_.restore_step), 1.0);
  const double rel = ratio_ > 0 ? new_ratio / ratio_ : 1.0;
  ratio_ = new_ratio;

  core::AdaptationRecord rec;
  rec.freq_ratio = rel;
  return rec;
}

bool FrequencyPolicy::should_send(std::uint64_t index) const {
  if (ratio_ >= 1.0) return true;
  // Bresenham-style thinning: send frame i iff the integer count of kept
  // frames increases at i.
  const double before = std::floor(static_cast<double>(index) * ratio_);
  const double after = std::floor(static_cast<double>(index + 1) * ratio_);
  return after > before;
}

}  // namespace iq::echo
