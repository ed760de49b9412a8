#pragma once
// Application adaptation policies — the exact algorithms the paper's
// evaluation applications run, packaged as reusable policy objects. Each
// adaptation step returns the AdaptationRecord describing it, which the
// application hands to the transport (directly from a callback, or attached
// to the next send) so the coordinator can react.

#include <cstdint>

#include "iq/common/rng.hpp"
#include "iq/core/adaptation.hpp"

namespace iq::echo {

// ------------------------------------------------------------ resolution --
// §3.4: on the upper threshold, reduce frame size by a fraction equal to
// the error ratio; on the lower threshold, grow it by 10 %.

struct ResolutionPolicyConfig {
  double grow_step = 0.10;
  double min_scale = 0.05;
  double max_shrink_per_step = 0.8;
};

class ResolutionPolicy {
 public:
  explicit ResolutionPolicy(const ResolutionPolicyConfig& cfg = {});

  /// Upper-threshold adaptation: scale *= (1 - eratio).
  core::AdaptationRecord shrink(double eratio);
  /// Lower-threshold adaptation: scale *= (1 + grow_step), capped at 1.
  core::AdaptationRecord grow();

  /// Current frame size for a nominal (full-resolution) size.
  std::int64_t apply(std::int64_t nominal_bytes) const;
  double scale() const { return scale_; }
  std::uint64_t shrinks() const { return shrinks_; }
  std::uint64_t grows() const { return grows_; }

 private:
  ResolutionPolicyConfig cfg_;
  double scale_ = 1.0;
  std::uint64_t shrinks_ = 0;
  std::uint64_t grows_ = 0;
};

// --------------------------------------------------------------- marking --
// §3.3: when active, every `tag_every`-th message is tagged (control data);
// the rest are unmarked with probability max(min_unmark, gain · eratio) so
// the overall unmarked share tracks the error ratio. The lower threshold
// decays the unmark probability by 20 % per call.

struct MarkingPolicyConfig {
  int tag_every = 5;
  double min_unmark_probability = 0.40;
  double eratio_gain = 1.25;
  double lower_decay = 0.20;  ///< probability reduced by this fraction
  double deactivate_below = 0.01;
};

class MarkingPolicy {
 public:
  MarkingPolicy(const MarkingPolicyConfig& cfg, std::uint64_t seed);
  explicit MarkingPolicy(std::uint64_t seed) : MarkingPolicy({}, seed) {}

  /// Upper threshold: activate with p = max(min_unmark, gain · eratio).
  core::AdaptationRecord on_upper(double eratio);
  /// Lower threshold: decay p; deactivates when p falls below the floor.
  core::AdaptationRecord on_lower();

  /// Decide whether message number `index` (0-based) is tagged.
  bool decide_tagged(std::uint64_t index);

  bool active() const { return active_; }
  double unmark_probability() const { return unmark_p_; }

 private:
  MarkingPolicyConfig cfg_;
  Rng rng_;
  bool active_ = false;
  double unmark_p_ = 0.0;
};

// ------------------------------------------------------------- frequency --
// A frequency adaptation sends the same-size messages less often; the paper
// notes the transport needs *no* window change for it. The policy thins the
// frame schedule deterministically by the keep ratio.

struct FrequencyPolicyConfig {
  double reduce_gain = 1.0;  ///< ratio *= (1 - gain·eratio) on reduce
  double restore_step = 0.10;
  double min_ratio = 0.05;
};

class FrequencyPolicy {
 public:
  explicit FrequencyPolicy(const FrequencyPolicyConfig& cfg = {});

  core::AdaptationRecord reduce(double eratio);
  core::AdaptationRecord restore();

  /// Deterministic decimation: true if frame `index` should be sent.
  bool should_send(std::uint64_t index) const;
  double keep_ratio() const { return ratio_; }

 private:
  FrequencyPolicyConfig cfg_;
  double ratio_ = 1.0;
};

}  // namespace iq::echo
