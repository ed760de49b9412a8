// Property tests for congestion-manager apportionment (docs/CM.md), in the
// style of loss_monitor_property_test: drive a CongestionManager through a
// long random interleaving of join / leave / weight / donation / rescale /
// ack / loss / timeout / epoch operations and assert after every step that
//   * conservation: Σ shares == aggregate cwnd (within rounding),
//   * anti-starvation: every share ≥ min(floor, aggregate / n) − eps,
//   * dedup accounting: reported == penalized + deduped,
//   * determinism: a mirror manager fed the identical operation sequence
//     lands on bit-identical shares.
// A second property pins the two-step split (ratios cached at structural
// events, one pass per ack) to the single-pass algorithm it replaced, bit
// for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "iq/cm/apportion.hpp"
#include "iq/cm/manager.hpp"
#include "iq/common/rng.hpp"

namespace iq::cm {
namespace {

TimePoint at_us(std::int64_t us) {
  return TimePoint::from_ns(us * 1000);
}

class CmApportionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CmApportionProperty, InvariantsHoldUnderRandomInterleavings) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const auto below = [&rng](std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bound) - 1));
  };

  CmConfig cfg;
  cfg.aggregate.initial_cwnd = 4.0 + static_cast<double>(below(60));
  cfg.share_floor = 0.5 + 0.25 * static_cast<double>(below(4));

  CongestionManager mgr(cfg);
  CongestionManager mirror(cfg);
  std::vector<FlowHandle*> flows;
  std::vector<FlowHandle*> mirror_flows;

  std::int64_t t_us = 0;
  for (int step = 0; step < 600; ++step) {
    t_us += 1 + static_cast<std::int64_t>(below(20'000));
    const auto diag = "seed " + std::to_string(seed) + " step " +
                      std::to_string(step);
    const std::uint64_t op = below(10);
    const std::size_t n = flows.size();
    if (n == 0 || op == 0) {
      const double weight = 0.25 * static_cast<double>(below(33));
      flows.push_back(mgr.register_flow(weight));
      mirror_flows.push_back(mirror.register_flow(weight));
    } else if (op == 1) {
      const std::size_t victim = below(n);
      mgr.unregister_flow(flows[victim]);
      mirror.unregister_flow(mirror_flows[victim]);
      flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(victim));
      mirror_flows.erase(mirror_flows.begin() +
                         static_cast<std::ptrdiff_t>(victim));
    } else {
      const std::size_t pick = below(n);
      switch (op) {
        case 2: {
          const double w = 0.25 * static_cast<double>(below(33));
          flows[pick]->set_weight(w);
          mirror_flows[pick]->set_weight(w);
          break;
        }
        case 3: {
          const double factor = 0.5 + 0.1 * static_cast<double>(below(16));
          flows[pick]->scale_window(factor);
          mirror_flows[pick]->scale_window(factor);
          break;
        }
        case 4: {
          const double factor = 0.5 + 0.1 * static_cast<double>(below(16));
          mgr.scale_aggregate(factor);
          mirror.scale_aggregate(factor);
          break;
        }
        case 5:
        case 6: {
          const int acked = 1 + static_cast<int>(below(8));
          flows[pick]->on_ack(acked, at_us(t_us));
          mirror_flows[pick]->on_ack(acked, at_us(t_us));
          break;
        }
        case 7: {
          flows[pick]->on_loss(at_us(t_us));
          mirror_flows[pick]->on_loss(at_us(t_us));
          break;
        }
        case 8: {
          flows[pick]->on_timeout(at_us(t_us));
          mirror_flows[pick]->on_timeout(at_us(t_us));
          break;
        }
        default: {
          const double ratio = 0.01 * static_cast<double>(below(50));
          flows[pick]->on_epoch(ratio, at_us(t_us));
          mirror_flows[pick]->on_epoch(ratio, at_us(t_us));
          break;
        }
      }
    }

    // Conservation + anti-starvation after every operation.
    const double aggregate = mgr.aggregate_cwnd();
    double sum = 0.0;
    double min_share = aggregate;
    for (FlowHandle* f : flows) {
      sum += f->share();
      min_share = std::min(min_share, f->share());
    }
    if (!flows.empty()) {
      ASSERT_NEAR(sum, aggregate, 1e-9 * std::max(1.0, aggregate)) << diag;
      const double entitled = std::min(
          cfg.share_floor, aggregate / static_cast<double>(flows.size()));
      ASSERT_GE(min_share, entitled - 1e-9) << diag;
    }

    // Dedup accounting identities.
    const CmStats& st = mgr.stats();
    ASSERT_EQ(st.losses_reported, st.losses_penalized + st.losses_deduped)
        << diag;
    ASSERT_EQ(st.timeouts_reported,
              st.timeouts_penalized + st.timeouts_deduped)
        << diag;
    ASSERT_GE(st.epochs_reported, st.epochs_applied) << diag;

    // Determinism: the mirror saw the identical sequence → bit-identical.
    ASSERT_EQ(mirror.aggregate_cwnd(), aggregate) << diag;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      ASSERT_EQ(mirror_flows[i]->share(), flows[i]->share())
          << diag << " flow " << i;
    }
  }

  for (FlowHandle* f : flows) mgr.unregister_flow(f);
  for (FlowHandle* f : mirror_flows) mirror.unregister_flow(f);
}

// The single-pass apportionment the manager ran on every ack before the
// ratios were cached, kept verbatim as the oracle.
ApportionResult reference_apportion(double aggregate,
                                    const std::vector<double>& weights,
                                    double floor,
                                    std::vector<double>& shares_out,
                                    bool& drifted) {
  drifted = false;
  ApportionResult r;
  const std::size_t n = weights.size();
  if (n == 0) return r;
  const double nd = static_cast<double>(n);
  if (aggregate < floor * nd) {
    const double each = aggregate / nd;
    std::fill(shares_out.begin(), shares_out.end(), each);
    r.sum = aggregate;
    r.min_share = each;
    return r;
  }
  double total_w = 0.0;
  for (double w : weights) total_w += std::max(w, 0.0);
  const double surplus = aggregate - floor * nd;
  r.min_share = aggregate;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = std::max(weights[i], 0.0);
    const double extra = total_w > 0.0 ? surplus * (w / total_w) : surplus / nd;
    shares_out[i] = floor + extra;
    sum += shares_out[i];
    r.min_share = std::min(r.min_share, shares_out[i]);
  }
  const double drift = aggregate - sum;
  if (drift != 0.0) {
    drifted = true;
    auto largest = std::max_element(shares_out.begin(), shares_out.end());
    *largest += drift;
    sum = 0.0;
    r.min_share = aggregate;
    for (double v : shares_out) {
      sum += v;
      r.min_share = std::min(r.min_share, v);
    }
  }
  r.sum = sum;
  return r;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST_P(CmApportionProperty, PerAckPassMatchesSinglePassBitForBit) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const auto below = [&rng](std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bound) - 1));
  };

  int drifted_cases = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + below(200);
    std::vector<double> weights(n);
    switch (below(4)) {
      case 0:  // every weight zero (or negative): surplus / n
        for (double& w : weights) w = below(3) == 0 ? -1.0 : 0.0;
        break;
      case 1:  // a few distinct values: ties for the largest share
        for (double& w : weights) w = 0.5 * static_cast<double>(below(4));
        break;
      case 2:  // all equal
        std::fill(weights.begin(), weights.end(),
                  0.1 + static_cast<double>(below(10)));
        break;
      default:  // arbitrary, some negative
        for (double& w : weights) w = rng.uniform(-0.5, 8.0);
        break;
    }
    const double floor = 0.5 * static_cast<double>(below(4));

    // Step 1 once, as at a structural event...
    std::vector<double> ratios(n, 0.0);
    const double total_w = apportion_ratios(weights, ratios);
    std::vector<double> expect(n), one_pass(n), per_ack(n), quiet(n);
    // ...then step 2 for a run of aggregates, as acks arrive: below the
    // floors (equal split), right at them, and well above.
    for (int ack = 0; ack < 8; ++ack) {
      const double nd = static_cast<double>(n);
      double aggregate = 0.0;
      switch (below(3)) {
        case 0: aggregate = rng.uniform(0.0, floor * nd); break;
        case 1: aggregate = floor * nd; break;
        default: aggregate = floor * nd + rng.uniform(0.0, 64.0 * nd); break;
      }
      const auto diag = "seed " + std::to_string(seed) + " round " +
                        std::to_string(round) + " ack " + std::to_string(ack);
      bool drifted = false;
      const ApportionResult ref =
          reference_apportion(aggregate, weights, floor, expect, drifted);
      drifted_cases += drifted ? 1 : 0;
      const ApportionResult full = apportion(aggregate, weights, floor,
                                             one_pass);
      const ApportionResult split = apportion_split(aggregate, floor, total_w,
                                                    ratios, per_ack);
      apportion_split(aggregate, floor, total_w, ratios, quiet,
                      /*summarize=*/false);
      ASSERT_TRUE(same_bits(one_pass, expect)) << diag;
      ASSERT_TRUE(same_bits(per_ack, expect)) << diag;
      ASSERT_TRUE(same_bits(quiet, expect)) << diag;
      ASSERT_TRUE(same_bits(full.sum, ref.sum)) << diag;
      ASSERT_TRUE(same_bits(full.min_share, ref.min_share)) << diag;
      ASSERT_TRUE(same_bits(split.sum, ref.sum)) << diag;
      ASSERT_TRUE(same_bits(split.min_share, ref.min_share)) << diag;
    }
  }
  // The rounding-drift correction is the delicate part; make sure it ran.
  EXPECT_GT(drifted_cases, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CmApportionProperty,
                         ::testing::Range<std::uint64_t>(1, 25),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace iq::cm
