#include "iq/cm/apportion.hpp"

#include <algorithm>

#include "iq/common/check.hpp"

namespace iq::cm {

double apportion_ratios(std::span<const double> weights,
                        std::span<double> ratios_out) {
  IQ_CHECK(weights.size() == ratios_out.size());
  double total_w = 0.0;
  for (double w : weights) total_w += std::max(w, 0.0);
  if (total_w > 0.0) {
    for (std::size_t i = 0; i < weights.size(); ++i) {
      ratios_out[i] = std::max(weights[i], 0.0) / total_w;
    }
  }
  return total_w;
}

ApportionResult apportion_split(double aggregate, double floor,
                                double total_w, std::span<const double> ratios,
                                std::span<double> shares_out, bool summarize) {
  IQ_CHECK(ratios.size() == shares_out.size());
  ApportionResult r;
  const std::size_t n = shares_out.size();
  if (n == 0) return r;

  const double nd = static_cast<double>(n);
  if (aggregate < floor * nd) {
    // Degenerate regime: the window cannot cover every floor. An equal split
    // keeps conservation exact and starves nobody relative to anyone else.
    const double each = aggregate / nd;
    std::fill(shares_out.begin(), shares_out.end(), each);
    r.sum = aggregate;
    r.min_share = each;
    return r;
  }

  const double surplus = aggregate - floor * nd;
  double sum = 0.0;
  std::size_t largest = 0;
  if (total_w > 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      const double s = floor + surplus * ratios[i];
      shares_out[i] = s;
      sum += s;
      if (shares_out[largest] < s) largest = i;
    }
  } else {
    // All weights zero: the surplus splits equally.
    const double s = floor + surplus / nd;
    for (std::size_t i = 0; i < n; ++i) {
      shares_out[i] = s;
      sum += s;
    }
  }
  // Pin conservation tight: rounding drift in the proportional terms is
  // absorbed by the (first) largest share.
  const double drift = aggregate - sum;
  if (drift != 0.0) shares_out[largest] += drift;
  if (!summarize) return r;
  // Re-sum so callers (and the auditor) see the true total, not the
  // intended one. Without drift this repeats the running sum exactly.
  r.min_share = aggregate;
  for (double s : shares_out) {
    r.sum += s;
    r.min_share = std::min(r.min_share, s);
  }
  return r;
}

ApportionResult apportion(double aggregate, std::span<const double> weights,
                          double floor, std::span<double> shares_out) {
  IQ_CHECK(weights.size() == shares_out.size());
  // shares_out holds the ratios between the two steps.
  const double total_w = apportion_ratios(weights, shares_out);
  return apportion_split(aggregate, floor, total_w, shares_out, shares_out);
}

}  // namespace iq::cm
