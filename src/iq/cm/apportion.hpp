#pragma once
// Weighted apportionment of an aggregate congestion window (docs/CM.md).
//
// Pure policy, separated from the CongestionManager so it can be property
// tested in isolation: given the macro-flow's aggregate window and the live
// flows' priority weights, compute each flow's share such that
//   * conservation: the shares sum to exactly the aggregate (the auditor's
//     share-conservation invariant is an equality, not a bound);
//   * anti-starvation: every flow gets at least min(floor, aggregate / n)
//     packets regardless of its weight — a zero-weight flow still drains;
//   * proportionality: window above the floors is split w_i / Σw;
//   * determinism: same inputs, bit-identical outputs (no internal state).
//
// The split runs in two steps because the weights change far less often
// than the aggregate: apportion_ratios() turns the weights into per-flow
// ratios (membership and weight changes), apportion_split() turns ratios
// and the aggregate into shares (every ack). apportion() is the two in a
// row.

#include <span>

namespace iq::cm {

struct ApportionResult {
  double sum = 0.0;        ///< Σ shares (== aggregate when n > 0)
  double min_share = 0.0;  ///< smallest share granted
};

/// Step 1: ratios_out[i] = max(w_i, 0) / Σ max(w, 0). Returns the weight
/// total. When it is 0 (every weight zero or negative) ratios_out is left
/// as it was: the split then gives every flow surplus / n.
double apportion_ratios(std::span<const double> weights,
                        std::span<double> ratios_out);

/// Step 2: split `aggregate` across `ratios.size()` flows into `shares_out`
/// given step 1's ratios and weight total. `ratios` may be `shares_out`
/// itself. With `summarize` false the result is left zero, which spares
/// the per-ack path a second pass nobody reads.
ApportionResult apportion_split(double aggregate, double floor,
                                double total_w, std::span<const double> ratios,
                                std::span<double> shares_out,
                                bool summarize = true);

/// Split `aggregate` across `weights.size()` flows into `shares_out`
/// (same length, caller-provided — the hot path must not allocate).
/// Negative weights are treated as zero. When the aggregate cannot cover
/// every floor, it degrades to an equal split (aggregate / n).
ApportionResult apportion(double aggregate, std::span<const double> weights,
                          double floor, std::span<double> shares_out);

}  // namespace iq::cm
