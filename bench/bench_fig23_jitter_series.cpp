// Figures 2 & 3 reproduction: per-packet delay-jitter series experienced by
// the receiving application under the Table 3 scenario, for coordinated
// IQ-RUDP (Fig. 2) and uncoordinated RUDP (Fig. 3). The claim: IQ-RUDP's
// jitter is lower and more stable once cross traffic bites.

#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace iq;
  using namespace iq::harness;
  std::printf("== Figures 2/3: delay jitter series ==\n");

  const auto runs = bench::run_all({scenarios::fig23(SchemeSpec::iq_rudp()),
                                    scenarios::fig23(SchemeSpec::rudp())});
  const auto& iq = runs[0];
  const auto& ru = runs[1];

  std::printf("\n--- Figure 2 (IQ-RUDP) ---\n%s",
              iq.jitter_series.ascii_plot(96, 10).c_str());
  std::printf("\n--- Figure 3 (RUDP) ---\n%s",
              ru.jitter_series.ascii_plot(96, 10).c_str());

  // Quantitative shape check: mean jitter over the congested tail.
  auto tail_mean = [](const stats::TimeSeries& s) {
    if (s.empty()) return 0.0;
    const double n = s.xs().back();
    return s.mean_in(n * 0.3, n + 1);
  };
  const double iq_tail = tail_mean(iq.jitter_series);
  const double ru_tail = tail_mean(ru.jitter_series);
  std::printf("\nmean |jitter| after congestion onset: IQ-RUDP %.2f ms vs "
              "RUDP %.2f ms (paper: IQ lower and stabler)\n",
              iq_tail, ru_tail);
  std::printf("shape check: %s\n", iq_tail <= ru_tail ? "PASS" : "DIVERGES");
  return (iq.completed && ru.completed) ? 0 : 1;
}
