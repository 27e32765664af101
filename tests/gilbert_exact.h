// Exact reception statistics of one block sent over a Gilbert channel, by
// dynamic programming over (chain state, arrivals so far): the values the
// Monte-Carlo trials are held to.  An MDS block of k decodes iff at least
// k of its n slots arrive, in any order, so every transmission model that
// sends the block's n packets once (Tx_model_1 to Tx_model_5) has the
// same P(decoded) and the same distribution of n_received.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace fecsched::exact {

/// P(n_received = m) for m in [0, n] over n slots of the Gilbert chain
/// (p = P[no-loss -> loss], q = P[loss -> no-loss]) started in its
/// stationary state, as GilbertModel::reset draws it: a slot is lost iff
/// the chain is in its loss state, then the chain steps.  O(n^2).
inline std::vector<double> received_distribution(double p, double q,
                                                 std::uint32_t n) {
  const double loss = p + q > 0.0 ? p / (p + q) : 0.0;
  // good[m] / bad[m]: in that state at the current slot, m arrivals so far.
  std::vector<double> good(n + 1, 0.0), bad(n + 1, 0.0);
  std::vector<double> next_good(n + 1), next_bad(n + 1);
  good[0] = 1.0 - loss;
  bad[0] = loss;
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    std::fill(next_good.begin(), next_good.end(), 0.0);
    std::fill(next_bad.begin(), next_bad.end(), 0.0);
    for (std::uint32_t m = 0; m <= slot; ++m) {
      next_good[m + 1] += good[m] * (1.0 - p);  // arrives, stays good
      next_bad[m + 1] += good[m] * p;           // arrives, enters loss
      next_bad[m] += bad[m] * (1.0 - q);        // lost, stays in loss
      next_good[m] += bad[m] * q;               // lost, leaves loss
    }
    good.swap(next_good);
    bad.swap(next_bad);
  }
  std::vector<double> dist(n + 1);
  for (std::uint32_t m = 0; m <= n; ++m) dist[m] = good[m] + bad[m];
  return dist;
}

/// P(an MDS block of k decodes) = P(n_received >= k).
inline double decode_probability(const std::vector<double>& dist,
                                 std::uint32_t k) {
  double sum = 0.0;
  for (std::size_t m = k; m < dist.size(); ++m) sum += dist[m];
  return sum;
}

}  // namespace fecsched::exact
