// Two-state Markov ("Gilbert") packet loss model (Sec. 3.2, Fig. 4).
//
// Two states: NO-LOSS (packets delivered) and LOSS (packets erased).
// p = P[no-loss -> loss], q = P[loss -> no-loss].  The stationary loss
// probability is p_global = p / (p + q); mean burst length is 1/q.
// The initial state of each trial is drawn from the stationary
// distribution so short objects see steady-state behaviour, matching the
// paper's tables.
//
// Special cases covered (paper Sec. 3.2): p = 0 is the perfect channel;
// q = 1 - p is the memoryless Bernoulli (IID) channel.

#pragma once

#include <cstdint>
#include <limits>

#include "channel/loss_model.h"
#include "util/rng.h"

namespace fecsched {

/// Mean loss-burst length 1/q of a Gilbert chain; infinite at q = 0,
/// where the loss state is absorbing.
[[nodiscard]] inline double mean_burst(double q) noexcept {
  return q > 0.0 ? 1.0 / q : std::numeric_limits<double>::infinity();
}

/// Gilbert two-state Markov erasure process.
class GilbertModel final : public LossModel {
 public:
  /// Probabilities must lie in [0, 1] (throws std::invalid_argument).
  GilbertModel(double p, double q);

  /// Memoryless channel with loss probability `loss_rate` (q = 1 - p).
  [[nodiscard]] static GilbertModel bernoulli(double loss_rate) {
    return GilbertModel(loss_rate, 1.0 - loss_rate);
  }

  [[nodiscard]] double p() const noexcept { return p_; }
  [[nodiscard]] double q() const noexcept { return q_; }

  /// Stationary loss probability p/(p+q); 0 when p = q = 0.
  [[nodiscard]] double global_loss_probability() const noexcept;

  /// The current state decides the current packet's fate, then the chain
  /// advances on one uniform draw u: into loss when u < p, out of it when
  /// u < q.  Both comparisons run and the state picks one, so the draw
  /// has no data-dependent branch.  Inline: the grid engine calls it once
  /// per packet through a GilbertModel&.
  [[nodiscard]] bool lost() override {
    const bool erased = in_loss_state_;
    const std::uint64_t u = rng_() >> 11;  // uniform01() is u * 2^-53
    const bool enter = u < p_below_;
    const bool stay = u >= q_below_;
    in_loss_state_ = (erased & stay) | (!erased & enter);
    return erased;
  }
  void reset(std::uint64_t seed) override;

  /// One explicit Markov step: given that the previous packet's fate was
  /// `was_lost`, draw the next packet's fate and synchronise the internal
  /// state with it.  Lets external components (estimators, tests) drive the
  /// chain from an arbitrary trajectory point instead of the hidden state.
  [[nodiscard]] bool transition(bool was_lost);

 private:
  double p_;
  double q_;
  // ceil(prob * 2^53): for prob in [0, 1], (rng() >> 11) < ceil(prob *
  // 2^53) is exactly rng.bernoulli(prob), the integer draw it scales.
  std::uint64_t p_below_ = 0;
  std::uint64_t q_below_ = 0;
  bool in_loss_state_ = false;
  Rng rng_;
};

}  // namespace fecsched
