#include "channel/gilbert.h"

#include <cmath>
#include <stdexcept>

namespace fecsched {

namespace {

std::uint64_t draw_threshold(double prob) {
  return static_cast<std::uint64_t>(std::ceil(prob * 0x1.0p53));
}

}  // namespace

GilbertModel::GilbertModel(double p, double q) : p_(p), q_(q) {
  if (!(p >= 0.0 && p <= 1.0) || !(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("GilbertModel: p and q must be in [0, 1]");
  p_below_ = draw_threshold(p);
  q_below_ = draw_threshold(q);
  reset(0);
}

double GilbertModel::global_loss_probability() const noexcept {
  return (p_ + q_) > 0.0 ? p_ / (p_ + q_) : 0.0;
}

void GilbertModel::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  // Draw the initial state from the stationary distribution.
  in_loss_state_ = rng_.bernoulli(global_loss_probability());
}

bool GilbertModel::transition(bool was_lost) {
  in_loss_state_ = was_lost ? !rng_.bernoulli(q_) : rng_.bernoulli(p_);
  return in_loss_state_;
}

}  // namespace fecsched
