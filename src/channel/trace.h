// Trace-driven packet loss model.
//
// The paper's channel parameters come from measured loss traces (GSM [8],
// Internet end-to-end paths [16]).  This model replays such a trace
// directly: entry t decides the fate of the t-th transmitted packet.
// Trace files use one character per packet: '0' (or '.') = delivered,
// '1' (or 'x'/'X') = lost; whitespace is ignored.  A per-trial random
// rotation (enabled by default) lets independent trials sample different
// trace phases, mimicking receivers that join at different times.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "channel/loss_model.h"
#include "util/rng.h"

namespace fecsched {

/// Replays a recorded loss trace (cyclically when exhausted).
class TraceModel final : public LossModel {
 public:
  /// `events[t]` == true means packet t is lost.
  /// Throws std::invalid_argument on an empty trace.
  explicit TraceModel(std::vector<bool> events, bool random_rotation = true);

  /// Parse a textual trace ('0'/'.' delivered, '1'/'x'/'X' lost).
  /// Throws std::invalid_argument on other non-whitespace characters.
  [[nodiscard]] static TraceModel parse(std::string_view text,
                                        bool random_rotation = true);

  /// Read a trace from a stream (same format as parse()).
  [[nodiscard]] static TraceModel load(std::istream& in,
                                       bool random_rotation = true);

  [[nodiscard]] std::size_t length() const noexcept { return events_.size(); }
  /// The parsed trace, one entry per packet (true = lost).
  [[nodiscard]] const std::vector<bool>& events() const noexcept {
    return events_;
  }
  /// Fraction of lost packets in the trace.
  [[nodiscard]] double loss_rate() const noexcept;

  [[nodiscard]] bool lost() override;
  void reset(std::uint64_t seed) override;

 private:
  std::vector<bool> events_;
  bool random_rotation_;
  std::size_t pos_ = 0;
};

/// Fit a Gilbert model to a loss trace by counting state transitions —
/// the procedure used by the measurement studies the paper cites
/// ([8], [16]).  Returns {p, q}; a trace with no no-loss (resp. loss)
/// packets yields p = 0 (resp. q = 0).
struct GilbertFit {
  double p;
  double q;
};
[[nodiscard]] GilbertFit fit_gilbert(const std::vector<bool>& events);

}  // namespace fecsched
