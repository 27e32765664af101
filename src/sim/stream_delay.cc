#include "sim/stream_delay.h"

#include <stdexcept>
#include <string>

#include "sim/table_io.h"

namespace fecsched {

void StreamPointStats::add(const StreamTrialResult& r,
                           std::uint32_t source_count) {
  mean_delay.add(r.delay.mean);
  p95_delay.add(r.delay.p95);
  p99_delay.add(r.delay.p99);
  max_delay.add(r.delay.max);
  mean_hol.add(r.delay.mean_hol);
  residual_mean_run.add(r.residual.mean_run_length);
  residual_max_run.add(static_cast<double>(r.residual.max_run_length));
  undelivered_fraction.add(static_cast<double>(r.residual.lost) /
                           static_cast<double>(source_count));
  overhead_actual.add(r.overhead_actual);
  ++trials;
}

std::vector<StreamVariant> StreamGridConfig::default_variants() {
  return {
      {"sliding-window", StreamScheme::kSlidingWindow,
       StreamScheduling::kSequential},
      {"block-rse/seq", StreamScheme::kBlockRse,
       StreamScheduling::kSequential},
      {"block-rse/interleaved", StreamScheme::kBlockRse,
       StreamScheduling::kInterleaved},
      {"ldgm/seq", StreamScheme::kLdgm, StreamScheduling::kSequential},
      {"replication", StreamScheme::kReplication,
       StreamScheduling::kSequential},
  };
}

ChannelPoint gilbert_point(double p_global, double mean_burst) {
  if (!(p_global >= 0.0 && p_global < 1.0))
    throw std::invalid_argument("gilbert_point: p_global must be in [0, 1)");
  if (!(mean_burst >= 1.0))
    throw std::invalid_argument("gilbert_point: mean_burst must be >= 1");
  const double q = 1.0 / mean_burst;
  const double p = p_global * q / (1.0 - p_global);
  if (p > 1.0)
    throw std::invalid_argument(
        "gilbert_point: (p_global " + format_fixed(p_global, 4) +
        ", mean_burst " + format_fixed(mean_burst, 4) +
        ") is not a Gilbert channel (p = " + format_fixed(p, 4) + " > 1)");
  return {p, q};
}

}  // namespace fecsched
