#include "sim/mpath_sweep.h"

namespace fecsched {

std::vector<MpathVariant> MpathSweepConfig::default_variants() {
  return {
      {"round-robin", PathScheduling::kRoundRobin},
      {"weighted", PathScheduling::kWeighted},
      {"split", PathScheduling::kSplit},
      {"earliest-arrival", PathScheduling::kEarliestArrival},
  };
}

void MpathPointStats::add(const MpathTrialResult& r,
                          const MpathTrialConfig& cfg) {
  stream.add(r.stream, cfg.stream.source_count);
  reordered_fraction.add(r.reordered_fraction);
  std::size_t best = 0;
  for (std::size_t i = 0; i < cfg.paths.size(); ++i)
    if (cfg.paths[i].delay < cfg.paths[best].delay) best = i;
  std::uint64_t best_sent = 0, total_sent = 0;
  for (std::size_t i = 0; i < r.paths.size(); ++i) {
    total_sent += r.paths[i].sent;
    if (i == best) best_sent = r.paths[i].sent;
  }
  best_path_share.add(total_sent ? static_cast<double>(best_sent) /
                                       static_cast<double>(total_sent)
                                 : 0.0);
}

}  // namespace fecsched
