#include "sched/tx_models.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace fecsched {

namespace {

void append_range(std::vector<PacketId>& out, PacketId first, PacketId last) {
  const std::size_t at = out.size();
  out.resize(at + (last - first));
  std::iota(out.begin() + static_cast<std::ptrdiff_t>(at), out.end(), first);
}

}  // namespace

void make_schedule(const PacketPlan& plan, TxModel m, Rng& rng,
                   std::vector<PacketId>& out, const ScheduleOptions& opt) {
  const PacketId k = plan.k();
  const PacketId n = plan.n();
  out.clear();
  out.reserve(n);

  switch (m) {
    case TxModel::kTx1SeqSourceSeqParity:
      append_range(out, 0, k);
      append_range(out, k, n);
      break;

    case TxModel::kTx2SeqSourceRandParity:
      // Shuffling the parity tail in place consumes the identical Rng
      // stream (same element count) as shuffling a separate parity vector.
      append_range(out, 0, k);
      append_range(out, k, n);
      shuffle(std::span(out).subspan(k), rng);
      break;

    case TxModel::kTx3SeqParityRandSource:
      append_range(out, k, n);
      append_range(out, 0, k);
      shuffle(std::span(out).subspan(n - k), rng);
      break;

    case TxModel::kTx4AllRandom:
      append_range(out, 0, n);
      shuffle(out, rng);
      break;

    case TxModel::kTx5Interleaved: {
      const std::vector<PacketId> order = plan.interleaved_order();
      out.assign(order.begin(), order.end());
      break;
    }

    case TxModel::kTx6FewSourceRandParity: {
      if (!(opt.source_fraction >= 0.0 && opt.source_fraction <= 1.0))
        throw std::invalid_argument("make_schedule: source_fraction in [0,1]");
      const auto picked = static_cast<std::uint32_t>(
          std::llround(opt.source_fraction * static_cast<double>(k)));
      const std::vector<std::uint32_t> sources =
          sample_without_replacement(k, picked, rng);
      out.assign(sources.begin(), sources.end());
      append_range(out, k, n);
      shuffle(out, rng);
      break;
    }
  }
}

std::vector<PacketId> make_schedule(const PacketPlan& plan, TxModel m, Rng& rng,
                                    const ScheduleOptions& opt) {
  std::vector<PacketId> out;
  make_schedule(plan, m, rng, out, opt);
  return out;
}

std::vector<PacketId> truncate_schedule(std::vector<PacketId> schedule,
                                        std::size_t n_sent) {
  if (n_sent < schedule.size()) schedule.resize(n_sent);
  return schedule;
}

}  // namespace fecsched
