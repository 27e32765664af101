#include "stream/delay_tracker.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"
#include "util/stats.h"

namespace fecsched {

void DelayTracker::reset() {
  records_.clear();
  frontier_ = 0;
  last_release_ = 0.0;
  delays_.clear();
  transport_sum_ = 0.0;
  hol_sum_ = 0.0;
  residual_ = {};
  open_run_ = 0;
}

void DelayTracker::on_sent(std::uint64_t seq, double t) {
  if (seq != records_.size())
    throw std::invalid_argument(
        "DelayTracker::on_sent: sources must be sent in seq order");
  Record rec;
  rec.sent = t;
  records_.push_back(rec);
}

void DelayTracker::on_available(std::uint64_t seq, double t) {
  if (seq >= records_.size())
    throw std::invalid_argument("DelayTracker::on_available: unsent seq");
  Record& rec = records_[seq];
  if (rec.has_fate) return;  // duplicate availability is harmless
  rec.has_fate = true;
  rec.lost = false;
  rec.available = std::max(t, rec.sent);  // cannot exist before it was sent
  // Trace: the source became recoverable (received directly or repaired).
  obs::Hook().decoded(rec.available, seq);
  advance(t);
}

void DelayTracker::on_lost(std::uint64_t seq, double t) {
  if (seq >= records_.size())
    throw std::invalid_argument("DelayTracker::on_lost: unsent seq");
  Record& rec = records_[seq];
  if (rec.has_fate) return;
  rec.has_fate = true;
  rec.lost = true;
  rec.available = std::max(t, rec.sent);
  advance(t);
}

void DelayTracker::advance(double t) {
  // One hook per frontier advance (not per release): dormant cost stays a
  // single branch even while draining a long head-of-line backlog.
  const obs::Hook hook;
  while (frontier_ < records_.size() && records_[frontier_].has_fate) {
    const Record& rec = records_[frontier_];
    if (rec.lost) {
      ++residual_.lost;
      ++open_run_;
      residual_.max_run_length = std::max(residual_.max_run_length, open_run_);
      if (open_run_ == 1) ++residual_.runs;
      hook.released(rec.available, frontier_, false, 0.0);
    } else {
      open_run_ = 0;
      // Released now: the event at time t unblocked the frontier.  A source
      // available before the frontier reached it was head-of-line blocked
      // for the difference.
      const double release =
          std::max({t, rec.available, last_release_});
      last_release_ = release;
      delays_.push_back(release - rec.sent);
      transport_sum_ += rec.available - rec.sent;
      hol_sum_ += release - rec.available;
      hook.released(release, frontier_, true, release - rec.sent);
    }
    ++frontier_;
  }
  residual_.mean_run_length =
      residual_.runs ? static_cast<double>(residual_.lost) /
                           static_cast<double>(residual_.runs)
                     : 0.0;
}

DelaySummary DelayTracker::summary() const {
  DelaySummary s;
  s.delivered = delays_.size();
  s.lost = residual_.lost;
  if (delays_.empty()) return s;
  std::vector<double> sorted = delays_;
  sort_doubles(sorted);
  double sum = 0.0;
  for (double d : sorted) sum += d;
  const double n = static_cast<double>(sorted.size());
  s.mean = sum / n;
  s.p50 = sorted_percentile(sorted, 0.50);
  s.p95 = sorted_percentile(sorted, 0.95);
  s.p99 = sorted_percentile(sorted, 0.99);
  s.max = sorted.back();
  s.mean_transport = transport_sum_ / n;
  s.mean_hol = hol_sum_ / n;
  return s;
}

}  // namespace fecsched
