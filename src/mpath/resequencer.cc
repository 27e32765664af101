#include "mpath/resequencer.h"

#include <algorithm>
#include <tuple>

namespace fecsched {

namespace {

bool before(const RxEvent& a, const RxEvent& b) {
  return std::tie(a.time, a.phase, a.order) <
         std::tie(b.time, b.phase, b.order);
}

}  // namespace

void Resequencer::reset(std::size_t runs) {
  runs_.resize(runs);
  for (std::vector<RxEvent>& run : runs_) run.clear();
}

std::size_t Resequencer::size() const noexcept {
  std::size_t n = 0;
  for (const std::vector<RxEvent>& run : runs_) n += run.size();
  return n;
}

const std::vector<const RxEvent*>& Resequencer::drain() {
  heap_.clear();
  for (std::vector<RxEvent>& run : runs_) {
    if (run.empty()) continue;
    if (!std::is_sorted(run.begin(), run.end(), before))
      std::sort(run.begin(), run.end(), before);
    heap_.push_back({run.data(), run.data() + run.size()});
  }
  const auto later = [](const Head& a, const Head& b) {
    return before(*b.next, *a.next);
  };
  std::make_heap(heap_.begin(), heap_.end(), later);

  replay_.clear();
  replay_.reserve(size());
  std::size_t n = heap_.size();
  while (n > 0) {
    Head top = heap_[0];
    replay_.push_back(top.next++);
    if (top.next == top.end) {
      if (--n == 0) break;
      top = heap_[n];  // the last run takes the emptied run's place
    }
    // Sift the root's new head down to its place.
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n && before(*heap_[c + 1].next, *heap_[c].next)) ++c;
      if (!before(*heap_[c].next, *top.next)) break;
      heap_[i] = heap_[c];
      i = c;
    }
    heap_[i] = top;
  }
  return replay_;
}

}  // namespace fecsched
