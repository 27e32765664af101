// Receiver-side event resequencer (src/mpath/).
//
// Paths with different propagation delays deliver packets out of emission
// order; everything downstream of the receiver (the FEC decoders and the
// in-order delivery accounting of stream/DelayTracker) requires events in
// non-decreasing time order.  The resequencer is that merge point: the
// trial pushes one event per packet arrival and one per decoding deadline
// (the time after which a source/block is provably unrecoverable), then
// drains them in (time, phase, order) order.
//
// The `phase` field resolves same-instant ties deterministically — e.g.
// the single-path paced trial declares window give-ups *before* it
// processes the packet arriving in the same slot, while the block trial
// ends a block *after* the block's last packet of that slot; the
// degenerate-config oracle (1 path, zero delay == single-path
// stream_trial, bit for bit) depends on reproducing exactly that order.
// `order` breaks remaining ties by emission/sequence number, keeping the
// replay independent of push order.
//
// Run contract.  Events are pushed into runs, each expected in replay
// order already: the multipath trial keeps one run per path and one of
// deadlines (mpath/mpath_trial.h says why each is in order).  drain()
// checks every run with std::is_sorted, sorts only a run that fails the
// check, then merges the runs through a binary heap over their heads:
// O(n log K) for n events in K runs, against O(n log n) for sorting them
// all.  The caller keeps the (time, phase, order) keys unique; then the
// replay is exactly the sorted order, whatever the runs and the push
// interleaving.

#pragma once

#include <cstdint>
#include <vector>

namespace fecsched {

/// One receiver event.
struct RxEvent {
  double time = 0.0;
  std::uint64_t order = 0;    ///< remaining tie-break, ascending
  std::uint64_t value = 0;    ///< caller-defined payload (seq / index)
  std::uint32_t phase = 0;    ///< same-time tie-break, ascending
  std::uint32_t kind = 0;     ///< caller-defined discriminator
};

/// Collects runs of events, replays them in (time, phase, order) order.
class Resequencer {
 public:
  /// Drop every event and start `runs` empty runs (buffers are kept).
  void reset(std::size_t runs);

  /// Append to run `run`, which must be below the count reset() took.
  void push(std::size_t run, const RxEvent& event) {
    runs_[run].push_back(event);
  }
  void push(std::size_t run, double time, std::uint32_t phase,
            std::uint64_t order, std::uint32_t kind, std::uint64_t value) {
    runs_[run].push_back({.time = time,
                          .order = order,
                          .value = value,
                          .phase = phase,
                          .kind = kind});
  }

  /// Events over all runs.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Every event in replay order (callers iterate once).  The pointers
  /// point into the runs and stay valid until the next push or reset;
  /// draining again without a push replays the same order.
  [[nodiscard]] const std::vector<const RxEvent*>& drain();

 private:
  /// A run's unreplayed events, [next, end).
  struct Head {
    const RxEvent* next;
    const RxEvent* end;
  };

  std::vector<std::vector<RxEvent>> runs_;
  std::vector<Head> heap_;               ///< min-heap on *next
  std::vector<const RxEvent*> replay_;   ///< drain()'s output
};

}  // namespace fecsched
