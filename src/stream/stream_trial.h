// One simulated streaming reception: a paced source stream protected by a
// FEC scheme, replayed through a channel/ loss model into a delay tracker.
//
// This is the delay-axis counterpart of sim/trial: instead of "how many
// packets until the object decodes", it answers "how long until each
// source packet can be released in order" (stream/delay_tracker) under
// four protection schemes at matched repair overhead:
//
//  * kSlidingWindow — stream/sliding_window: sources go out as produced,
//    one repair over the last W sources every `1/overhead` sources.
//  * kReplication  — same pacing, but every repair slot re-sends one of
//    the last W sources round-robin (the no-FEC baseline).
//  * kBlockRse     — blocked Reed-Solomon (fec/block_partition geometry,
//    MDS completion rule as in sim/tracker): a block's missing sources
//    are recovered when k_b distinct packets of the block arrived.
//  * kLdgm         — one large-block LDGM code over the whole stream with
//    the iterative peeling decoder (fec/peeling_decoder).
//
// Block schemes take a scheduling axis (the paper's Sec. 4 knob, via
// sched/): per-block sequential, interleaved (Tx_model_5 order), or a
// block carousel (sched/carousel loops the sequential schedule up to
// max_cycles until everything is delivered).  Time is discrete: the
// channel transmits exactly one packet per slot, and all delays are
// measured in slots from the source's own transmission slot.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "channel/loss_model.h"
#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "stream/delay_tracker.h"
#include "stream/sliding_window.h"

namespace fecsched {

/// FEC protection applied to the stream.
enum class StreamScheme { kSlidingWindow, kReplication, kBlockRse, kLdgm };

[[nodiscard]] constexpr std::string_view to_string(StreamScheme s) noexcept {
  switch (s) {
    case StreamScheme::kSlidingWindow: return "sliding-window";
    case StreamScheme::kReplication: return "replication";
    case StreamScheme::kBlockRse: return "block-rse";
    case StreamScheme::kLdgm: return "ldgm";
  }
  return "?";
}

/// Packet scheduling for the block schemes (ignored by kSlidingWindow and
/// kReplication, which are inherently sequential).
enum class StreamScheduling {
  kSequential,   ///< each block: its sources, then its parity
  kInterleaved,  ///< Tx_model_5 order (sched/tx_models)
  kCarousel,     ///< sequential schedule looped (sched/carousel)
};

[[nodiscard]] constexpr std::string_view to_string(
    StreamScheduling s) noexcept {
  switch (s) {
    case StreamScheduling::kSequential: return "sequential";
    case StreamScheduling::kInterleaved: return "interleaved";
    case StreamScheduling::kCarousel: return "carousel";
  }
  return "?";
}

/// Everything that defines one streaming trial.
struct StreamTrialConfig {
  StreamScheme scheme = StreamScheme::kSlidingWindow;
  StreamScheduling scheduling = StreamScheduling::kSequential;
  std::uint32_t source_count = 2000;  ///< stream length in source packets
  /// Repair overhead (n-k)/k.  The sliding/replication schemes realise it
  /// as one repair every round(1/overhead) sources; the block schemes as
  /// the expansion ratio 1 + overhead.
  double overhead = 0.25;
  std::uint32_t window = 64;   ///< sliding window W / replication span
  std::uint32_t block_k = 64;  ///< target sources per RSE block
  std::uint32_t max_cycles = 4;  ///< kCarousel repetitions
  SlidingCoefficients coefficients = SlidingCoefficients::kRandomGf256;
  LdgmVariant ldgm_variant = LdgmVariant::kStaircase;
  std::uint32_t left_degree = 3;
  std::uint32_t triangle_extra_per_row = 1;

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;
  /// round(1/overhead), the sliding/replication repair pacing.
  [[nodiscard]] std::uint32_t repair_interval() const;
};

/// Outcome of one streaming trial.
struct StreamTrialResult {
  DelaySummary delay;
  ResidualLossStats residual;
  /// Release-time delay (slots) of every delivered source, release order —
  /// the full distribution, kept for the CLI's JSON output.
  std::vector<double> delays;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  double overhead_actual = 0.0;  ///< repair packets actually sent / sources
  bool all_delivered = false;    ///< no source was released as lost
};

/// Reusable per-trial state for run_stream_trial: the decoders, the delay
/// tracker and every sizeable per-trial vector.  Sweeps keep one workspace
/// per worker thread so the inner trial loop stops allocating; every
/// member is fully re-initialised at the start of each trial, so reuse
/// never changes a result bit (the threads=1-vs-N grid tests pin this).
struct StreamTrialWorkspace {
  DelayTracker tracker;
  std::optional<SlidingWindowDecoder> decoder;
  std::optional<PeelingDecoder> peeler;
  std::vector<char> have;
  std::vector<PacketId> schedule;
  std::vector<std::uint64_t> tx_slot;
  std::vector<std::vector<std::uint32_t>> ends_at_slot;
  std::vector<char> seen;
  std::vector<std::uint32_t> block_received;
  std::vector<char> block_decoded;
};

/// Run one streaming trial.  The channel is reset from `seed`; all other
/// randomness (schedules, LDGM graph, repair coefficients) derives from
/// `seed` too, so the trial is reproducible.
[[nodiscard]] StreamTrialResult run_stream_trial(const StreamTrialConfig& cfg,
                                                 LossModel& channel,
                                                 std::uint64_t seed);

/// Workspace-reusing variant (identical output, fewer allocations).
[[nodiscard]] StreamTrialResult run_stream_trial(const StreamTrialConfig& cfg,
                                                 LossModel& channel,
                                                 std::uint64_t seed,
                                                 StreamTrialWorkspace& ws);

class RsePlan;

/// The streaming block-RSE schedule: each block's sources then its parity
/// (a streaming block-FEC sender flushes per block, unlike Tx_model_1's
/// bulk source-then-parity order).  Shared with the multipath trial
/// (src/mpath/), which must emit the identical sequence for its 1-path
/// degenerate case to reproduce this trial bit-for-bit.
[[nodiscard]] std::vector<PacketId> per_block_sequential(const RsePlan& plan);

/// Allocation-reusing variant: fills `out` in place (cleared first).
void per_block_sequential(const RsePlan& plan, std::vector<PacketId>& out);

}  // namespace fecsched
