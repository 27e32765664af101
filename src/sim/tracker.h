// Structure-only decoding trackers for the simulation (Sec. 4.1).
//
// A tracker answers one question as packets arrive: "can the receiver
// reconstruct the object yet?"  No payload bytes move — only the decoding
// state machine runs, which is what makes the paper's 14x14x100-trial
// sweeps cheap.  Each FEC code has its own completion rule:
//
//  * RSE (MDS, blocked): a block decodes once k_b *distinct* packets of
//    that block arrived; the object decodes when every block has.
//  * LDGM-*: the iterative peeling decoder completes (all k sources known).
//  * Replication: every source packet was received at least once.
//
// Trackers ignore duplicates internally ("each non duplicated incoming
// packet...", Sec. 2.3.2); counting the cost of duplicates is the trial
// runner's job.

#pragma once

#include <memory>
#include <optional>

#include "fec/block_partition.h"
#include "fec/ge_decoder.h"
#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "fec/replication.h"
#include "fec/types.h"

namespace fecsched {

/// Incremental "can we decode yet?" oracle for one receiver and object.
class ErasureTracker {
 public:
  virtual ~ErasureTracker() = default;

  /// Feed one arriving packet (duplicates are safe and ignored).
  virtual void on_packet(PacketId id) = 0;
  /// True once the whole object is recoverable.
  [[nodiscard]] virtual bool complete() const = 0;
  /// Restart for a new trial (keeps allocations where possible).
  virtual void reset() = 0;

  /// Working memory a real decoder would hold right now, in packet-sized
  /// symbols, excluding the decoded output itself (the paper lists "the
  /// maximum memory requirements" as a future-work metric; run_trial
  /// tracks the peak of this value):
  ///  * RSE buffers received packets of each block until the block solves;
  ///  * LDGM substitutes arrivals into its n-k check accumulators
  ///    immediately, so its working set is constant;
  ///  * replication needs no working memory at all.
  [[nodiscard]] virtual std::uint32_t working_memory_symbols() const {
    return 0;
  }
};

/// MDS per-block counting tracker for blocked Reed-Solomon.
class RseTracker final : public ErasureTracker {
 public:
  /// Tabulates the block of every packet id and the k of every block, so
  /// on_packet is two table reads instead of RsePlan::position's search.
  explicit RseTracker(std::shared_ptr<const RsePlan> plan);

  /// Inline and branch-free past the id check: the grid engine calls it
  /// once per received packet through an RseTracker&.
  void on_packet(PacketId id) override {
    if (id >= block_of_.size()) bad_id();
    const std::uint32_t b = block_of_[id];
    const std::uint32_t block_k = block_k_[b];
    const std::uint32_t have = received_per_block_[b];
    // A packet counts once, and only towards a block still short of k_b
    // (a solved block buffers nothing).
    const std::uint32_t useful = (seen_[id] == 0) & (have < block_k);
    seen_[id] = 1;
    received_per_block_[b] = have + useful;
    buffered_ += useful;
    // The k_b-th packet solves the block: the solver consumes the buffer.
    const std::uint32_t solves = useful & (have + 1 == block_k);
    satisfied_blocks_ += solves;
    buffered_ -= solves * block_k;
  }
  [[nodiscard]] bool complete() const override {
    return satisfied_blocks_ == block_k_.size();
  }
  void reset() override;
  /// Packets buffered in not-yet-solved blocks.
  [[nodiscard]] std::uint32_t working_memory_symbols() const override {
    return buffered_;
  }
  /// The block of packet `id` as on_packet reads it (id < n).
  [[nodiscard]] std::uint32_t block_of(PacketId id) const {
    return block_of_.at(id);
  }

 private:
  [[noreturn]] static void bad_id();

  std::vector<std::uint32_t> block_of_;  ///< by packet id
  std::vector<std::uint32_t> block_k_;   ///< by block
  std::vector<char> seen_;
  std::vector<std::uint32_t> received_per_block_;
  std::uint32_t satisfied_blocks_ = 0;
  std::uint32_t buffered_ = 0;
};

/// Peeling-decoder tracker for the LDGM family.  Optionally finishes a
/// stuck decode with the Gaussian-elimination fallback (ML decoding
/// ablation) the moment enough packets could make it complete.
class LdgmTracker final : public ErasureTracker {
 public:
  /// The code (graph) must outlive the tracker.
  explicit LdgmTracker(std::shared_ptr<const LdgmCode> code,
                       bool ge_fallback = false);

  void on_packet(PacketId id) override;
  [[nodiscard]] bool complete() const override { return complete_; }
  void reset() override;

  [[nodiscard]] const PeelingDecoder& decoder() const noexcept {
    return decoder_;
  }
  /// The n-k check-equation accumulators (constant for the whole decode).
  [[nodiscard]] std::uint32_t working_memory_symbols() const override {
    return decoder_.matrix().rows();
  }

 private:
  std::shared_ptr<const LdgmCode> code_;
  PeelingDecoder decoder_;
  bool ge_fallback_;
  bool complete_ = false;
  std::uint32_t since_ge_attempt_ = 0;
};

/// Distinct-source bitmap tracker for the x-times replication baseline.
class ReplicationTracker final : public ErasureTracker {
 public:
  explicit ReplicationTracker(std::shared_ptr<const ReplicationPlan> plan);

  void on_packet(PacketId id) override;
  [[nodiscard]] bool complete() const override {
    return distinct_ == plan_->k();
  }
  void reset() override;

 private:
  std::shared_ptr<const ReplicationPlan> plan_;
  std::vector<char> have_;
  std::uint32_t distinct_ = 0;
};

}  // namespace fecsched
