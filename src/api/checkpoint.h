// Sharded checkpoint/resume for grid sweeps.
//
// A checkpointed sweep persists every completed grid cell as one small
// JSON shard in a caller-chosen directory, written durably (temp + fsync
// + rename, util/durable_io.h) the moment the cell's last trial finishes.
// A later run pointed at the same directory with resume=true loads the
// shards, skips the finished cells, and recomputes only what is missing —
// and because the shards store the per-cell RunningStats moments as exact
// round-trip doubles (api::Json::format_double / RunningStats::restore),
// the resumed result is byte-identical to an uninterrupted run.  The
// sweep itself is run_grid's: this module only restores shards before it
// starts and writes one per finished cell (attach_checkpoint).
//
// Shards are keyed twice so stale state can never corrupt a sweep:
//
//  * the file name carries the spec fingerprint (the obs-excluded FNV-1a
//    of the canonical spec JSON — the same identity the run ledger uses),
//    so two different sweeps sharing a directory never collide; and
//  * every shard body repeats the fingerprint, the cell index and the
//    trial count, all re-validated on load.  A shard that fails any
//    check (malformed JSON, wrong spec, wrong shape) is warned about on
//    stderr and recomputed — a corrupt file degrades resume to recompute,
//    it never poisons results or aborts the run.
//
// Execution-control knobs (checkpoint directory, trial watchdog) are
// deliberately NOT part of ScenarioSpec: they do not change what is
// computed, so they must not change the spec fingerprint.  They travel in
// api::RunControl (scenario.h) instead.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sim/grid.h"

namespace fecsched::api {

/// Where (and whether) a sweep persists per-cell shards.
struct CheckpointSpec {
  /// Shard directory (created if absent).  Empty = checkpointing off.
  std::string dir;
  /// Load existing shards and skip their cells.  With resume=false an
  /// existing directory is still written to (shards are overwritten), so
  /// a fresh run invalidates nothing.
  bool resume = false;

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

/// Shard path for `cell` of the sweep identified by `fingerprint`
/// ("fnv1a:<16 hex>"): <dir>/<16 hex>.cell<cell>.json.
[[nodiscard]] std::string shard_path(const std::string& dir,
                                     const std::string& fingerprint,
                                     std::size_t cell);

/// Serialize one completed cell as a single-line shard document.  All
/// doubles use the canonical shortest-round-trip form, so
/// shard_json -> parse -> restore reproduces the CellResult bit-exactly.
[[nodiscard]] std::string shard_json(const std::string& fingerprint,
                                     std::size_t cell, const CellResult& c,
                                     std::uint32_t trials_per_cell);

/// Parse and validate a shard against the expected identity.  Throws
/// std::invalid_argument naming the first failed check (malformed JSON,
/// wrong kind/spec/cell, trial count != trials_per_cell).
[[nodiscard]] CellResult cell_from_shard(std::string_view text,
                                         const std::string& fingerprint,
                                         std::size_t cell,
                                         std::uint32_t trials_per_cell);

/// Durably write `cell`'s shard (fault site "checkpoint.shard" fires
/// before any byte is written).  Throws std::runtime_error on IO failure.
void write_shard(const CheckpointSpec& checkpoint,
                 const std::string& fingerprint, std::size_t cell,
                 const CellResult& c, std::uint32_t trials_per_cell);

/// Load `cell`'s shard if present and valid.  Absent file -> nullopt.
/// Present-but-invalid file -> one stderr warning naming the path and the
/// reason, then nullopt (the cell is recomputed and the shard rewritten).
[[nodiscard]] std::optional<CellResult> try_load_shard(
    const CheckpointSpec& checkpoint, const std::string& fingerprint,
    std::size_t cell, std::uint32_t trials_per_cell);

/// Arm `options` (run_grid's checkpoint hooks) to write one durable
/// shard per finished cell and, with checkpoint.resume, to restore every
/// cell whose shard loads (try_load_shard) before the sweep starts.
/// Creates checkpoint.dir.  `fingerprint` is the obs-excluded spec
/// fingerprint the shards are keyed by.  On resume it also removes this
/// fingerprint's temp shards ("<shard>.tmp.<pid>") whose writer no longer
/// exists: a crash mid-write leaves them behind.
void attach_checkpoint(GridRunOptions& options,
                       const CheckpointSpec& checkpoint,
                       const std::string& fingerprint);

}  // namespace fecsched::api
