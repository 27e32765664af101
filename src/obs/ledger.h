// Append-only JSONL run ledger: the repo's cross-run memory.
//
// One line per run or bench = provenance (RunManifest) + what the run
// measured (metrics snapshot, phase timings, an optional free-form extra
// payload from benches).  Records are keyed by the manifest's spec
// fingerprint, which hashes the spec with the obs section zeroed — so a
// traced run, a profiled run and a bare run of the same scenario all land
// under the same key and are comparable.
//
// The format is deliberately shard-friendly: ledgers append locally
// (append_record opens O_APPEND-style and writes one line), merge by
// concatenation, and compact_records() produces an order-deterministic
// canonical form — sort by (fingerprint, engine, gf, started_at,
// hostname, serialized line), dedupe byte-identical lines — so N shards
// merged in any order compact to the same bytes.  That property is the
// groundwork for checkpointed scale-out sweeps (merge partial ledgers
// from many hosts) and is pinned by tests/ledger_test.cc.
//
// obs/regress.h builds the history/compare queries on top of this file.

#pragma once

#include <array>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "api/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace fecsched::obs {

/// Environment variable consulted when no --ledger= flag is given.
inline constexpr std::string_view kLedgerEnv = "FECSCHED_LEDGER";

struct LedgerRecord {
  std::string kind = "run";  ///< "run" (scenario) or "bench"
  std::string label;         ///< bench name / free-form tag; "" = none
  RunManifest manifest;
  std::array<PhaseStats, kPhaseCount> phases{};
  MetricsSnapshot metrics;
  PerfReport perf;  ///< hardware counters; serialized only when read
  api::Json extra;  ///< bench payload (object) or null

  /// True when any phase recorded calls (profiling was on for this run).
  [[nodiscard]] bool has_profile() const noexcept {
    for (const PhaseStats& s : phases)
      if (s.calls > 0) return true;
    return false;
  }

  /// True when the run requested hardware counters (even if the host
  /// denied them — the absent marker is worth recording).
  [[nodiscard]] bool has_perf() const noexcept {
    return perf.available || perf.any_reads() || !perf.status.empty();
  }
};

/// Record <-> JSON.  record_from_json is strict: unknown keys, wrong
/// kinds and malformed sections throw std::invalid_argument.
[[nodiscard]] api::Json record_to_json(const LedgerRecord& record);
[[nodiscard]] LedgerRecord record_from_json(const api::Json& j);

/// The canonical single-line serialization (what append/compact write).
[[nodiscard]] std::string ledger_line(const LedgerRecord& record);

/// A "run" record from a finished scenario's manifest + report.
[[nodiscard]] LedgerRecord make_run_record(const RunManifest& manifest,
                                           const Report& report);

/// Append one record to `path` (created if missing) with a single durable
/// O_APPEND write (util/durable_io.h), so concurrent shard appenders
/// never interleave bytes.  Fault site "ledger.append".  Throws on I/O
/// error.
void append_record(const std::string& path, const LedgerRecord& record);

/// Parse a whole ledger file / stream.  Blank lines are skipped; a
/// malformed line throws std::invalid_argument with "<name>:<line>: ..."
/// — except, by default, a single torn trailing line with no final
/// newline (the signature of a crash mid-append), which is dropped with
/// a stderr warning.  `strict` rejects even that (the history/compare
/// --strict escape hatch).
[[nodiscard]] std::vector<LedgerRecord> load_ledger(const std::string& path,
                                                    bool strict = false);
[[nodiscard]] std::vector<LedgerRecord> load_ledger_stream(
    std::istream& in, const std::string& name, bool strict = false);

/// Canonical order + dedupe: sort by (fingerprint, engine, gf backend,
/// started_at, hostname, serialized line), drop byte-identical duplicates.
/// Shards merged in any order compact to identical output.
[[nodiscard]] std::vector<LedgerRecord> compact_records(
    std::vector<LedgerRecord> records);

}  // namespace fecsched::obs
