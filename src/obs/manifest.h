// Run manifest: provenance carried by every scenario result.
//
// The manifest closes the replayability loop the Scenario API opened with
// --dump-spec: a result (or a trace file, or a ledger record) records
// WHICH spec produced it (FNV-1a fingerprint of the canonical spec JSON
// with the obs section reset to defaults, so observation knobs never
// change a scenario's identity), under WHICH code (api::kVersion), on
// WHICH GF(256) backend, with how many threads, where and when.
// wall_seconds, started_at and hostname are attribution, not identity:
// they are excluded from both the spec fingerprint and the deterministic
// signatures the thread-independence and cross-run comparison checks use.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "api/json.h"

namespace fecsched::obs {

struct RunManifest {
  std::string fingerprint;       ///< "fnv1a:<16 hex>" of the canonical spec JSON
  std::string version;           ///< api::kVersion at run time
  std::string gf_backend;        ///< gf::to_string(gf::current_backend())
  std::string engine;            ///< "grid" | "stream" | "mpath" | "adaptive"
  unsigned threads = 0;          ///< requested worker count (0 = hardware)
  unsigned hardware_threads = 0; ///< std::thread::hardware_concurrency()
  double wall_seconds = 0.0;     ///< run_scenario wall-clock duration
  std::string started_at;        ///< ISO-8601 UTC run start; "" = unknown
  std::string hostname;          ///< machine that produced the run; "" = unknown
  std::uint64_t max_rss_kb = 0;  ///< getrusage peak RSS; 0 = unknown/omitted
  /// Completion status: "" = completed normally (omitted from JSON so
  /// pre-PR-9 manifests serialize unchanged); "interrupted" = the run
  /// drained after SIGINT/SIGTERM and its results are partial.
  std::string status;
};

/// FNV-1a 64-bit hash (public-domain parameters); stable across platforms.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// "fnv1a:<16 lowercase hex digits>" of a canonical spec JSON document.
[[nodiscard]] std::string spec_fingerprint(std::string_view canonical_json);

/// "YYYY-MM-DDTHH:MM:SSZ" (ISO-8601, UTC, second resolution).
[[nodiscard]] std::string iso8601_utc(std::chrono::system_clock::time_point when);

/// gethostname(), or "" when the host refuses to identify itself.
[[nodiscard]] std::string local_hostname();

/// Appends the fields that name what ran (spec, api, gf, engine) to the
/// object `j`; the timeline file's otherData carries these alone.
void append_manifest_identity(api::Json& j, const RunManifest& m);

/// Manifest as a JSON object.  The trace line leads with
/// `"ev":"manifest"` and appends the trace_sample knob, matching the
/// trace-file header schema in obs/trace.h.
[[nodiscard]] api::Json manifest_to_json(const RunManifest& m);
[[nodiscard]] api::Json manifest_to_trace_line(const RunManifest& m,
                                               std::uint32_t trace_sample);

/// Inverse of manifest_to_json.  Strict: a missing or mistyped field or
/// an unknown key throws std::invalid_argument.
[[nodiscard]] RunManifest manifest_from_json(const api::Json& j);

}  // namespace fecsched::obs
