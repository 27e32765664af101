// Symbol-lifecycle trace events and their JSONL file format.
//
// A trace file is one JSON document per line:
//   line 1:  {"ev":"manifest", ...}   run provenance (obs/manifest.h)
//   lines:   {"ev":"sent"|"lost"|"received"|"decoded"|"released", ...}
//   last:    {"ev":"summary","counters":{...},"gauges":{...}}
//
// The summary line carries the ENGINE-side aggregate metrics, computed by
// the trial loops independently of event emission.  tools/trace_stats
// recomputes residual-loss run lengths from the `released` events alone
// and cross-checks them against that summary, so a bug in either path
// (event emission or engine accounting) surfaces as a mismatch.
//
// Event schema (fields beyond the common ev/trial/slot/id are
// kind-specific; optional fields are omitted when unset):
//   sent/lost/received:  repair:bool, path?:int, obj?:int
//   decoded:             (none)
//   released:            ok:bool, delay:double   (slots; 0 for lost)
//
// Events are ordered by (trial, emission order within the trial).  Each
// trial runs wholly on one worker thread, so sorting the merged stream by
// trial id restores a thread-count-independent order.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/json.h"
#include "obs/metrics.h"

namespace fecsched::obs {

enum class EventKind : std::uint8_t { kSent, kLost, kReceived, kDecoded, kReleased };

[[nodiscard]] constexpr std::string_view to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kSent: return "sent";
    case EventKind::kLost: return "lost";
    case EventKind::kReceived: return "received";
    case EventKind::kDecoded: return "decoded";
    case EventKind::kReleased: return "released";
  }
  return "?";
}

struct TraceEvent {
  EventKind kind = EventKind::kSent;
  std::uint64_t trial = 0;   ///< scenario-global trial ordinal
  double slot = 0.0;         ///< channel slot (paced trials may be fractional)
  std::uint64_t id = 0;      ///< symbol id: source seq, or k+j for repair j
  bool repair = false;       ///< sent/lost/received: repair symbol?
  std::int32_t path = -1;    ///< mpath only: path index; -1 = n/a
  std::int64_t obj = -1;     ///< object/window/block id; -1 = n/a
  bool ok = false;           ///< released: delivered (true) or lost for good
  double delay = 0.0;        ///< released: release slot - send slot (0 if lost)

  [[nodiscard]] bool operator==(const TraceEvent&) const = default;
};

/// One event as a JSON object (the JSONL line, minus the newline).
[[nodiscard]] api::Json event_to_json(const TraceEvent& ev);

/// Inverse of event_to_json.  Throws std::invalid_argument on schema
/// violations (unknown ev, missing/mistyped field, unknown key).
[[nodiscard]] TraceEvent event_from_json(const api::Json& j);

/// Validate any trace line (manifest, event, or summary) against the file
/// schema; an event line's parsed event is returned, so a reader parses
/// it once.  Throws std::invalid_argument naming the offending key.
std::optional<TraceEvent> validate_trace_line(const api::Json& j);

/// Write a complete trace file: manifest line, one line per event, then
/// the engine-side summary line built from `metrics`.  Throws
/// std::runtime_error if the file cannot be opened.
void write_trace_file(const std::string& path, const api::Json& manifest,
                      std::span<const TraceEvent> events,
                      const MetricsSnapshot& metrics);

struct TraceFile {
  api::Json manifest;
  std::vector<TraceEvent> events;
  api::Json summary;
};

/// Read + validate a trace file written by write_trace_file.  Throws
/// std::invalid_argument (schema) or std::runtime_error (I/O) with the
/// offending line number.
[[nodiscard]] TraceFile read_trace_file(const std::string& path);

/// Residual-loss statistics recomputed from `released` events alone.
/// A residual run is a maximal streak of consecutive (in release order,
/// i.e. sequence order) sources released with ok=false within one trial —
/// the same definition sim/residual.h applies to the delivered stream.
struct TraceResidual {
  std::uint64_t lost = 0;      ///< sources released unrecovered
  std::uint64_t runs = 0;      ///< number of residual loss runs
  std::uint64_t max_run = 0;   ///< longest run, max over trials
  std::uint64_t released = 0;  ///< total released events seen
  std::uint64_t trials = 0;    ///< distinct trials with >= 1 released event

  [[nodiscard]] double mean_run() const noexcept {
    return runs == 0 ? 0.0 : static_cast<double>(lost) / static_cast<double>(runs);
  }
};

/// Events must be ordered by (trial, emission order) as written by
/// write_trace_file.
[[nodiscard]] TraceResidual residual_from_trace(std::span<const TraceEvent> events);

}  // namespace fecsched::obs
