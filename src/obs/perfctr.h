// Hardware performance counters per phase (Linux perf_event_open).
//
// One PerfGroup per observer thread: a counter group led by CPU cycles
// with instructions, cache references, cache misses and branch misses as
// members, read in one syscall around each timed phase.  Counter values
// are hardware- and load-dependent, so they live in a PerfReport that is
// merged by addition but never enters deterministic_signature() or the
// regression ledger's drift comparison.  The read *call counts* however
// are deterministic — one per timed phase call whenever counters are
// requested, whether or not the kernel granted the group — which is what
// makes the threads=1 vs threads=4 cross-check exact.
//
// Degradation, never failure: non-Linux builds compile a stub, a kernel
// refusal (perf_event_paranoid, seccomp, missing PMU) yields
// available() == false with a human-readable status, and the
// FECSCHED_PERF=off environment override forces the stub on capable
// hosts so tests and CI behave identically everywhere.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "api/json.h"
#include "obs/phase.h"

namespace fecsched::obs {

/// Set FECSCHED_PERF=off to force the counters-absent stub.
inline constexpr const char* kPerfEnv = "FECSCHED_PERF";

enum class PerfCounter : std::uint8_t {
  kCycles = 0,
  kInstructions,
  kCacheReferences,
  kCacheMisses,
  kBranchMisses,
};
inline constexpr std::size_t kPerfCounterCount = 5;

[[nodiscard]] constexpr std::string_view to_string(PerfCounter c) noexcept {
  switch (c) {
    case PerfCounter::kCycles: return "cycles";
    case PerfCounter::kInstructions: return "instructions";
    case PerfCounter::kCacheReferences: return "cache_references";
    case PerfCounter::kCacheMisses: return "cache_misses";
    case PerfCounter::kBranchMisses: return "branch_misses";
  }
  return "?";
}

using PerfValues = std::array<std::uint64_t, kPerfCounterCount>;

/// Per-phase accumulation: deterministic read count + summed deltas.
struct PerfPhase {
  std::uint64_t reads = 0;  ///< timed calls seen; merged by addition
  PerfValues values{};      ///< counter deltas; zeros when unavailable
};

/// Session-wide counter summary, merged across observer threads.
struct PerfReport {
  bool available = false;  ///< at least one thread opened its group
  std::string status;      ///< "ok", or why counters are absent
  std::array<PerfPhase, kPhaseCount> phases{};

  [[nodiscard]] bool any_reads() const noexcept {
    for (const PerfPhase& p : phases) {
      if (p.reads != 0) return true;
    }
    return false;
  }
};

/// PerfReport as the ledger line and the --json obs section carry it:
/// {"available":...,"status":...,"phases":{"<phase>":{"reads":N,
/// "cycles":...,...},...}}, one row per phase that read counters.
/// perf_from_json throws std::invalid_argument on any other shape.
[[nodiscard]] api::Json perf_json(const PerfReport& perf);
[[nodiscard]] PerfReport perf_from_json(const api::Json& j);

/// One perf_event_open counter group bound to the calling thread.
class PerfGroup {
 public:
  PerfGroup();
  ~PerfGroup();
  PerfGroup(const PerfGroup&) = delete;
  PerfGroup& operator=(const PerfGroup&) = delete;

  [[nodiscard]] bool available() const noexcept { return available_; }
  [[nodiscard]] const std::string& status() const noexcept { return status_; }

  /// Current cumulative values (one group read).  Zeros when unavailable
  /// or for members the kernel rejected individually.
  void read(PerfValues& out) noexcept;

 private:
  bool available_ = false;
  std::string status_;
  std::array<int, kPerfCounterCount> fd_;
  std::array<std::uint64_t, kPerfCounterCount> id_{};  ///< kernel ids
  int group_fd_ = -1;
};

}  // namespace fecsched::obs
