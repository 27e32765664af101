// Engine-wide observability: per-thread observers behind one global
// session, with zero overhead when no session is armed.
//
// Design contract (load-bearing for the repo's bit-identity guarantees):
//
//  * Observation NEVER draws randomness, never reorders engine work, and
//    never changes a result.  Hooks only read trial state the engines
//    already computed.
//  * Disabled cost is one relaxed atomic load + branch per hook site
//    (obs::current() returns nullptr), and the engines' innermost loops
//    hoist even that into a per-trial obs::Hook whose cached booleans
//    reduce a dormant hook to a register test.
//  * Thread-count independence: each engine assigns whole trials to
//    worker threads and brackets them with obs::TrialScope, so every
//    observation is attributable to a trial ordinal that does not depend
//    on the thread that ran it.  Session::finish() merges per-thread
//    sinks by exact u64 arithmetic (metrics), sums phase call counts, and
//    stable-sorts trace events by trial ordinal — everything in the
//    merged Report except nanosecond timings is bit-identical for any
//    --threads value (Report::deterministic_signature()).
//  * The hot-path collectors obey the same split: timeline span
//    timestamps and hardware-counter values are wall/machine facts and
//    stay out of the signature, while phase call counts and counter
//    *read* counts are deterministic and merged exactly.
//
// Threads are attached lazily: the first hook a worker thread hits
// registers a thread-local Observer with the armed session.  A global
// generation counter invalidates thread-local pointers from previous
// sessions, so the fresh std::threads util/parallel.h spawns per call —
// and reused caller threads across sessions — both resolve correctly.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/perfctr.h"
#include "obs/phase.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "util/watchdog.h"

namespace fecsched {
class ParallelObserver;
}  // namespace fecsched

namespace fecsched::obs {

/// What to collect.  Metrics ride along with profiling and tracing (the
/// trace summary line and the profile report both need them), so
/// `counting` is true whenever anything is enabled.  Timeline spans and
/// hardware counters ride on the profiling phase hooks, so callers
/// requesting them should also set `profile` (ObsSpec::config() does).
struct Config {
  bool metrics = false;
  bool profile = false;
  bool trace = false;
  std::uint32_t trace_sample = 1;  ///< trace every Nth trial ordinal
  bool timeline = false;           ///< collect Chrome-trace spans
  bool counters = false;           ///< read perf counters per phase

  [[nodiscard]] bool enabled() const noexcept {
    return metrics || profile || trace || timeline || counters;
  }
};

/// Per-thread sink.  Never shared between threads; merged once by
/// Session::finish().
class Observer {
 public:
  explicit Observer(const Config& cfg, ObsClock::time_point epoch)
      : cfg_(cfg), epoch_(epoch) {
    if (cfg_.counters) perf_ = std::make_unique<PerfGroup>();
    const bool every_call = cfg_.timeline || cfg_.counters;
    for (std::size_t p = 0; p < kPhaseCount; ++p)
      sample_mask_[p] = every_call || !sampled_phase(static_cast<Phase>(p))
                            ? 0
                            : kPhaseSamplePeriod - 1;
  }

  void begin_trial(std::uint64_t ordinal) noexcept {
    trial_ = ordinal;
    trace_this_trial_ =
        cfg_.trace && (cfg_.trace_sample <= 1 || ordinal % cfg_.trace_sample == 0);
    if (cfg_.timeline) trial_t0_ = ObsClock::now();
  }
  void end_trial() noexcept {
    trace_this_trial_ = false;
    if (cfg_.timeline) push_span(SpanKind::kTrial, trial_t0_, ObsClock::now(), trial_);
  }

  [[nodiscard]] bool counting() const noexcept { return cfg_.enabled(); }
  [[nodiscard]] bool profiling() const noexcept { return cfg_.profile; }
  [[nodiscard]] bool tracing() const noexcept { return trace_this_trial_; }
  [[nodiscard]] bool timeline_on() const noexcept { return cfg_.timeline; }
  [[nodiscard]] bool counters_on() const noexcept { return cfg_.counters; }
  [[nodiscard]] std::uint64_t trial() const noexcept { return trial_; }

  MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Counts one call of `p` and says whether to time it: every call of a
  /// coarse phase or under a timeline/counters session, otherwise the
  /// call ordinals 0, 64, 128, ... (kPhaseSamplePeriod).
  [[nodiscard]] bool phase_call(Phase p) noexcept {
    const auto i = static_cast<std::size_t>(p);
    return (phases_[i].calls++ & sample_mask_[i]) == 0;
  }
  /// Wall time of one call that phase_call() chose to time.
  void phase_time(Phase p, std::uint64_t ns) noexcept {
    const auto i = static_cast<std::size_t>(p);
    phases_[i].ns += ns;
    ++timed_calls_[i];
  }

  /// Counter values before a phase body runs (zeros when the group is
  /// unavailable — the matching perf_add still counts the read).
  void perf_read(PerfValues& out) noexcept {
    if (perf_ != nullptr && perf_->available()) {
      perf_->read(out);
    } else {
      out.fill(0);
    }
  }

  /// Accumulates the counter delta since `before` onto `p`.  The read
  /// count increments unconditionally so it stays deterministic across
  /// hosts with and without counter access.
  void perf_add(Phase p, const PerfValues& before) noexcept {
    PerfPhase& s = perf_phases_[static_cast<std::size_t>(p)];
    ++s.reads;
    if (perf_ == nullptr || !perf_->available()) return;
    PerfValues now{};
    perf_->read(now);
    for (std::size_t i = 0; i < kPerfCounterCount; ++i)
      s.values[i] += now[i] - before[i];
  }

  void span_phase(Phase p, ObsClock::time_point t0, ObsClock::time_point t1) {
    push_span(SpanKind::kPhase, t0, t1, trial_, p);
  }
  void span_cell(std::uint64_t cell, ObsClock::time_point t0,
                 ObsClock::time_point t1) {
    push_span(SpanKind::kCell, t0, t1, cell);
  }
  void worker_begin(unsigned worker) noexcept {
    if (cfg_.timeline) {
      worker_ = worker;
      worker_t0_ = ObsClock::now();
    }
  }
  void worker_end(unsigned worker) {
    if (cfg_.timeline && worker == worker_)
      push_span(SpanKind::kWorker, worker_t0_, ObsClock::now(), worker);
  }
  /// Zero-width marker (adapt decision, replan, ...) on this lane.
  void instant(std::string_view name) {
    if (!cfg_.timeline) return;
    const ObsClock::time_point now = ObsClock::now();
    TimelineSpan s;
    s.kind = SpanKind::kInstant;
    s.t0_ns = since_epoch(now);
    s.t1_ns = s.t0_ns;
    s.arg = trial_;
    s.label.assign(name);
    spans_.push(std::move(s));
  }

  void emit(TraceEvent ev) {
    ev.trial = trial_;
    events_.push_back(ev);
  }

 private:
  friend class Session;

  [[nodiscard]] std::uint64_t since_epoch(ObsClock::time_point t) const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
  }

  void push_span(SpanKind kind, ObsClock::time_point t0, ObsClock::time_point t1,
                 std::uint64_t arg, Phase phase = Phase::kEncode) {
    TimelineSpan s;
    s.kind = kind;
    s.phase = phase;
    s.t0_ns = since_epoch(t0);
    s.t1_ns = since_epoch(t1);
    s.arg = arg;
    spans_.push(std::move(s));
  }

  Config cfg_;
  ObsClock::time_point epoch_;
  MetricsRegistry metrics_;
  std::array<PhaseStats, kPhaseCount> phases_{};
  std::array<std::uint64_t, kPhaseCount> timed_calls_{};
  std::array<std::uint64_t, kPhaseCount> sample_mask_{};  ///< 0 = every call
  std::array<PerfPhase, kPhaseCount> perf_phases_{};
  std::unique_ptr<PerfGroup> perf_;  ///< only when cfg_.counters
  SpanRing spans_;
  std::vector<TraceEvent> events_;
  std::uint64_t trial_ = 0;
  ObsClock::time_point trial_t0_{};
  ObsClock::time_point worker_t0_{};
  unsigned worker_ = 0;
  bool trace_this_trial_ = false;
};

/// Merged observations for one armed session.
struct Report {
  Config config;
  std::array<PhaseStats, kPhaseCount> phases{};
  MetricsSnapshot metrics;
  std::vector<TraceEvent> events;  ///< sorted by (trial, emission order)

  // Hot-path collectors.  Span timestamps and counter values are
  // wall/machine facts and never enter deterministic_signature();
  // PerfPhase::reads does (it equals the phase call count).
  std::vector<TimelineSpan> spans;    ///< per-lane order preserved
  std::uint32_t lanes = 0;            ///< observer threads that attached
  std::uint64_t spans_dropped = 0;    ///< ring overwrites across lanes
  PerfReport perf;

  /// Text digest of everything deterministic (metric values, phase call
  /// counts, counter read counts, events) — equal across --threads
  /// values for the same spec.  Nanosecond timings, span timestamps and
  /// hardware counter values are deliberately excluded.
  [[nodiscard]] std::string deterministic_signature() const;
};

/// Arms observation globally for its lifetime (RAII).  At most one
/// session is armed at a time; a nested Session with an enabled config
/// stays dormant rather than stealing the outer session's observers.
class Session {
 public:
  explicit Session(const Config& cfg);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] ObsClock::time_point epoch() const noexcept { return epoch_; }

  /// Register (or reuse) this thread's observer.  Called via obs::current().
  Observer& thread_observer();

  /// Disarm and merge all per-thread sinks.  Call after the observed work
  /// has joined its worker threads.
  [[nodiscard]] Report finish();

 private:
  void disarm() noexcept;

  Config cfg_;
  bool active_ = false;
  std::uint64_t generation_ = 0;
  ObsClock::time_point epoch_{};
  std::mutex mu_;
  std::vector<std::unique_ptr<Observer>> observers_;
  // Timeline worker lanes: while armed with cfg_.timeline, a chaining
  // ParallelObserver is installed that records worker begin/end spans
  // and forwards to whatever observer (e.g. a progress meter) was
  // installed before.
  std::unique_ptr<ParallelObserver> worker_spans_;
  ParallelObserver* prev_parallel_ = nullptr;
};

namespace detail {
extern std::atomic<Session*> g_session;
/// Slow path of obs::current(): bind the calling thread to `s`.
[[nodiscard]] Observer* attach(Session* s) noexcept;
}  // namespace detail

/// The calling thread's observer, or nullptr when no session is armed.
/// The fast path (no session) is one relaxed load + branch.
[[nodiscard]] inline Observer* current() noexcept {
  Session* s = detail::g_session.load(std::memory_order_acquire);
  if (s == nullptr) return nullptr;
  return detail::attach(s);
}

/// Brackets one trial so observations carry its scenario-global ordinal.
class TrialScope {
 public:
  explicit TrialScope(std::uint64_t ordinal) noexcept : o_(current()) {
    if (o_ != nullptr) o_->begin_trial(ordinal);
  }
  ~TrialScope() {
    if (o_ != nullptr) o_->end_trial();
  }
  TrialScope(const TrialScope&) = delete;
  TrialScope& operator=(const TrialScope&) = delete;

 private:
  Observer* o_;
};

/// Times one phase over a lexical scope (for call sites that cannot wrap
/// a lambda, e.g. inside a decoder member function).
class PhaseScope {
 public:
  // Not noexcept: the watchdog poll below raises TrialTimeout past an
  // armed per-trial deadline.  Phase boundaries are the poll sites — they
  // are frequent enough to bound overrun and already on every engine's
  // instrumented path (dormant cost: one relaxed load).
  PhaseScope(Observer* o, Phase p) : phase_(p) {
    watchdog::poll();
    if (o != nullptr && o->profiling() && o->phase_call(p)) {
      o_ = o;
      if (o_->counters_on()) o_->perf_read(before_);
      t0_ = ObsClock::now();
    }
  }
  ~PhaseScope() {
    if (o_ != nullptr) {
      const ObsClock::time_point t1 = ObsClock::now();
      o_->phase_time(phase_, static_cast<std::uint64_t>(
                                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     t1 - t0_)
                                     .count()));
      if (o_->counters_on()) o_->perf_add(phase_, before_);
      if (o_->timeline_on()) o_->span_phase(phase_, t0_, t1);
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Observer* o_ = nullptr;  ///< set only for a call that is timed
  Phase phase_;
  ObsClock::time_point t0_{};
  PerfValues before_{};
};

/// Emits one sweep-cell timeline span over a lexical scope.  Dormant
/// (pointer test only) unless the armed session collects a timeline.
class CellSpanScope {
 public:
  explicit CellSpanScope(std::uint64_t cell) noexcept : cell_(cell) {
    Observer* o = current();
    if (o != nullptr && o->timeline_on()) {
      o_ = o;
      t0_ = ObsClock::now();
    }
  }
  ~CellSpanScope() {
    if (o_ != nullptr) o_->span_cell(cell_, t0_, ObsClock::now());
  }
  CellSpanScope(const CellSpanScope&) = delete;
  CellSpanScope& operator=(const CellSpanScope&) = delete;

 private:
  Observer* o_ = nullptr;
  std::uint64_t cell_;
  ObsClock::time_point t0_{};
};

/// Per-trial hook: resolves obs::current() once and caches the enabled
/// flags, so a dormant hook in a packet loop costs one register test.
/// Construct AFTER the trial's TrialScope (tracing is per-trial).
class Hook {
 public:
  Hook() noexcept : o_(current()) {
    if (o_ != nullptr) {
      counting_ = o_->counting();
      profiling_ = o_->profiling();
      tracing_ = o_->tracing();
      timeline_ = o_->timeline_on();
      counters_ = o_->counters_on();
    }
  }

  [[nodiscard]] bool engaged() const noexcept {
    return counting_ || profiling_ || tracing_;
  }
  [[nodiscard]] bool counting() const noexcept { return counting_; }
  [[nodiscard]] bool profiling() const noexcept { return profiling_; }
  [[nodiscard]] bool tracing() const noexcept { return tracing_; }
  [[nodiscard]] Observer* observer() const noexcept { return o_; }

  void count(std::string_view name, std::uint64_t n = 1) const {
    if (counting_) o_->metrics().counter(name).add(n);
  }
  void gauge_max(std::string_view name, std::uint64_t v) const {
    if (counting_) o_->metrics().gauge(name).update_max(v);
  }
  void observe(std::string_view name, std::span<const std::uint64_t> bounds,
               std::uint64_t v) const {
    if (counting_) o_->metrics().histogram(name, bounds).observe(v);
  }

  /// Zero-width timeline marker; no-op unless a timeline is armed.
  void instant(std::string_view name) const {
    if (timeline_) o_->instant(name);
  }

  /// Run f() and, when profiling, count the call to `phase` and attribute
  /// its wall time (and, when armed, its hardware counter delta and a
  /// timeline span) — on every call, or on one in kPhaseSamplePeriod for
  /// the per-packet phases under a plain profile (Observer::phase_call).
  /// Transparent to f's return value (including references).
  template <typename F>
  decltype(auto) timed(Phase phase, F&& f) const {
    using R = decltype(std::forward<F>(f)());
    // Watchdog poll site: before the profiling early-out, so the
    // per-trial deadline is enforced even on unprofiled runs.
    watchdog::poll();
    if (!profiling_ || !o_->phase_call(phase)) return std::forward<F>(f)();
    PerfValues before{};
    if (counters_) o_->perf_read(before);
    const ObsClock::time_point t0 = ObsClock::now();
    if constexpr (std::is_void_v<R>) {
      std::forward<F>(f)();
      finish_phase(phase, t0, before);
    } else if constexpr (std::is_reference_v<R>) {
      R r = std::forward<F>(f)();
      finish_phase(phase, t0, before);
      return static_cast<R>(r);
    } else {
      R r = std::forward<F>(f)();
      finish_phase(phase, t0, before);
      return r;
    }
  }

  // Trace emitters: no-ops unless this trial is sampled.
  void sent(double slot, std::uint64_t id, bool repair, std::int32_t path = -1,
            std::int64_t obj = -1) const {
    emit(EventKind::kSent, slot, id, repair, path, obj, false, 0.0);
  }
  void lost(double slot, std::uint64_t id, bool repair, std::int32_t path = -1,
            std::int64_t obj = -1) const {
    emit(EventKind::kLost, slot, id, repair, path, obj, false, 0.0);
  }
  void received(double slot, std::uint64_t id, bool repair, std::int32_t path = -1,
                std::int64_t obj = -1) const {
    emit(EventKind::kReceived, slot, id, repair, path, obj, false, 0.0);
  }
  void decoded(double slot, std::uint64_t id) const {
    emit(EventKind::kDecoded, slot, id, false, -1, -1, false, 0.0);
  }
  void released(double slot, std::uint64_t id, bool ok, double delay) const {
    emit(EventKind::kReleased, slot, id, false, -1, -1, ok, delay);
  }

 private:
  void finish_phase(Phase phase, ObsClock::time_point t0,
                    const PerfValues& before) const {
    const ObsClock::time_point t1 = ObsClock::now();
    o_->phase_time(phase, static_cast<std::uint64_t>(
                              std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  t1 - t0)
                                  .count()));
    if (counters_) o_->perf_add(phase, before);
    if (timeline_) o_->span_phase(phase, t0, t1);
  }

  void emit(EventKind kind, double slot, std::uint64_t id, bool repair,
            std::int32_t path, std::int64_t obj, bool ok, double delay) const {
    if (!tracing_) return;
    TraceEvent ev;
    ev.kind = kind;
    ev.slot = slot;
    ev.id = id;
    ev.repair = repair;
    ev.path = path;
    ev.obj = obj;
    ev.ok = ok;
    ev.delay = delay;
    o_->emit(ev);
  }

  Observer* o_;
  bool counting_ = false;
  bool profiling_ = false;
  bool tracing_ = false;
  bool timeline_ = false;
  bool counters_ = false;
};

/// Full observability document embedded in --json output and printed by
/// the CLI text reports: {"manifest":..., "profile":[...],
/// "metrics":{...}, "trace":{"events":N}, "timeline":{...}, "perf":...}.
[[nodiscard]] api::Json observability_json(const RunManifest& manifest,
                                           const Report& report);

/// PerfReport as JSON: {"available":..., "status":..., "phases":{...}}.
[[nodiscard]] api::Json perf_json(const PerfReport& perf);

}  // namespace fecsched::obs
