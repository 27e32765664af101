#include "obs/obs.h"

#include <algorithm>
#include <cmath>

#include "util/parallel.h"

namespace fecsched::obs {

namespace detail {

std::atomic<Session*> g_session{nullptr};

namespace {
// Generation stamps invalidate thread-local observer pointers left behind
// by earlier sessions (util/parallel.h spawns fresh std::threads per call,
// but the calling thread — and any reused thread — survives sessions).
std::atomic<std::uint64_t> g_generation{0};
thread_local std::uint64_t t_generation = 0;
thread_local Observer* t_observer = nullptr;
}  // namespace

Observer* attach(Session* s) noexcept {
  const std::uint64_t gen = s->generation();
  if (t_generation == gen) return t_observer;
  t_observer = &s->thread_observer();
  t_generation = gen;
  return t_observer;
}

std::uint64_t next_generation() noexcept {
  return g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace detail

namespace {

// Installed process-wide while a timeline session is armed: attaches an
// observer on every parallel_for_index worker (so lane count equals the
// resolved worker count even for workers that drain zero items), records
// worker begin/end spans, and forwards everything to whatever observer
// (e.g. a progress meter) was installed before.
class WorkerSpanObserver final : public ParallelObserver {
 public:
  explicit WorkerSpanObserver(ParallelObserver* next) noexcept : next_(next) {}

  void on_batch(std::size_t count) override {
    if (next_ != nullptr) next_->on_batch(count);
  }
  void on_item_done() override {
    if (next_ != nullptr) next_->on_item_done();
  }
  void on_worker_start(unsigned worker) override {
    if (Observer* o = current(); o != nullptr) o->worker_begin(worker);
    if (next_ != nullptr) next_->on_worker_start(worker);
  }
  void on_worker_finish(unsigned worker) override {
    if (Observer* o = current(); o != nullptr) o->worker_end(worker);
    if (next_ != nullptr) next_->on_worker_finish(worker);
  }

 private:
  ParallelObserver* next_;
};

}  // namespace

Session::Session(const Config& cfg) : cfg_(cfg) {
  if (!cfg_.enabled()) return;
  generation_ = detail::next_generation();
  Session* expected = nullptr;
  if (detail::g_session.compare_exchange_strong(expected, this,
                                                std::memory_order_acq_rel)) {
    active_ = true;
    epoch_ = ObsClock::now();
    if (cfg_.timeline) {
      worker_spans_ = std::make_unique<WorkerSpanObserver>(parallel_observer());
      prev_parallel_ = set_parallel_observer(worker_spans_.get());
    }
  }
}

void Session::disarm() noexcept {
  if (!active_) return;
  if (worker_spans_ != nullptr) {
    set_parallel_observer(prev_parallel_);
    prev_parallel_ = nullptr;
  }
  detail::g_session.store(nullptr, std::memory_order_release);
  active_ = false;
}

Session::~Session() { disarm(); }

Observer& Session::thread_observer() {
  std::lock_guard<std::mutex> lock(mu_);
  observers_.push_back(std::make_unique<Observer>(cfg_, epoch_));
  return *observers_.back();
}

Report Session::finish() {
  disarm();
  Report report;
  report.config = cfg_;
  MetricsRegistry merged;
  std::lock_guard<std::mutex> lock(mu_);
  report.lanes = static_cast<std::uint32_t>(observers_.size());
  for (std::size_t lane = 0; lane < observers_.size(); ++lane) {
    Observer& o = *observers_[lane];
    merged.merge_from(o.metrics_);
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const PhaseStats& s = o.phases_[p];
      const std::uint64_t timed = o.timed_calls_[p];
      report.phases[p].calls += s.calls;
      // Sampled phases: scale this lane's timed calls up to all its calls.
      report.phases[p].ns +=
          timed == 0 || timed == s.calls
              ? s.ns
              : static_cast<std::uint64_t>(std::llround(
                    static_cast<double>(s.ns) * static_cast<double>(s.calls) /
                    static_cast<double>(timed)));
    }
    report.events.insert(report.events.end(), o.events_.begin(), o.events_.end());
    if (cfg_.timeline) {
      report.spans_dropped += o.spans_.dropped();
      std::vector<TimelineSpan> spans = o.spans_.drain();
      for (TimelineSpan& s : spans) {
        s.lane = static_cast<std::uint32_t>(lane);
        report.spans.push_back(std::move(s));
      }
    }
    if (cfg_.counters) {
      if (o.perf_ != nullptr) {
        if (o.perf_->available()) report.perf.available = true;
        if (report.perf.status.empty()) report.perf.status = o.perf_->status();
      }
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        report.perf.phases[p].reads += o.perf_phases_[p].reads;
        for (std::size_t i = 0; i < kPerfCounterCount; ++i)
          report.perf.phases[p].values[i] += o.perf_phases_[p].values[i];
      }
    }
  }
  if (cfg_.counters && report.perf.status.empty())
    report.perf.status = "no observations recorded";
  report.metrics = merged.snapshot();
  // Each trial's events live on one observer in emission order; a stable
  // sort by trial ordinal therefore restores the serial-run order.
  std::stable_sort(report.events.begin(), report.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.trial < b.trial;
                   });
  return report;
}

std::string Report::deterministic_signature() const {
  std::string sig;
  sig.reserve(256 + events.size() * 16);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    sig += to_string(static_cast<Phase>(p));
    sig += '=';
    sig += std::to_string(phases[p].calls);
    sig += ';';
  }
  if (config.counters) {
    // Read counts are deterministic (one per timed phase call); counter
    // values and availability are machine facts and stay out.
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      sig += "pr:";
      sig += to_string(static_cast<Phase>(p));
      sig += '=';
      sig += std::to_string(perf.phases[p].reads);
      sig += ';';
    }
  }
  for (const auto& [name, v] : metrics.counters)
    sig += "c:" + name + '=' + std::to_string(v) + ';';
  for (const auto& [name, v] : metrics.gauges)
    sig += "g:" + name + '=' + std::to_string(v) + ';';
  for (const MetricsSnapshot::Hist& h : metrics.histograms) {
    sig += "h:" + h.name + '=';
    for (std::uint64_t c : h.counts) sig += std::to_string(c) + ',';
    sig += ';';
  }
  sig += "events:";
  for (const TraceEvent& ev : events) sig += event_to_json(ev).dump(0) + '\n';
  return sig;
}

api::Json perf_json(const PerfReport& perf) {
  api::Json j = api::Json::object();
  j.set("available", api::Json(perf.available));
  j.set("status", api::Json(perf.status));
  api::Json phases = api::Json::object();
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const PerfPhase& s = perf.phases[p];
    if (s.reads == 0) continue;
    api::Json row = api::Json::object();
    row.set("reads", api::Json::integer(s.reads));
    for (std::size_t i = 0; i < kPerfCounterCount; ++i)
      row.set(std::string(to_string(static_cast<PerfCounter>(i))),
              api::Json::integer(s.values[i]));
    const std::uint64_t cycles =
        s.values[static_cast<std::size_t>(PerfCounter::kCycles)];
    const std::uint64_t instructions =
        s.values[static_cast<std::size_t>(PerfCounter::kInstructions)];
    if (cycles > 0)
      row.set("ipc", api::Json(static_cast<double>(instructions) /
                               static_cast<double>(cycles)));
    phases.set(std::string(to_string(static_cast<Phase>(p))), std::move(row));
  }
  j.set("phases", std::move(phases));
  return j;
}

api::Json observability_json(const RunManifest& manifest, const Report& report) {
  api::Json j = api::Json::object();
  j.set("manifest", manifest_to_json(manifest));
  if (report.config.profile) {
    api::Json profile = api::Json::array();
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      api::Json row = api::Json::object();
      row.set("phase", api::Json(std::string(to_string(static_cast<Phase>(p)))));
      row.set("calls", api::Json::integer(report.phases[p].calls));
      row.set("ns", api::Json::integer(report.phases[p].ns));
      profile.push_back(std::move(row));
    }
    j.set("profile", std::move(profile));
  }
  api::Json metrics = api::Json::object();
  api::Json counters = api::Json::object();
  for (const auto& [name, v] : report.metrics.counters)
    counters.set(name, api::Json::integer(v));
  api::Json gauges = api::Json::object();
  for (const auto& [name, v] : report.metrics.gauges)
    gauges.set(name, api::Json::integer(v));
  api::Json histograms = api::Json::object();
  for (const MetricsSnapshot::Hist& h : report.metrics.histograms) {
    api::Json hist = api::Json::object();
    api::Json bounds = api::Json::array();
    for (std::uint64_t b : h.bounds) bounds.push_back(api::Json::integer(b));
    api::Json counts = api::Json::array();
    for (std::uint64_t c : h.counts) counts.push_back(api::Json::integer(c));
    hist.set("bounds", std::move(bounds));
    hist.set("counts", std::move(counts));
    histograms.set(h.name, std::move(hist));
  }
  metrics.set("counters", std::move(counters));
  metrics.set("gauges", std::move(gauges));
  metrics.set("histograms", std::move(histograms));
  j.set("metrics", std::move(metrics));
  if (report.config.trace) {
    api::Json trace = api::Json::object();
    trace.set("events", api::Json::integer(report.events.size()));
    trace.set("sample", api::Json::integer(report.config.trace_sample));
    j.set("trace", std::move(trace));
  }
  if (report.config.timeline) {
    api::Json timeline = api::Json::object();
    timeline.set("lanes", api::Json::integer(report.lanes));
    timeline.set("spans", api::Json::integer(report.spans.size()));
    timeline.set("dropped", api::Json::integer(report.spans_dropped));
    j.set("timeline", std::move(timeline));
  }
  if (report.config.counters) j.set("perf", perf_json(report.perf));
  return j;
}

}  // namespace fecsched::obs
