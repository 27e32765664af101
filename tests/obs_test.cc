// Tests for the observability layer (src/obs/) and its Scenario-API
// integration: deterministic metrics, thread-count-independent reports,
// observation-never-changes-results, trace JSONL round trips, and the
// trace-vs-engine residual cross-check tools/trace_stats automates.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/json.h"
#include "api/registry.h"
#include "api/scenario.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace fecsched {
namespace {

using api::ScenarioResult;
using api::ScenarioSpec;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "obs_test_" + name;
}

// ------------------------------------------------------------- metrics

TEST(ObsMetrics, CounterGaugeHistogramSemantics) {
  obs::MetricsRegistry reg;
  reg.counter("a").add();
  reg.counter("a").add(41);
  reg.gauge("g").update_max(7);
  reg.gauge("g").update_max(3);  // max-merge: lower value is ignored
  const std::uint64_t bounds[] = {1, 2, 4};
  reg.histogram("h", bounds).observe(0);
  reg.histogram("h", bounds).observe(2);
  reg.histogram("h", bounds).observe(100);  // overflow bucket

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "a");
  EXPECT_EQ(snap.counters[0].second, 42u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 7u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const std::vector<std::uint64_t> want_counts = {1, 1, 0, 1};
  EXPECT_EQ(snap.histograms[0].counts, want_counts);
}

TEST(ObsMetrics, MergeIsExactAndPartitionIndependent) {
  // Split the same updates across two registries; the merge must equal
  // a single registry that saw everything (the thread-merge guarantee).
  const std::uint64_t bounds[] = {10, 20};
  obs::MetricsRegistry whole, part_a, part_b;
  for (std::uint64_t v : {3u, 15u, 99u, 7u, 20u}) {
    whole.counter("n").add(v);
    whole.gauge("peak").update_max(v);
    whole.histogram("d", bounds).observe(v);
  }
  for (std::uint64_t v : {3u, 15u, 99u}) {
    part_a.counter("n").add(v);
    part_a.gauge("peak").update_max(v);
    part_a.histogram("d", bounds).observe(v);
  }
  for (std::uint64_t v : {7u, 20u}) {
    part_b.counter("n").add(v);
    part_b.gauge("peak").update_max(v);
    part_b.histogram("d", bounds).observe(v);
  }
  part_a.merge_from(part_b);

  const obs::MetricsSnapshot a = whole.snapshot();
  const obs::MetricsSnapshot b = part_a.snapshot();
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  EXPECT_EQ(a.histograms[0].counts, b.histograms[0].counts);
}

// ------------------------------------------------------------- session

TEST(ObsSession, DormantByDefault) {
  EXPECT_EQ(obs::current(), nullptr);
  const obs::Hook hook;
  EXPECT_FALSE(hook.engaged());
  // All emitters are no-ops on a dormant hook (must not crash).
  hook.count("x");
  hook.sent(0.0, 0, false);
  int calls = 0;
  EXPECT_EQ(hook.timed(obs::Phase::kDecode, [&] { return ++calls; }), 1);
}

TEST(ObsSession, CollectsAndDisarms) {
  {
    obs::Session session(obs::Config{.metrics = true, .profile = true});
    ASSERT_TRUE(session.active());
    {
      const obs::TrialScope scope(0);
      const obs::Hook hook;
      ASSERT_TRUE(hook.engaged());
      hook.count("unit.packets", 5);
      hook.timed(obs::Phase::kEncode, [] {});
    }
    const obs::Report report = session.finish();
    ASSERT_EQ(report.metrics.counters.size(), 1u);
    EXPECT_EQ(report.metrics.counters[0].first, "unit.packets");
    EXPECT_EQ(report.metrics.counters[0].second, 5u);
    EXPECT_EQ(report.phases[static_cast<std::size_t>(obs::Phase::kEncode)].calls,
              1u);
  }
  EXPECT_EQ(obs::current(), nullptr);  // finish() disarmed the global
}

// Busy-waits `us` microseconds: a phase body with a known floor.
void spin_us(int us) {
  const auto until = obs::ObsClock::now() + std::chrono::microseconds(us);
  while (obs::ObsClock::now() < until) {
  }
}

// Plain --profile times a per-packet phase on call ordinals 0, 64, 128,
// ... and scales its ns up to every call; coarse phases and timeline
// sessions time every call.  Each check is a lower bound, so host load
// cannot make it fail.
TEST(ObsSession, PlainProfileSamplesPerPacketPhasesAndScalesNs) {
  const auto decode = static_cast<std::size_t>(obs::Phase::kDecode);
  const auto encode = static_cast<std::size_t>(obs::Phase::kEncode);
  {
    obs::Session session(obs::Config{.metrics = true, .profile = true});
    {
      const obs::TrialScope scope(0);
      const obs::Hook hook;
      // 130 decode calls, three of them timed, and only those spin: the
      // scaled total stands for 130 spins, not 3.
      for (int i = 0; i < 130; ++i)
        hook.timed(obs::Phase::kDecode, [&] {
          if (i % 64 == 0) spin_us(200);
        });
      // Ordinal 1 of a coarse phase is timed like every other call.
      for (int i = 0; i < 5; ++i)
        hook.timed(obs::Phase::kEncode, [&] {
          if (i == 1) spin_us(200);
        });
    }
    const obs::Report report = session.finish();
    EXPECT_EQ(report.phases[decode].calls, 130u);
    EXPECT_GE(report.phases[decode].ns, 130u / 3 * 200'000u);
    EXPECT_EQ(report.phases[encode].calls, 5u);
    EXPECT_GE(report.phases[encode].ns, 200'000u);
  }
  {
    // A timeline session times every call: ordinal 1 is seen.
    obs::Session session(obs::Config{.profile = true, .timeline = true});
    {
      const obs::TrialScope scope(0);
      const obs::Hook hook;
      for (int i = 0; i < 3; ++i)
        hook.timed(obs::Phase::kDecode, [&] {
          if (i == 1) spin_us(200);
        });
    }
    const obs::Report report = session.finish();
    EXPECT_EQ(report.phases[decode].calls, 3u);
    EXPECT_GE(report.phases[decode].ns, 200'000u);
  }
}

TEST(ObsSession, TraceSamplingKeepsEveryNthTrial) {
  obs::Session session(obs::Config{.trace = true, .trace_sample = 2});
  for (std::uint64_t t = 0; t < 4; ++t) {
    const obs::TrialScope scope(t);
    const obs::Hook hook;
    EXPECT_EQ(hook.tracing(), t % 2 == 0);
    hook.sent(static_cast<double>(t), t, false);
  }
  const obs::Report report = session.finish();
  ASSERT_EQ(report.events.size(), 2u);
  EXPECT_EQ(report.events[0].trial, 0u);
  EXPECT_EQ(report.events[1].trial, 2u);
}

// ------------------------------------------- scenario-level guarantees

ScenarioSpec small_grid_spec() {
  ScenarioSpec spec;
  spec.engine = "grid";
  spec.code.name = "rse";
  spec.code.ratio = 1.5;
  spec.code.k = 200;
  spec.tx.model = "tx2";
  spec.run.trials = 4;
  spec.run.seed = 0x5eedf00dULL;
  spec.sweep.p_values = {0.05, 0.4};
  spec.sweep.q_values = {0.25};
  return spec;
}

ScenarioSpec small_stream_spec() {
  ScenarioSpec spec;
  spec.engine = "stream";
  spec.code.name = "sliding-window";
  spec.channel.p = 0.05;
  spec.channel.q = 0.25;
  spec.run.sources = 300;
  spec.run.trials = 4;
  spec.run.seed = 0x57e4a9edULL;
  return spec;
}

void expect_same_cells(const GridResult& a, const GridResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].trials, b.cells[c].trials);
    EXPECT_EQ(a.cells[c].failures, b.cells[c].failures);
    EXPECT_EQ(a.cells[c].peak_memory_symbols, b.cells[c].peak_memory_symbols);
    EXPECT_EQ(a.cells[c].inefficiency.mean(), b.cells[c].inefficiency.mean());
    EXPECT_EQ(a.cells[c].inefficiency.variance(),
              b.cells[c].inefficiency.variance());
  }
}

TEST(ObsScenario, ObservationNeverChangesGridResult) {
  const ScenarioSpec off = small_grid_spec();
  ScenarioSpec on = off;
  on.obs.metrics = true;
  on.obs.profile = true;

  const ScenarioResult r_off = api::run_scenario(off);
  const ScenarioResult r_on = api::run_scenario(on);
  ASSERT_TRUE(r_off.grid && r_on.grid);
  expect_same_cells(*r_off.grid, *r_on.grid);
  EXPECT_FALSE(r_off.obs.has_value());
  ASSERT_TRUE(r_on.obs.has_value());
  EXPECT_FALSE(r_on.obs->metrics.empty());
}

TEST(ObsScenario, ObservationNeverChangesStreamResult) {
  const ScenarioSpec off = small_stream_spec();
  ScenarioSpec on = off;
  on.obs.metrics = true;
  on.obs.trace = tmp_path("stream_identity.jsonl");

  const ScenarioResult r_off = api::run_scenario(off);
  const ScenarioResult r_on = api::run_scenario(on);
  ASSERT_EQ(r_off.stream.size(), 1u);
  ASSERT_EQ(r_on.stream.size(), 1u);
  EXPECT_EQ(r_off.stream[0].delays, r_on.stream[0].delays);
  EXPECT_EQ(r_off.stream[0].delivered, r_on.stream[0].delivered);
  EXPECT_EQ(r_off.stream[0].lost, r_on.stream[0].lost);
  std::remove(on.obs.trace.c_str());
}

TEST(ObsScenario, ReportIsThreadCountIndependent) {
  // Same spec, 1 vs 4 workers: every deterministic part of the merged
  // report (metric values, phase call counts, trace events) must match.
  for (const char* engine : {"grid", "stream"}) {
    ScenarioSpec spec = std::string(engine) == "grid" ? small_grid_spec()
                                                      : small_stream_spec();
    spec.obs.metrics = true;
    spec.obs.profile = true;
    spec.obs.trace = tmp_path(std::string(engine) + "_t1.jsonl");
    spec.run.threads = 1;
    const ScenarioResult one = api::run_scenario(spec);
    spec.obs.trace = tmp_path(std::string(engine) + "_t4.jsonl");
    spec.run.threads = 4;
    const ScenarioResult four = api::run_scenario(spec);
    ASSERT_TRUE(one.obs && four.obs) << engine;
    EXPECT_EQ(one.obs->deterministic_signature(),
              four.obs->deterministic_signature())
        << engine;
    EXPECT_EQ(one.obs->events, four.obs->events) << engine;
    std::remove(tmp_path(std::string(engine) + "_t1.jsonl").c_str());
    std::remove(tmp_path(std::string(engine) + "_t4.jsonl").c_str());
  }
}

TEST(ObsScenario, ManifestCarriesRunProvenance) {
  const ScenarioResult result = api::run_scenario(small_grid_spec());
  const obs::RunManifest& m = result.manifest;  // filled even with obs off
  EXPECT_EQ(m.engine, "grid");
  EXPECT_EQ(m.version, std::string(api::kVersion));
  EXPECT_EQ(m.fingerprint,
            obs::spec_fingerprint(small_grid_spec().to_json()));
  EXPECT_EQ(m.fingerprint.rfind("fnv1a:", 0), 0u);
  EXPECT_FALSE(m.gf_backend.empty());
  EXPECT_GE(m.wall_seconds, 0.0);
  EXPECT_GT(m.hardware_threads, 0u);
}

// --------------------------------------------------------------- trace

TEST(ObsTrace, EventJsonRoundTrip) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent ev;
  ev.kind = obs::EventKind::kSent;
  ev.trial = 3;
  ev.slot = 12.5;
  ev.id = 41;
  ev.repair = true;
  ev.path = 1;
  ev.obj = 7;
  events.push_back(ev);
  ev = obs::TraceEvent{};
  ev.kind = obs::EventKind::kDecoded;
  ev.slot = 9.0;
  ev.id = 8;
  events.push_back(ev);
  ev = obs::TraceEvent{};
  ev.kind = obs::EventKind::kReleased;
  ev.trial = 1;
  ev.slot = 20.0;
  ev.id = 5;
  ev.ok = true;
  ev.delay = 4.5;
  events.push_back(ev);

  for (const obs::TraceEvent& e : events) {
    const api::Json j = obs::event_to_json(e);
    obs::validate_trace_line(j);
    EXPECT_EQ(obs::event_from_json(j), e);
    // The JSONL text form parses back to the same object too.
    EXPECT_EQ(obs::event_from_json(api::Json::parse(j.dump(0))), e);
  }
}

TEST(ObsTrace, EventJsonRejectsSchemaViolations) {
  api::Json j = obs::event_to_json(obs::TraceEvent{});
  j.set("bogus", api::Json::integer(1));
  EXPECT_THROW(obs::event_from_json(j), std::invalid_argument);
  api::Json unknown = api::Json::object();
  unknown.set("ev", api::Json("teleported"));
  EXPECT_THROW(obs::event_from_json(unknown), std::invalid_argument);
}

TEST(ObsTrace, FileRoundTrip) {
  obs::RunManifest m;
  m.fingerprint = "fnv1a:0000000000000000";
  m.version = "0.0.0";
  m.gf_backend = "scalar";
  m.engine = "stream";
  m.threads = 1;
  m.hardware_threads = 8;

  std::vector<obs::TraceEvent> events;
  for (std::uint64_t t = 0; t < 3; ++t) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kReleased;
    ev.trial = t;
    ev.slot = static_cast<double>(10 * t);
    ev.id = t;
    ev.ok = t != 1;
    ev.delay = ev.ok ? 2.0 : 0.0;
    events.push_back(ev);
  }
  obs::MetricsRegistry reg;
  reg.counter("stream.sources").add(3);

  const std::string path = tmp_path("roundtrip.jsonl");
  obs::write_trace_file(path, obs::manifest_to_trace_line(m, 1), events,
                        reg.snapshot());
  const obs::TraceFile file = obs::read_trace_file(path);
  EXPECT_EQ(file.events, events);
  EXPECT_EQ(file.manifest.find("engine")->as_string("engine"), "stream");
  EXPECT_EQ(file.summary.find("counters")
                ->find("stream.sources")
                ->as_uint64("sources"),
            3u);
  std::remove(path.c_str());
}

TEST(ObsTrace, ResidualMatchesStreamEngine) {
  // The cross-check tools/trace_stats automates: residual-loss run
  // lengths recomputed from `released` events alone must equal the
  // stream engine's own residual accounting on a bursty Gilbert point.
  ScenarioSpec spec = small_stream_spec();
  spec.obs.trace = tmp_path("residual.jsonl");
  const ScenarioResult result = api::run_scenario(spec);
  ASSERT_EQ(result.stream.size(), 1u);
  const api::StreamOutcome& engine = result.stream[0];
  ASSERT_GT(engine.lost, 0u) << "point too mild to exercise residual runs";

  const obs::TraceFile file = obs::read_trace_file(spec.obs.trace);
  const obs::TraceResidual trace = obs::residual_from_trace(file.events);
  EXPECT_EQ(trace.lost, engine.lost);
  EXPECT_EQ(trace.runs, engine.residual_runs);
  EXPECT_EQ(trace.max_run, engine.residual_max_run);
  EXPECT_EQ(trace.released, engine.delivered + engine.lost);
  EXPECT_EQ(trace.trials, spec.run.trials);
  std::remove(spec.obs.trace.c_str());
}

// ------------------------------------------------------------ spec JSON

TEST(ObsSpecJson, DefaultSpecOmitsObsSection) {
  // Pre-obs spec documents must stay byte-identical: the obs section
  // only appears when something is enabled, and round-trips exactly.
  const ScenarioSpec def;
  EXPECT_EQ(def.to_json().find("\"obs\""), std::string::npos);

  ScenarioSpec spec;
  spec.obs.profile = true;
  spec.obs.trace = "out.jsonl";
  spec.obs.trace_sample = 8;
  const std::string once = spec.to_json();
  EXPECT_NE(once.find("\"obs\""), std::string::npos);
  const ScenarioSpec back = ScenarioSpec::from_json(once);
  EXPECT_EQ(back.obs, spec.obs);
  EXPECT_EQ(back.to_json(), once);
}

TEST(ObsSpecJson, UnknownObsKeyRejected) {
  EXPECT_THROW(ScenarioSpec::from_json(R"({"obs": {"verbose": true}})"),
               std::invalid_argument);
}

TEST(ObsSpecJson, TraceSampleZeroRejected) {
  ScenarioSpec spec = small_grid_spec();
  spec.obs.trace = "out.jsonl";
  spec.obs.trace_sample = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// --------------------------------------------------- JSON parse errors

TEST(ObsJson, ParseErrorCarriesOffsetAndLineCol) {
  const std::string text = "{\n  \"a\": 1,\n  \"b\": oops\n}";
  try {
    (void)api::Json::parse(text);
    FAIL() << "expected JsonParseError";
  } catch (const api::JsonParseError& e) {
    const auto [line, col] = api::json_line_col(text, e.offset());
    EXPECT_EQ(line, 3u);
    EXPECT_GT(col, 1u);
  }
}

}  // namespace
}  // namespace fecsched
