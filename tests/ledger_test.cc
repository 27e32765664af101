// Tests for the cross-run observability layer: the JSONL run ledger
// (obs/ledger.h), the regression sentinel (obs/regress.h), the live
// progress meter (obs/progress.h) and the profile/metrics exporters
// (obs/export.h).  The load-bearing properties:
//
//  * shard-order independence — N ledger shards merged in any order
//    compact to byte-identical output;
//  * the drift check is thresholdless — deterministic metric values and
//    phase call counts under one fingerprint must be bit-identical;
//  * the timing check compares only within (kind, label, gf, threads,
//    hostname) subgroups, so a scalar-backend rerun never trips it;
//  * the progress meter's counters are exact, and stdout is untouched.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/json.h"
#include "api/registry.h"
#include "api/scenario.h"
#include "obs/export.h"
#include "obs/ledger.h"
#include "obs/manifest.h"
#include "obs/progress.h"
#include "obs/regress.h"
#include "util/parallel.h"

namespace fecsched {
namespace {

using api::Json;
using api::ScenarioResult;
using api::ScenarioSpec;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "ledger_test_" + name;
}

obs::RunManifest sample_manifest() {
  obs::RunManifest m;
  m.fingerprint = "fnv1a:00112233aabbccdd";
  m.version = std::string(api::kVersion);
  m.gf_backend = "avx2";
  m.engine = "stream";
  m.threads = 4;
  m.hardware_threads = 8;
  m.wall_seconds = 1.5;
  m.started_at = "2026-08-07T10:00:00Z";
  m.hostname = "hostA";
  return m;
}

/// A fully-populated record: every optional section present.
obs::LedgerRecord sample_record() {
  obs::LedgerRecord r;
  r.kind = "run";
  r.label = "smoke";
  r.manifest = sample_manifest();
  r.phases[0] = {10, 5'000'000};   // encode
  r.phases[3] = {7, 250'000'000};  // decode
  // Already name-sorted: record_from_json re-sorts, and the round-trip
  // byte-identity check below depends on canonical order going in.
  r.metrics.counters = {{"sim.decode_failures", 1}, {"sim.trials", 12}};
  r.metrics.gauges = {{"sim.peak_memory_symbols", 321}};
  obs::MetricsSnapshot::Hist h;
  h.name = "sim.overhead_pct";
  h.bounds = {1, 2, 4};
  h.counts = {3, 4, 5, 0};
  r.metrics.histograms.push_back(h);
  Json extra = Json::object();
  extra.set("note", Json(std::string("payload")));
  r.extra = extra;
  return r;
}

// -------------------------------------------------------------- ledger

TEST(LedgerFile, RecordJsonRoundTripsToIdenticalBytes) {
  const obs::LedgerRecord r = sample_record();
  const std::string line = obs::ledger_line(r);
  const obs::LedgerRecord back = obs::record_from_json(Json::parse(line));
  EXPECT_EQ(obs::ledger_line(back), line);
  EXPECT_EQ(back.kind, "run");
  EXPECT_EQ(back.label, "smoke");
  EXPECT_EQ(back.manifest.started_at, "2026-08-07T10:00:00Z");
  EXPECT_EQ(back.manifest.hostname, "hostA");
  EXPECT_EQ(back.phases[0].calls, 10u);
  EXPECT_EQ(back.phases[3].ns, 250'000'000u);
  EXPECT_EQ(back.metrics.counters.size(), 2u);
  ASSERT_EQ(back.metrics.histograms.size(), 1u);
  EXPECT_EQ(back.metrics.histograms[0].counts,
            (std::vector<std::uint64_t>{3, 4, 5, 0}));
}

TEST(LedgerFile, StrictParseRejectsMalformedRecords) {
  Json j = obs::record_to_json(sample_record());
  j.set("surprise", Json(std::string("key")));
  EXPECT_THROW((void)obs::record_from_json(j), std::invalid_argument);

  obs::LedgerRecord bad_kind = sample_record();
  bad_kind.kind = "experiment";  // only "run" and "bench" exist
  EXPECT_THROW((void)obs::record_from_json(obs::record_to_json(bad_kind)),
               std::invalid_argument);

  obs::LedgerRecord broken_hist = sample_record();
  broken_hist.metrics.histograms[0].counts.pop_back();  // bounds+1 violated
  EXPECT_THROW(
      (void)obs::record_from_json(obs::record_to_json(broken_hist)),
      std::invalid_argument);
}

TEST(LedgerFile, AppendLoadAndLineDiagnostics) {
  const std::string path = tmp_path("append.jsonl");
  std::remove(path.c_str());
  obs::append_record(path, sample_record());
  obs::LedgerRecord second = sample_record();
  second.manifest.started_at = "2026-08-07T11:00:00Z";
  obs::append_record(path, second);

  const std::vector<obs::LedgerRecord> loaded = obs::load_ledger(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].manifest.fingerprint, loaded[1].manifest.fingerprint);

  // A malformed line reports its source position.
  std::istringstream in(obs::ledger_line(sample_record()) +
                        "\n\n{\"kind\":\"run\"}\n");
  try {
    (void)obs::load_ledger_stream(in, "shard.jsonl");
    FAIL() << "malformed line should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shard.jsonl:3:"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(LedgerFile, ShardMergeCompactsOrderIndependently) {
  // Six records: two byte-identical duplicates, the rest distinct.
  std::vector<obs::LedgerRecord> records;
  for (int i = 0; i < 5; ++i) {
    obs::LedgerRecord r = sample_record();
    r.manifest.started_at = "2026-08-07T10:0" + std::to_string(i) + ":00Z";
    if (i == 3) r.manifest.fingerprint = "fnv1a:ffeeddccbbaa0099";
    if (i == 4) r.manifest.gf_backend = "scalar";
    records.push_back(r);
  }
  records.push_back(records[1]);  // duplicate shard overlap

  const auto canonical_dump = [](std::vector<obs::LedgerRecord> rs) {
    std::string out;
    for (const obs::LedgerRecord& r : obs::compact_records(std::move(rs)))
      out += obs::ledger_line(r) + "\n";
    return out;
  };

  const std::string forward = canonical_dump(records);
  std::vector<obs::LedgerRecord> reversed(records.rbegin(), records.rend());
  std::vector<obs::LedgerRecord> rotated(records.begin() + 2, records.end());
  rotated.insert(rotated.end(), records.begin(), records.begin() + 2);
  EXPECT_EQ(canonical_dump(reversed), forward);
  EXPECT_EQ(canonical_dump(rotated), forward);
  EXPECT_EQ(obs::compact_records(records).size(), 5u);  // dup dropped
}

// ------------------------------------------------------------- compare

TEST(LedgerCompare, CleanOnIdenticalRerun) {
  obs::LedgerRecord again = sample_record();
  again.manifest.started_at = "2026-08-07T12:00:00Z";
  again.manifest.wall_seconds = 1.6;  // timing noise below threshold
  const obs::CompareReport report =
      obs::compare_records({sample_record(), again}, obs::CompareOptions{});
  EXPECT_TRUE(report.clean()) << (report.drifts.empty()
                                      ? report.slowdowns[0]
                                      : report.drifts[0]);
  EXPECT_EQ(report.records, 2u);
  EXPECT_EQ(report.groups, 1u);
}

TEST(LedgerCompare, FlagsInjectedMetricDrift) {
  obs::LedgerRecord drifted = sample_record();
  drifted.manifest.started_at = "2026-08-07T12:00:00Z";
  drifted.metrics.counters[1].second += 1;  // sim.trials: 12 -> 13
  const obs::CompareReport report =
      obs::compare_records({sample_record(), drifted}, obs::CompareOptions{});
  ASSERT_EQ(report.drifts.size(), 1u);
  EXPECT_NE(report.drifts[0].find("metric drift"), std::string::npos);
  EXPECT_NE(report.drifts[0].find("sim.trials"), std::string::npos);
  EXPECT_FALSE(report.clean());
}

TEST(LedgerCompare, FlagsPhaseCallDrift) {
  obs::LedgerRecord drifted = sample_record();
  drifted.manifest.started_at = "2026-08-07T12:00:00Z";
  drifted.phases[3].calls += 1;  // decode called once more: determinism broke
  const obs::CompareReport report =
      obs::compare_records({sample_record(), drifted}, obs::CompareOptions{});
  ASSERT_EQ(report.drifts.size(), 1u);
  EXPECT_NE(report.drifts[0].find("phase-call drift"), std::string::npos);
}

TEST(LedgerCompare, FlagsInjectedSlowdownAndHonoursThreshold) {
  // 8x on both wall and the decode phase: far beyond the 2x default, so
  // there is no boundary ambiguity, and both regressions must surface.
  obs::LedgerRecord slow = sample_record();
  slow.manifest.started_at = "2026-08-07T12:00:00Z";
  slow.manifest.wall_seconds = sample_record().manifest.wall_seconds * 8;
  slow.phases[3].ns = sample_record().phases[3].ns * 8;

  const obs::CompareReport report =
      obs::compare_records({sample_record(), slow}, obs::CompareOptions{});
  EXPECT_TRUE(report.drifts.empty());  // call counts unchanged: no drift
  ASSERT_EQ(report.slowdowns.size(), 2u);
  EXPECT_NE(report.slowdowns[0].find("wall slowdown"), std::string::npos);
  EXPECT_NE(report.slowdowns[1].find("phase slowdown"), std::string::npos);
  EXPECT_NE(report.slowdowns[1].find("decode"), std::string::npos);
  EXPECT_NE(report.slowdowns[1].find("8.00x"), std::string::npos);

  // The same records pass under a looser ratio: threshold is honoured.
  obs::CompareOptions loose;
  loose.threshold = 10.0;
  EXPECT_TRUE(
      obs::compare_records({sample_record(), slow}, loose).clean());
}

TEST(LedgerCompare, TimingSubgroupsIsolateBackendsAndHosts) {
  // A scalar-backend rerun is 8x slower — expected, not a regression:
  // timings only compare within (kind, label, gf, threads, hostname).
  // Its metric VALUES, however, are still held to bit-identity.
  obs::LedgerRecord scalar = sample_record();
  scalar.manifest.started_at = "2026-08-07T12:00:00Z";
  scalar.manifest.gf_backend = "scalar";
  scalar.manifest.wall_seconds = sample_record().manifest.wall_seconds * 8;
  scalar.phases[3].ns = sample_record().phases[3].ns * 8;
  EXPECT_TRUE(obs::compare_records({sample_record(), scalar},
                                   obs::CompareOptions{})
                  .clean());

  obs::LedgerRecord other_host = sample_record();
  other_host.manifest.started_at = "2026-08-07T12:00:00Z";
  other_host.manifest.hostname = "hostB";
  other_host.manifest.wall_seconds = sample_record().manifest.wall_seconds * 8;
  EXPECT_TRUE(obs::compare_records({sample_record(), other_host},
                                   obs::CompareOptions{})
                  .clean());

  // But the scalar rerun with a drifted counter is still caught.
  scalar.metrics.counters[1].second += 1;
  EXPECT_FALSE(obs::compare_records({sample_record(), scalar},
                                    obs::CompareOptions{})
                   .clean());
}

TEST(LedgerCompare, NoiseFloorsSuppressTinyBaselines) {
  // Baselines below min_wall_seconds / min_phase_ms cannot regress: a 10x
  // ratio on a 2 ms wall is scheduler noise, not a finding.
  obs::LedgerRecord base = sample_record();
  base.manifest.wall_seconds = 0.002;
  base.phases[3].ns = 1'000'000;  // 1 ms decode
  obs::LedgerRecord slow = base;
  slow.manifest.started_at = "2026-08-07T12:00:00Z";
  slow.manifest.wall_seconds = 0.02;
  slow.phases[3].ns = 10'000'000;
  EXPECT_TRUE(
      obs::compare_records({base, slow}, obs::CompareOptions{}).clean());
}

TEST(LedgerCompare, FilterSelectsByPrefixEngineAndKind) {
  obs::LedgerRecord bench = sample_record();
  bench.kind = "bench";
  bench.label = "codec_speed";
  bench.manifest.engine = "bench";
  const std::vector<obs::LedgerRecord> all = {sample_record(), bench};

  obs::LedgerFilter by_kind;
  by_kind.kind = "bench";
  EXPECT_EQ(obs::filter_records(all, by_kind).size(), 1u);

  obs::LedgerFilter by_prefix;
  by_prefix.fingerprint = "fnv1a:0011";  // prefix, not the full digest
  EXPECT_EQ(obs::filter_records(all, by_prefix).size(), 2u);

  obs::LedgerFilter by_engine;
  by_engine.engine = "stream";
  EXPECT_EQ(obs::filter_records(all, by_engine).size(), 1u);

  obs::LedgerFilter nothing;
  nothing.gf = "neon";
  EXPECT_TRUE(obs::filter_records(all, nothing).empty());
}

// ------------------------------------------------------------ progress

TEST(LedgerProgress, CountersAreExactForParallelForIndex) {
  std::ostringstream sink;
  obs::ProgressOptions opt;
  opt.sink = &sink;
  opt.force_tty = 0;
  opt.plain_interval_seconds = 0.0;  // render every tick: exercise the path
  obs::ProgressMeter meter(opt);
  std::vector<int> hits(37, 0);
  parallel_for_index(hits.size(), 4, [&](std::size_t i) { hits[i] = 1; });
  meter.finish();
  EXPECT_EQ(meter.done(), 37u);
  EXPECT_EQ(meter.total(), 37u);
  EXPECT_NE(sink.str().find("37/37"), std::string::npos) << sink.str();
}

TEST(LedgerProgress, GridSweepTicksOncePerCell) {
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

  std::ostringstream sink;
  obs::ProgressOptions opt;
  opt.sink = &sink;
  opt.force_tty = 0;
  obs::ProgressMeter meter(opt);
  const ScenarioResult result = api::run_scenario(spec);
  meter.finish();
  ASSERT_TRUE(result.grid.has_value());
  EXPECT_EQ(meter.total(), result.grid->cells.size());
  EXPECT_EQ(meter.done(), meter.total());
}

/// A serial engine announces `announced` trials up front and ticks once
/// per trial it runs, so a finished run drains the total exactly.
void expect_all_trials_counted(const ScenarioSpec& spec,
                               std::uint64_t announced) {
  std::ostringstream sink;
  obs::ProgressOptions opt;
  opt.sink = &sink;
  opt.force_tty = 0;
  obs::ProgressMeter meter(opt);
  (void)api::run_scenario(spec);
  meter.finish();
  EXPECT_EQ(meter.total(), announced);
  EXPECT_EQ(meter.done(), meter.total());
}

ScenarioSpec serial_spec(const std::string& engine) {
  ScenarioSpec spec;
  spec.engine = engine;
  spec.code.name = "sliding-window";
  spec.channel.p = 0.05;
  spec.channel.q = 0.25;
  spec.run.sources = 300;
  spec.run.trials = 4;
  spec.run.seed = 0x57e4a9edULL;
  return spec;
}

TEST(LedgerProgress, StreamTrialsAllCounted) {
  expect_all_trials_counted(serial_spec("stream"), 4);
}

TEST(LedgerProgress, NetTrialsAllCounted) {
  ScenarioSpec spec = serial_spec("net");
  spec.net.transport = "memory";
  expect_all_trials_counted(spec, 4);
}

// mpath announces two loops: every scheduler's trials, plus the adapt
// warm-up probes.
TEST(LedgerProgress, MpathTrialsAndWarmupAllCounted) {
  ScenarioSpec spec = serial_spec("mpath");
  spec.paths.list = {{5.0, 1.0}, {45.0, 1.0}};
  spec.adapt.enabled = true;
  spec.adapt.warmup = 2;
  expect_all_trials_counted(
      spec, MpathSweepConfig::default_variants().size() * 4 + 2);
}

TEST(LedgerProgress, ScopedInstallRestoresPreviousObserver) {
  EXPECT_EQ(parallel_observer(), nullptr);
  {
    obs::ProgressMeter outer;
    EXPECT_EQ(parallel_observer(), &outer);
    {
      obs::ProgressMeter inner;
      EXPECT_EQ(parallel_observer(), &inner);
    }
    EXPECT_EQ(parallel_observer(), &outer);
  }
  EXPECT_EQ(parallel_observer(), nullptr);
}

// -------------------------------------------------------------- export

TEST(LedgerExport, FoldedProfileOnePhasePerLine) {
  obs::Report report;
  report.config.profile = true;
  report.phases[0] = {10, 5'000'000};   // encode: 5000 us
  report.phases[3] = {7, 250'000'000};  // decode: 250000 us
  const std::string folded =
      obs::folded_profile(sample_manifest(), report);
  EXPECT_EQ(folded,
            "fecsched;stream;encode 5000\n"
            "fecsched;stream;decode 250000\n");
}

TEST(LedgerExport, PrometheusExpositionSchema) {
  obs::Report report;
  report.config.metrics = true;
  report.config.profile = true;
  report.phases[0] = {10, 5'000'000};
  report.metrics = sample_record().metrics;
  const std::string text =
      obs::prometheus_metrics(sample_manifest(), report);

  // Provenance info gauge with manifest labels.
  EXPECT_NE(text.find("fecsched_run_info{"), std::string::npos);
  EXPECT_NE(text.find("spec=\"fnv1a:00112233aabbccdd\""), std::string::npos);
  EXPECT_NE(text.find("gf=\"avx2\""), std::string::npos);
  // Dots sanitized, counters suffixed _total, gauges plain.
  EXPECT_NE(text.find("fecsched_sim_trials_total 12"), std::string::npos);
  EXPECT_NE(text.find("fecsched_sim_peak_memory_symbols 321"),
            std::string::npos);
  // Histogram: cumulative buckets, +Inf, _count — and no _sum (the
  // registry keeps bucket counts only).
  EXPECT_NE(text.find("fecsched_sim_overhead_pct_bucket{le=\"1\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("fecsched_sim_overhead_pct_bucket{le=\"2\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("fecsched_sim_overhead_pct_bucket{le=\"+Inf\"} 12"),
            std::string::npos);
  EXPECT_NE(text.find("fecsched_sim_overhead_pct_count 12"),
            std::string::npos);
  EXPECT_EQ(text.find("_sum"), std::string::npos);
  // Phase series only because config.profile was on.
  EXPECT_NE(text.find("fecsched_phase_calls_total{phase=\"encode\"} 10"),
            std::string::npos);
}

TEST(LedgerExport, WriteTextFileRoundTripsAndReportsFailure) {
  const std::string path = tmp_path("export.txt");
  obs::write_text_file(path, "fecsched;grid;encode 12\n");
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "fecsched;grid;encode 12\n");
  std::remove(path.c_str());
  EXPECT_THROW(obs::write_text_file("/nonexistent-dir/x.txt", "y"),
               std::runtime_error);
}

// ------------------------------------------------------------ manifest

TEST(LedgerManifest, Iso8601FormatsUtc) {
  EXPECT_EQ(obs::iso8601_utc(std::chrono::system_clock::time_point{}),
            "1970-01-01T00:00:00Z");
  EXPECT_EQ(obs::iso8601_utc(std::chrono::system_clock::time_point{} +
                             std::chrono::seconds(86400 + 3661)),
            "1970-01-02T01:01:01Z");
}

TEST(LedgerManifest, RunManifestTimestampAndFingerprintStability) {
  ScenarioSpec spec;
  spec.engine = "stream";
  spec.code.name = "sliding-window";
  spec.channel.p = 0.05;
  spec.channel.q = 0.25;
  spec.run.sources = 300;
  spec.run.trials = 2;

  const ScenarioResult bare = api::run_scenario(spec);
  ScenarioSpec observed = spec;
  observed.obs.metrics = true;
  observed.obs.profile = true;
  const ScenarioResult traced = api::run_scenario(observed);

  // Observation knobs never change a scenario's identity.
  EXPECT_EQ(bare.manifest.fingerprint, traced.manifest.fingerprint);
  // started_at is ISO-8601 UTC at second resolution.
  ASSERT_EQ(bare.manifest.started_at.size(), 20u);
  EXPECT_EQ(bare.manifest.started_at[4], '-');
  EXPECT_EQ(bare.manifest.started_at[10], 'T');
  EXPECT_EQ(bare.manifest.started_at.back(), 'Z');
  EXPECT_EQ(bare.manifest.hostname, obs::local_hostname());
}

TEST(LedgerManifest, MakeRunRecordCarriesReport) {
  obs::Report report;
  report.config.metrics = true;
  report.phases[0] = {10, 5'000'000};
  report.metrics.counters = {{"sim.trials", 12}};
  const obs::LedgerRecord record =
      obs::make_run_record(sample_manifest(), report);
  EXPECT_EQ(record.kind, "run");
  EXPECT_TRUE(record.label.empty());
  EXPECT_EQ(record.manifest.fingerprint, sample_manifest().fingerprint);
  EXPECT_EQ(record.phases[0].calls, 10u);
  ASSERT_EQ(record.metrics.counters.size(), 1u);
  EXPECT_EQ(record.metrics.counters[0].second, 12u);
  EXPECT_TRUE(record.has_profile());
}

}  // namespace
}  // namespace fecsched
