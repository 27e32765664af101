// Scenario API tests (src/api/): registry discoverability, JSON
// round-tripping, spec fixed-point serialization, and — the correctness
// gate of the whole refactor — bit-identity oracles pinning that
// run_scenario / run_scenario_sweep reproduce every legacy entry point
// exactly (same Rng consumption, same accumulation order).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "api/json.h"
#include "api/registry.h"
#include "api/scenario.h"
#include "channel/gilbert.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace fecsched::api {
namespace {

#ifndef FECSCHED_TESTS_DATA_DIR
#define FECSCHED_TESTS_DATA_DIR "tests/data"
#endif

std::string read_file(const std::string& name) {
  const std::string path = std::string(FECSCHED_TESTS_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string trim_trailing_newline(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

// ------------------------------------------------------------ registry

TEST(Registry, EverySectionIsPopulated) {
  const Registry& reg = registry();
  for (const RegistrySection section :
       {RegistrySection::kCodes, RegistrySection::kChannels,
        RegistrySection::kTxModels, RegistrySection::kPathSchedulers}) {
    const auto& entries = reg.list(section);
    ASSERT_FALSE(entries.empty()) << to_string(section);
    for (const RegistryEntry& e : entries) {
      EXPECT_FALSE(e.name.empty());
      EXPECT_FALSE(e.description.empty()) << e.name;
      EXPECT_FALSE(e.engines.empty()) << e.name;
      // describe() finds every listed entry by canonical name and alias.
      ASSERT_TRUE(reg.describe(section, e.name).has_value()) << e.name;
      for (const std::string& alias : e.aliases) {
        const auto via_alias = reg.describe(section, alias);
        ASSERT_TRUE(via_alias.has_value()) << alias;
        EXPECT_EQ(via_alias->name, e.name);
      }
    }
  }
}

TEST(Registry, DescribeUnknownNameIsEmpty) {
  EXPECT_FALSE(
      registry().describe(RegistrySection::kCodes, "turbo-code").has_value());
}

TEST(Registry, TypedResolversAcceptCanonicalNamesAndAliases) {
  const Registry& reg = registry();
  EXPECT_EQ(reg.code("rse"), CodeKind::kRse);
  EXPECT_EQ(reg.code("ldgm-triangle"), CodeKind::kLdgmTriangle);
  EXPECT_EQ(reg.stream_scheme("sliding-window"), StreamScheme::kSlidingWindow);
  EXPECT_EQ(reg.stream_scheme("sliding"), StreamScheme::kSlidingWindow);
  EXPECT_EQ(reg.stream_scheme("rse"), StreamScheme::kBlockRse);
  EXPECT_EQ(reg.tx_model("tx5"), TxModel::kTx5Interleaved);
  EXPECT_EQ(reg.tx_model("5"), TxModel::kTx5Interleaved);
  EXPECT_EQ(reg.stream_scheduling("seq"), StreamScheduling::kSequential);
  EXPECT_EQ(reg.stream_scheduling("carousel"), StreamScheduling::kCarousel);
  EXPECT_EQ(reg.path_scheduler("rr"), PathScheduling::kRoundRobin);
  EXPECT_EQ(reg.path_scheduler("earliest-arrival"),
            PathScheduling::kEarliestArrival);
}

// spec_name() is the code's name on the wire: in spec files, the adapt
// JSON and bench output (the FDT carried it once, hence the suite name).
// The registry must read every one back to its code.
TEST(Fdt, CodeWireNamesRoundTrip) {
  for (const CodeKind code :
       {CodeKind::kRse, CodeKind::kLdgmIdentity, CodeKind::kLdgmStaircase,
        CodeKind::kLdgmTriangle, CodeKind::kReplication})
    EXPECT_EQ(registry().code(spec_name(code)), code) << spec_name(code);
  EXPECT_THROW((void)registry().code("raptor"), std::invalid_argument);
}

TEST(Registry, UnknownNameThrowsNamingTheKnownSet) {
  try {
    (void)registry().code("raptorq");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("raptorq"), std::string::npos);
    EXPECT_NE(what.find("known:"), std::string::npos);
    EXPECT_NE(what.find("ldgm-triangle"), std::string::npos);
  }
}

TEST(Registry, MakeChannelGilbertMatchesDirectConstruction) {
  const auto made = registry().make_channel("gilbert", {0.05, 0.4});
  GilbertModel direct(0.05, 0.4);
  made->reset(42);
  direct.reset(42);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(made->lost(), direct.lost());
}

TEST(Registry, EngineTagging) {
  EXPECT_TRUE(registry().known_in_engine("sliding-window", "stream"));
  EXPECT_FALSE(registry().known_in_engine("sliding-window", "grid"));
  EXPECT_TRUE(registry().known_in_engine("rse", "grid"));
}

// The grid and adaptive engines draw every trial from GilbertModel, so
// only gilbert lists them.
TEST(Registry, OnlyGilbertListsTheGridAndAdaptiveEngines) {
  const std::vector<std::string> streaming = {"stream", "mpath", "net"};
  for (const char* name : {"bernoulli", "perfect"})
    EXPECT_EQ(registry().describe(RegistrySection::kChannels, name)->engines,
              streaming)
        << name;
  const std::vector<std::string> all = {"grid", "stream", "mpath",
                                        "adaptive", "net"};
  EXPECT_EQ(registry().describe(RegistrySection::kChannels, "gilbert")->engines,
            all);
}

// ---------------------------------------------------------------- json

TEST(ApiJson, ParseDumpRoundTrip) {
  const std::string doc =
      R"({"a":1,"b":[1,2.5,"x"],"c":{"d":true,"e":null},"f":"q\"\\"})";
  const Json parsed = Json::parse(doc);
  EXPECT_EQ(Json::parse(parsed.dump()).dump(), parsed.dump());
  EXPECT_EQ(parsed.find("a")->as_uint64("a"), 1u);
  EXPECT_EQ(parsed.find("b")->as_array("b")[1].as_double("b"), 2.5);
  EXPECT_TRUE(parsed.find("c")->find("e")->is_null());
}

TEST(ApiJson, RejectsMalformedDocuments) {
  EXPECT_THROW((void)Json::parse("{\"a\":1} trailing"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("{\"a\":1,\"a\":2}"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("{\"a\":01}"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::invalid_argument);
}

TEST(ApiJson, Uint64RoundTripsWithoutPrecisionLoss) {
  const std::uint64_t big = 18446744073709551615ULL;
  const Json j = Json::integer(big);
  EXPECT_EQ(j.dump(), "18446744073709551615");
  EXPECT_EQ(Json::parse(j.dump()).as_uint64("seed"), big);
}

TEST(ApiJson, FormatDoubleIsShortestRoundTrip) {
  for (const double v : {0.02, 0.25, 1.0 / 3.0, 1e-9, 12345.678, 0.0}) {
    const std::string s = Json::format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(Json::format_double(0.25), "0.25");
  EXPECT_EQ(Json::format_double(4000.0), "4000");
}

// ------------------------------------------------------ spec round-trip

TEST(SpecRoundTrip, SerializationIsAFixedPoint) {
  ScenarioSpec spec;
  spec.engine = "mpath";
  spec.code.name = "sliding-window";
  spec.channel.p_global = 0.05;
  spec.channel.mean_burst = 4.0;
  spec.paths.scheduler = "earliest-arrival";
  spec.paths.list = {{5.0, 1.0}, {45.0, 0.5}};
  spec.adapt.enabled = true;
  spec.run.seed = 0x3147a7b5ULL;
  spec.sweep.overheads = {0.125, 0.25};

  const std::string once = spec.to_json();
  const std::string twice = ScenarioSpec::from_json(once).to_json();
  EXPECT_EQ(once, twice);
}

TEST(SpecRoundTrip, GoldenSpecFilesAreFixedPoints) {
  for (const char* name :
       {"grid_scenario.json", "stream_scenario.json", "mpath_scenario.json",
        "adaptive_scenario.json"}) {
    const std::string text = read_file(name);
    ASSERT_FALSE(text.empty()) << name;
    const ScenarioSpec spec = ScenarioSpec::from_json(text);
    EXPECT_EQ(spec.to_json(), trim_trailing_newline(text)) << name;
  }
}

TEST(SpecRoundTrip, GoldenSpecsCoverEveryEngine) {
  EXPECT_EQ(ScenarioSpec::from_json(read_file("grid_scenario.json")).engine,
            "grid");
  EXPECT_EQ(ScenarioSpec::from_json(read_file("stream_scenario.json")).engine,
            "stream");
  EXPECT_EQ(ScenarioSpec::from_json(read_file("mpath_scenario.json")).engine,
            "mpath");
  EXPECT_EQ(
      ScenarioSpec::from_json(read_file("adaptive_scenario.json")).engine,
      "adaptive");
}

TEST(SpecRoundTrip, UnknownKeyIsRejectedWithItsPath) {
  try {
    (void)ScenarioSpec::from_json(
        R"({"engine":"grid","channel":{"model":"gilbert","foo":1}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("channel.foo"), std::string::npos)
        << e.what();
  }
  try {
    (void)ScenarioSpec::from_json(R"({"engine":"grid","frobnicate":{}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
  }
}

TEST(SpecRoundTrip, SinglePointEnginesRejectSweepAxes) {
  // run_scenario's stream/mpath paths run one channel point; silently
  // dropping populated sweep axes would look like a successful sweep.
  ScenarioSpec spec;
  spec.engine = "stream";
  spec.run.sources = 100;
  spec.run.trials = 1;
  spec.sweep.p_globals = {0.02, 0.05};
  spec.sweep.bursts = {2.0};
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
  EXPECT_NO_THROW((void)run_scenario_sweep(spec));

  // ...and the memory guard for the merged delay distribution applies
  // only to the single-point path, not the RunningStats sweeps.
  spec.sweep = SweepSpec{};
  spec.run.sources = 1000000;
  spec.run.trials = 10000;
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(SpecRoundTrip, ValidationRejectsBadSpecs) {
  ScenarioSpec spec;
  spec.engine = "quantum";
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = ScenarioSpec{};
  spec.engine = "stream";
  spec.code.name = "ldgm-triangle";  // a block code, not a stream scheme
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = ScenarioSpec{};
  spec.engine = "stream";
  spec.run.sources = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = ScenarioSpec{};
  spec.engine = "mpath";
  spec.tx.stream = "carousel";
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = ScenarioSpec{};
  spec.engine = "grid";
  spec.channel.model = "fountain";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SpecRoundTrip, ValidationRefusesAChannelModelTheEngineIgnores) {
  for (const char* engine : {"grid", "adaptive"}) {
    ScenarioSpec spec;
    spec.engine = engine;
    spec.channel.model = "iid";
    try {
      spec.validate();
      FAIL() << engine << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'iid'"), std::string::npos)
          << e.what();
    }
  }
  // A single-point stream run draws the model it names: nothing is lost
  // on the perfect channel, even at p = 0.5.
  ScenarioSpec spec;
  spec.engine = "stream";
  spec.code.name = "sliding-window";
  spec.channel.model = "perfect";
  spec.channel.p = 0.5;
  spec.channel.q = 0.5;
  spec.run.sources = 200;
  spec.run.trials = 2;
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.stream.size(), 1u);
  EXPECT_EQ(result.stream[0].lost, 0u);
  EXPECT_EQ(result.stream[0].delivered, 400u);
}

TEST(SpecRoundTrip, GridRejectsZeroTrialsNamingTheField) {
  // Zero trials per cell would print an all-"-" table and exit 0.
  try {
    (void)ScenarioSpec::from_json(
        R"({"engine":"grid","code":{"name":"rse"},"run":{"trials":0}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("run.trials"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------- bit-identity oracles

void expect_stats_equal(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
}

TEST(ScenarioOracle, GridEngineMatchesExperimentRun) {
  ScenarioSpec spec;
  spec.engine = "grid";
  spec.code.name = "rse";
  spec.code.ratio = 1.5;
  spec.code.k = 200;
  spec.tx.model = "tx2";
  spec.run.trials = 2;
  spec.run.seed = 0x5eedf00dULL;
  spec.sweep.p_values = {0.01, 0.05};
  spec.sweep.q_values = {0.3, 0.6};

  const ScenarioResult result = run_scenario(spec);
  ASSERT_TRUE(result.grid.has_value());

  ExperimentConfig cfg;
  cfg.code = CodeKind::kRse;
  cfg.tx = TxModel::kTx2SeqSourceRandParity;
  cfg.expansion_ratio = 1.5;
  cfg.k = 200;
  const Experiment experiment(cfg);
  GridRunOptions opt;
  opt.trials_per_cell = 2;
  opt.master_seed = 0x5eedf00dULL;
  const GridResult legacy =
      experiment.run(GridSpec{{0.01, 0.05}, {0.3, 0.6}}, opt);

  ASSERT_EQ(result.grid->cells.size(), legacy.cells.size());
  for (std::size_t c = 0; c < legacy.cells.size(); ++c) {
    const CellResult& got = result.grid->cells[c];
    const CellResult& want = legacy.cells[c];
    EXPECT_EQ(got.trials, want.trials);
    EXPECT_EQ(got.failures, want.failures);
    EXPECT_EQ(got.peak_memory_symbols, want.peak_memory_symbols);
    expect_stats_equal(got.inefficiency, want.inefficiency);
    expect_stats_equal(got.received_ratio, want.received_ratio);
  }
}

TEST(ScenarioOracle, StreamEngineMatchesLegacyTrialLoop) {
  ScenarioSpec spec;
  spec.engine = "stream";
  spec.channel.p = 0.02;
  spec.channel.q = 0.4;
  spec.run.sources = 500;
  spec.run.trials = 3;
  spec.run.seed = 0x57e4a9edULL;

  const ScenarioResult result = run_scenario(spec);
  const std::vector<StreamVariant> variants =
      StreamGridConfig::default_variants();
  ASSERT_EQ(result.stream.size(), variants.size());

  for (std::size_t v = 0; v < variants.size(); ++v) {
    StreamTrialConfig cfg;
    cfg.scheme = variants[v].scheme;
    cfg.scheduling = variants[v].scheduling;
    cfg.source_count = 500;
    std::vector<double> delays;
    std::uint64_t delivered = 0, lost = 0;
    double delay_sum = 0.0;
    for (std::uint32_t t = 0; t < 3; ++t) {
      GilbertModel channel(0.02, 0.4);
      const StreamTrialResult r =
          run_stream_trial(cfg, channel, derive_seed(spec.run.seed, {v, t}));
      delays.insert(delays.end(), r.delays.begin(), r.delays.end());
      delivered += r.delay.delivered;
      lost += r.residual.lost;
      delay_sum += r.delay.mean * static_cast<double>(r.delay.delivered);
    }
    std::sort(delays.begin(), delays.end());
    const StreamOutcome& got = result.stream[v];
    EXPECT_EQ(got.variant.label, variants[v].label);
    EXPECT_EQ(got.delays, delays);
    EXPECT_EQ(got.delivered, delivered);
    EXPECT_EQ(got.lost, lost);
    EXPECT_EQ(got.delay_sum, delay_sum);
  }
}

TEST(ScenarioOracle, MpathEngineMatchesLegacyTrialLoop) {
  ScenarioSpec spec;
  spec.engine = "mpath";
  spec.code.name = "sliding-window";
  spec.channel.p = 0.02;
  spec.channel.q = 0.4;
  spec.paths.list = {{5.0, 1.0}, {45.0, 1.0}};
  spec.paths.scheduler = "earliest-arrival";
  spec.run.sources = 400;
  spec.run.trials = 2;
  spec.run.seed = 0x3147a7b5ULL;

  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.mpath.size(), 1u);

  MpathTrialConfig cfg;
  cfg.stream.scheme = StreamScheme::kSlidingWindow;
  cfg.stream.source_count = 400;
  cfg.paths = {PathSpec::gilbert(0.02, 0.4, 5.0, 1.0),
               PathSpec::gilbert(0.02, 0.4, 45.0, 1.0)};
  cfg.scheduler = PathScheduling::kEarliestArrival;
  std::vector<double> delays;
  std::uint64_t delivered = 0;
  for (std::uint32_t t = 0; t < 2; ++t) {
    const MpathTrialResult r =
        run_mpath_trial(cfg, derive_seed(spec.run.seed, {0, t}));
    delays.insert(delays.end(), r.stream.delays.begin(),
                  r.stream.delays.end());
    delivered += r.stream.delay.delivered;
  }
  std::sort(delays.begin(), delays.end());
  EXPECT_EQ(result.mpath[0].delays, delays);
  EXPECT_EQ(result.mpath[0].delivered, delivered);
  EXPECT_EQ(result.mpath[0].variant.label, "earliest-arrival");
}

/// FNV-1a over every field of every AdaptiveComparePoint, StreamPointStats
/// or MpathPointStats.
class PointHash {
 public:
  template <typename T>
    requires std::is_arithmetic_v<T>
  void add(T v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001b3ULL;
  }
  void add(const RunningStats& s) {
    add(static_cast<std::uint64_t>(s.count()));
    for (const double v : {s.mean(), s.m2(), s.min(), s.max()}) add(v);
  }
  void add(const CandidateTuple& t) {
    add(static_cast<int>(t.code));
    add(static_cast<int>(t.tx));
    add(t.expansion_ratio);
  }
  void add(const AdaptiveComparePoint& r) {
    for (const double v : {r.p, r.q, r.p_global, r.mean_burst}) add(v);
    add(static_cast<std::uint64_t>(r.baselines.size()));
    for (const StaticBaselineResult& b : r.baselines) {
      add(b.tuple);
      add(b.inefficiency);
      add(b.failures);
      add(b.trials);
    }
    add(static_cast<std::uint64_t>(r.trajectory.size()));
    for (const AdaptiveTrajectoryPoint& t : r.trajectory) {
      add(t.object_index);
      add(t.tuple);
      add(static_cast<int>(t.regime));
      add(t.replanned);
      add(t.decoded);
      add(t.inefficiency);
      add(t.n_sent);
      add(t.estimated_p_global);
      add(t.estimated_mean_burst);
    }
    add(r.warmup_objects);
    add(r.adaptive_steady);
    add(r.adaptive_failures);
    add(r.adaptive_warmup);
    add(r.best_baseline);
  }
  void add(const StreamPointStats& s) {
    for (const RunningStats* r :
         {&s.mean_delay, &s.p95_delay, &s.p99_delay, &s.max_delay,
          &s.mean_hol, &s.residual_mean_run, &s.residual_max_run,
          &s.undelivered_fraction, &s.overhead_actual})
      add(*r);
    add(s.trials);
  }
  void add(const MpathPointStats& s) {
    add(s.stream);
    add(s.reordered_fraction);
    add(s.best_path_share);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// The adaptive engine in absolute terms: a two-point spec through
// run_scenario and run_scenario_sweep, every result field of both points
// folded into one hash.
TEST(ScenarioOracle, AdaptiveEngineIsPinned) {
  constexpr std::uint64_t kWant = 0x2feaf100fa14ce05ULL;
  ScenarioSpec spec;
  spec.engine = "adaptive";
  spec.code.k = 300;
  spec.adapt.objects = 6;
  spec.adapt.warmup = 2;
  spec.run.seed = 0xada2c0deULL;
  spec.run.threads = 2;
  spec.sweep.p_globals = {0.05, 0.1};
  spec.sweep.bursts = {2.0};

  const auto hash = [](const std::vector<AdaptiveComparePoint>& points) {
    EXPECT_EQ(points.size(), 2u);
    PointHash h;
    for (const AdaptiveComparePoint& r : points) h.add(r);
    return h.value();
  };
  const std::uint64_t single = hash(run_scenario(spec).adaptive);
  const std::uint64_t sweep = hash(run_scenario_sweep(spec).adaptive);
  EXPECT_EQ(single, kWant);
  EXPECT_EQ(sweep, kWant);
  if (single != kWant)
    std::printf("AdaptiveEngineIsPinned: 0x%016llxULL\n",
                static_cast<unsigned long long>(single));
}

// The stream axis sweep in absolute terms: two channel points, the
// default variants and two overheads, every cell folded into one hash.
TEST(ScenarioOracle, StreamSweepIsPinned) {
  constexpr std::uint64_t kWant = 0x7094be6aa0a83493ULL;
  ScenarioSpec spec;
  spec.engine = "stream";
  spec.run.sources = 300;
  spec.run.trials = 2;
  spec.run.seed = 0x5eedf00dULL;
  spec.run.threads = 2;
  spec.sweep.p_globals = {0.02, 0.05};
  spec.sweep.bursts = {3.0};
  spec.sweep.overheads = {0.125, 0.25};

  const ScenarioSweepResult result = run_scenario_sweep(spec);
  ASSERT_TRUE(result.stream.has_value());
  ASSERT_EQ(result.stream->stats.size(), 2u * 5u * 2u);
  PointHash h;
  for (const StreamPointStats& s : result.stream->stats) h.add(s);
  EXPECT_EQ(h.value(), kWant);
  if (h.value() != kWant)
    std::printf("StreamSweepIsPinned: 0x%016llxULL\n",
                static_cast<unsigned long long>(h.value()));
}

// The mpath axis sweep in absolute terms: two channel points, two delay
// spreads, the default schedulers and two overheads.
TEST(ScenarioOracle, MpathSweepIsPinned) {
  constexpr std::uint64_t kWant = 0xe0ba14a924b19017ULL;
  ScenarioSpec spec;
  spec.engine = "mpath";
  spec.code.name = "sliding-window";
  spec.run.sources = 300;
  spec.run.trials = 2;
  spec.run.seed = 7;
  spec.run.threads = 2;
  spec.sweep.p_globals = {0.03};
  spec.sweep.bursts = {2.0, 5.0};
  spec.sweep.overheads = {0.125, 0.25};
  spec.sweep.delay_spreads = {0.0, 40.0};

  const ScenarioSweepResult result = run_scenario_sweep(spec);
  ASSERT_TRUE(result.mpath.has_value());
  ASSERT_EQ(result.mpath->stats.size(), 2u * 2u * 4u * 2u);
  PointHash h;
  for (const MpathPointStats& s : result.mpath->stats) h.add(s);
  EXPECT_EQ(h.value(), kWant);
  if (h.value() != kWant)
    std::printf("MpathSweepIsPinned: 0x%016llxULL\n",
                static_cast<unsigned long long>(h.value()));
}

// A spec with sweep.p_global but no sweep.burst runs each p_global at
// burst 1, as the stream and mpath sweeps do.
TEST(ScenarioOracle, AdaptivePGlobalWithoutBurstRunsAtBurstOne) {
  ScenarioSpec spec;
  spec.engine = "adaptive";
  spec.code.k = 200;
  spec.adapt.objects = 2;
  spec.adapt.warmup = 1;
  spec.sweep.p_globals = {0.02, 0.05};
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.adaptive.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const ChannelPoint want = gilbert_point(spec.sweep.p_globals[i], 1.0);
    EXPECT_EQ(result.adaptive[i].p, want.p);
    EXPECT_EQ(result.adaptive[i].q, want.q);
    EXPECT_EQ(result.adaptive[i].trajectory.size(), 2u);
  }
}

// --------------------------------------------------------- sweep oracles

TEST(ScenarioSweep, AxisSweepsRefuseNonGilbertChannels) {
  for (const char* engine : {"stream", "mpath"}) {
    ScenarioSpec spec;
    spec.engine = engine;
    spec.channel.model = "bernoulli";
    spec.run.sources = 100;
    spec.run.trials = 1;
    spec.sweep.p_globals = {0.05};
    spec.validate();  // the model suits the engine's single-point runs
    try {
      (void)run_scenario_sweep(spec);
      FAIL() << engine << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'bernoulli'"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioSweep, AdaptiveSweepIsThreadCountIndependent) {
  ScenarioSpec spec;
  spec.engine = "adaptive";
  spec.code.k = 200;
  spec.adapt.objects = 4;
  spec.adapt.warmup = 1;
  spec.run.seed = 11;
  spec.sweep.p_globals = {0.05, 0.1};
  spec.sweep.bursts = {2.0};

  spec.run.threads = 1;
  const ScenarioSweepResult serial = run_scenario_sweep(spec);
  spec.run.threads = 3;
  const ScenarioSweepResult parallel = run_scenario_sweep(spec);

  ASSERT_EQ(serial.adaptive.size(), parallel.adaptive.size());
  for (std::size_t i = 0; i < serial.adaptive.size(); ++i) {
    expect_stats_equal(serial.adaptive[i].adaptive_steady,
                       parallel.adaptive[i].adaptive_steady);
    EXPECT_EQ(serial.adaptive[i].best_baseline,
              parallel.adaptive[i].best_baseline);
  }
}

}  // namespace
}  // namespace fecsched::api
