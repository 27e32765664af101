// Tests for the crash-safety layer (PR 9): durable writes
// (util/durable_io.h), deterministic fault injection (util/faultpoint.h),
// sharded checkpoint/resume (api/checkpoint.h), the per-trial watchdog
// (util/watchdog.h) and signal draining (util/interrupt.h).  The
// load-bearing properties:
//
//  * a sweep killed at ANY registered fault point and resumed from its
//    checkpoint directory reproduces the uninterrupted result bit-exactly
//    (every cell field, every RunningStats moment);
//  * a malformed, truncated or foreign-spec shard degrades resume to
//    recompute — one stderr warning, never a poisoned result or an abort;
//  * resume removes the temp shards of its own spec whose writer died
//    mid-write, and no other file;
//  * shard serialization round-trips CellResult exactly, including the
//    zero-count accumulator whose min/max are not JSON-representable;
//  * the `short` fault kind manufactures the torn artifact a non-durable
//    writer would leave, which is what the readers' torn-file tolerance
//    is tested against;
//  * an expired trial becomes an explicit timed_out cell status, not a
//    hung sweep.
//
// Fault points under the parallel sweep must use Kind::kExit in forked
// children: a Kind::kThrow escaping a parallel_for_index worker is
// std::terminate (sweep.cell documents this; sweep_points only catches
// watchdog::TrialTimeout at the trial boundary).

#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/checkpoint.h"
#include "api/registry.h"
#include "api/scenario.h"
#include "obs/ledger.h"
#include "sim/grid.h"
#include "util/durable_io.h"
#include "util/faultpoint.h"
#include "util/interrupt.h"
#include "util/stats.h"
#include "util/watchdog.h"

namespace fecsched {
namespace {

using api::CheckpointSpec;
using api::RunControl;
using api::ScenarioSpec;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "robustness_test_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Run `body` in a forked child; returns the child's exit code (-1 on
/// abnormal termination).  The child never returns into gtest: it _exits
/// 0 on completion, 70 on an escaped exception, or dies at the injected
/// fault (fault::kExitCode).
int run_in_child(const std::function<void()>& body) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    try {
      body();
    } catch (...) {
      ::_exit(70);
    }
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The small grid sweep the kill matrix runs: 4 cells x 2 trials of RSE,
/// single-threaded so child processes stay cheap and fork-safe.
ScenarioSpec matrix_spec() {
  ScenarioSpec spec;
  spec.engine = "grid";
  spec.code.name = "rse";
  spec.code.k = 100;
  spec.code.ratio = 1.5;
  spec.run.trials = 2;
  spec.run.threads = 1;
  spec.sweep.p_values = {0.0, 0.04};
  spec.sweep.q_values = {0.5, 1.0};
  return spec;
}

void expect_same_stats(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.m2(), b.m2());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_same_cell(const CellResult& a, const CellResult& b) {
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.q, b.q);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.peak_memory_symbols, b.peak_memory_symbols);
  expect_same_stats(a.inefficiency, b.inefficiency);
  expect_same_stats(a.received_ratio, b.received_ratio);
}

void expect_same_grid(const GridResult& a, const GridResult& b) {
  EXPECT_EQ(a.k, b.k);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    SCOPED_TRACE("cell " + std::to_string(c));
    expect_same_cell(a.cells[c], b.cells[c]);
  }
}

/// A populated cell with irrational-ish moments so the exact-double
/// round-trip claim is exercised on values %g cannot shorten.
CellResult sample_cell() {
  CellResult c;
  c.p = 0.07;
  c.q = 1.0 / 3.0;
  c.inefficiency.add(1.0471975511965976);
  c.inefficiency.add(1.25);
  c.inefficiency.add(4.0 / 3.0);
  c.received_ratio.add(2.2360679774997896);
  c.received_ratio.add(0.1);
  c.received_ratio.add(1.5);
  c.received_ratio.add(1.0);
  c.received_ratio.add(2.75);
  c.trials = 5;
  c.failures = 2;
  c.timed_out = true;
  c.peak_memory_symbols = 12345;
  return c;
}

// ---------------------------------------------------------- fault points

TEST(RobustnessFault, RegisteredTableIsTheDocumentedTen) {
  const std::array<std::string_view, 10> expected = {
      "durable.write",  "durable.append",   "ledger.append",
      "trace.write",    "timeline.write",   "checkpoint.shard",
      "sweep.cell",     "arena.alloc",      "net.send",
      "net.recv",
  };
  EXPECT_EQ(fault::registered_points(), expected);
}

TEST(RobustnessFault, DormantPointNeverFires) {
  fault::disarm();
  for (std::string_view name : fault::registered_points())
    EXPECT_FALSE(fault::point(name));
}

TEST(RobustnessFault, ThrowKindFiresOnExactlyTheNthHit) {
  fault::arm("sweep.cell", 3, fault::Kind::kThrow);
  EXPECT_FALSE(fault::point("sweep.cell"));
  EXPECT_FALSE(fault::point("sweep.cell"));
  EXPECT_THROW((void)fault::point("sweep.cell"), fault::FaultInjected);
  // Past the ordinal the point goes dormant again — one fault per arming.
  EXPECT_FALSE(fault::point("sweep.cell"));
  // Other names never fire while a different point is armed.
  EXPECT_FALSE(fault::point("arena.alloc"));
  fault::disarm();
  EXPECT_FALSE(fault::point("sweep.cell"));
}

TEST(RobustnessFault, RearmResetsTheHitCounter) {
  fault::arm("arena.alloc", 2, fault::Kind::kShort);
  EXPECT_FALSE(fault::point("arena.alloc"));
  EXPECT_TRUE(fault::point("arena.alloc"));
  fault::arm("arena.alloc", 2, fault::Kind::kShort);
  EXPECT_FALSE(fault::point("arena.alloc"));
  EXPECT_TRUE(fault::point("arena.alloc"));
  fault::disarm();
}

TEST(RobustnessFault, ArmRejectsUnregisteredNameAndZeroOrdinal) {
  EXPECT_THROW(fault::arm("no.such.point", 1), std::invalid_argument);
  EXPECT_THROW(fault::arm("sweep.cell", 0), std::invalid_argument);
  EXPECT_FALSE(fault::point("sweep.cell"));  // failed arm leaves it dormant
}

TEST(RobustnessFault, SpecGrammarErrorsAreNamed) {
  EXPECT_THROW(fault::arm_from_spec("sweep.cell"), std::invalid_argument);
  EXPECT_THROW(fault::arm_from_spec("sweep.cell:"), std::invalid_argument);
  EXPECT_THROW(fault::arm_from_spec("sweep.cell:x"), std::invalid_argument);
  EXPECT_THROW(fault::arm_from_spec("sweep.cell:1:boom"),
               std::invalid_argument);
  EXPECT_THROW(fault::arm_from_spec("no.such.point:1"), std::invalid_argument);
  fault::arm_from_spec("arena.alloc:1:short");
  EXPECT_TRUE(fault::point("arena.alloc"));
  fault::disarm();
}

// ------------------------------------------------------------ durable IO

TEST(RobustnessDurable, WriteFileReplacesWholeContentAndLeavesNoTemp) {
  const std::string path = tmp_path("durable_write");
  durable::write_file(path, "first version\n");
  durable::write_file(path, "second version\n");
  EXPECT_EQ(read_file(path), "second version\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp." +
                                       std::to_string(::getpid())));
}

TEST(RobustnessDurable, AppendLineAddsNewlineTerminatedRecords) {
  const std::string path = tmp_path("durable_append");
  std::filesystem::remove(path);
  durable::append_line(path, "{\"a\":1}");
  durable::append_line(path, "{\"b\":2}");
  EXPECT_EQ(read_file(path), "{\"a\":1}\n{\"b\":2}\n");
}

TEST(RobustnessDurable, ShortFaultTearsExactlyTheTailOfTheFinalAppend) {
  const std::string path = tmp_path("torn_append");
  std::filesystem::remove(path);
  const std::string intact = "{\"ok\":1}";
  durable::append_line(path, intact);
  const std::string line = "{\"ok\":2,\"padding\":\"xxxxxxxxxxxx\"}";
  const int rc = run_in_child([&] {
    fault::arm("durable.append", 1, fault::Kind::kShort);
    durable::append_line(path, line);
  });
  EXPECT_EQ(rc, fault::kExitCode);
  // tear_and_die wrote half of (line + '\n'): the earlier record is
  // intact, the torn tail has no final newline — the exact shape
  // obs::load_ledger's tolerant mode is specified against.
  const std::string text = read_file(path);
  EXPECT_EQ(text.size(), intact.size() + 1 + (line.size() + 1) / 2);
  EXPECT_EQ(text.substr(0, intact.size() + 1), intact + "\n");
  EXPECT_NE(text.back(), '\n');
}

TEST(RobustnessDurable, ShortFaultOnWriteFileLeavesTruncatedPrefix) {
  const std::string path = tmp_path("torn_write");
  std::filesystem::remove(path);
  const std::string content = "line one\nline two\nline three\n";
  const int rc = run_in_child([&] {
    fault::arm("durable.write", 1, fault::Kind::kShort);
    durable::write_file(path, content);
  });
  EXPECT_EQ(rc, fault::kExitCode);
  EXPECT_EQ(read_file(path), content.substr(0, content.size() / 2));
}

// ------------------------------------------------------------ checkpoint

TEST(RobustnessCheckpoint, ShardPathCarriesFingerprintAndCell) {
  EXPECT_EQ(api::shard_path("/d", "fnv1a:0011223344556677", 3),
            "/d/0011223344556677.cell3.json");
}

TEST(RobustnessCheckpoint, ShardRoundTripIsBitExact) {
  const CellResult c = sample_cell();
  const std::string fp = "fnv1a:0123456789abcdef";
  const std::string text = api::shard_json(fp, 7, c, 5);
  const CellResult r = api::cell_from_shard(text, fp, 7, 5);
  expect_same_cell(c, r);
  // Re-serializing the parse reproduces the shard byte-for-byte.
  EXPECT_EQ(api::shard_json(fp, 7, r, 5), text);
}

TEST(RobustnessCheckpoint, ZeroCountAccumulatorRoundTrips) {
  // All trials failed: inefficiency has n == 0 and min/max are +-inf,
  // which JSON cannot carry — the shard stores {"n":0} and restore()
  // rebuilds the untouched accumulator.
  CellResult c;
  c.p = 1.0;
  c.q = 0.5;
  c.received_ratio.add(3.0);
  c.received_ratio.add(3.5);
  c.trials = 2;
  c.failures = 2;
  const std::string fp = "fnv1a:00000000000000aa";
  const std::string text = api::shard_json(fp, 0, c, 2);
  const CellResult r = api::cell_from_shard(text, fp, 0, 2);
  expect_same_cell(c, r);
  EXPECT_EQ(api::shard_json(fp, 0, r, 2), text);
}

TEST(RobustnessCheckpoint, ShardValidationRejectsEveryWrongIdentity) {
  const CellResult c = sample_cell();
  const std::string fp = "fnv1a:0123456789abcdef";
  const std::string text = api::shard_json(fp, 7, c, 5);
  EXPECT_THROW((void)api::cell_from_shard("not json", fp, 7, 5),
               std::invalid_argument);
  EXPECT_THROW(
      (void)api::cell_from_shard(text, "fnv1a:ffffffffffffffff", 7, 5),
      std::invalid_argument);
  EXPECT_THROW((void)api::cell_from_shard(text, fp, 8, 5),
               std::invalid_argument);
  EXPECT_THROW((void)api::cell_from_shard(text, fp, 7, 6),
               std::invalid_argument);
}

TEST(RobustnessCheckpoint, TryLoadShardDegradesToRecompute) {
  const std::string dir = tmp_path("shard_load");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CheckpointSpec ck;
  ck.dir = dir;
  const std::string fp = "fnv1a:0123456789abcdef";
  const CellResult c = sample_cell();

  // Absent file: plain nullopt, no warning.
  EXPECT_FALSE(api::try_load_shard(ck, fp, 7, 5).has_value());

  // Valid shard loads.
  api::write_shard(ck, fp, 7, c, 5);
  const std::optional<CellResult> loaded = api::try_load_shard(ck, fp, 7, 5);
  ASSERT_TRUE(loaded.has_value());
  expect_same_cell(c, *loaded);

  // Corrupt body: warn + nullopt, never a throw.
  durable::write_file(api::shard_path(dir, fp, 7), "garbage{{{");
  EXPECT_FALSE(api::try_load_shard(ck, fp, 7, 5).has_value());

  // A foreign spec's shard parked at this spec's path (body keying): the
  // embedded fingerprint mismatches and the cell is recomputed.
  const std::string other = api::shard_json("fnv1a:ffffffffffffffff", 7, c, 5);
  durable::write_file(api::shard_path(dir, fp, 7), other);
  EXPECT_FALSE(api::try_load_shard(ck, fp, 7, 5).has_value());
}

TEST(RobustnessCheckpoint, KillAtEveryFaultPointThenResumeIsBitIdentical) {
  const ScenarioSpec spec = matrix_spec();
  const api::ScenarioSweepResult baseline = api::run_scenario_sweep(spec);
  ASSERT_TRUE(baseline.grid.has_value());

  for (std::string_view name : fault::registered_points()) {
    SCOPED_TRACE(std::string("fault point ") + std::string(name));
    std::string slug(name);
    for (char& ch : slug)
      if (ch == '.') ch = '-';
    const std::string dir = tmp_path("kill_" + slug);
    std::filesystem::remove_all(dir);

    RunControl control;
    control.checkpoint.dir = dir;
    const int rc = run_in_child([&] {
      // kExit, not kThrow: several points sit inside parallel sweep
      // workers where an escaping exception is std::terminate.
      fault::arm(name, 1, fault::Kind::kExit);
      (void)api::run_scenario_sweep(spec, control);
    });
    // 41 = the injected crash fired mid-sweep; 0 = this point is dormant
    // in the workload (e.g. ledger.append with no ledger configured) and
    // the child completed.  Either way resume must reproduce baseline.
    EXPECT_TRUE(rc == fault::kExitCode || rc == 0)
        << "child exit code " << rc;

    RunControl resume = control;
    resume.checkpoint.resume = true;
    const api::ScenarioSweepResult resumed =
        api::run_scenario_sweep(spec, resume);
    ASSERT_TRUE(resumed.grid.has_value());
    expect_same_grid(*baseline.grid, *resumed.grid);
  }
}

TEST(RobustnessCheckpoint, CorruptShardOnResumeRecomputesAndRewrites) {
  const ScenarioSpec spec = matrix_spec();
  const std::string fp = api::scenario_fingerprint(spec);
  const std::string dir = tmp_path("corrupt_resume");
  std::filesystem::remove_all(dir);

  const api::ScenarioSweepResult baseline = api::run_scenario_sweep(spec);
  ASSERT_TRUE(baseline.grid.has_value());

  RunControl control;
  control.checkpoint.dir = dir;
  const api::ScenarioSweepResult first = api::run_scenario_sweep(spec, control);
  ASSERT_TRUE(first.grid.has_value());
  expect_same_grid(*baseline.grid, *first.grid);

  // Vandalize two shards: one malformed, one truncated mid-document.
  const std::string valid = read_file(api::shard_path(dir, fp, 1));
  durable::write_file(api::shard_path(dir, fp, 1),
                      valid.substr(0, valid.size() / 2));
  durable::write_file(api::shard_path(dir, fp, 2), "garbage{{{");

  // Plant the temp shards a writer killed mid-write leaves behind, one of
  // this spec and one of another, named for a pid that has exited, and
  // one of this spec whose writer (this process) is alive.  Cell 0 is
  // restored, not rewritten, so the resume itself never writes its temp.
  std::fflush(nullptr);
  const pid_t dead = ::fork();
  if (dead == 0) ::_exit(0);
  ASSERT_GT(dead, 0);
  ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);
  const std::string stale = ".tmp." + std::to_string(dead);
  const std::string own_temp = api::shard_path(dir, fp, 1) + stale;
  const std::string foreign_temp =
      api::shard_path(dir, "fnv1a:ffffffffffffffff", 1) + stale;
  const std::string live_temp =
      api::shard_path(dir, fp, 0) + ".tmp." + std::to_string(::getpid());
  for (const std::string& temp : {own_temp, foreign_temp, live_temp})
    durable::write_file(temp, "{\"checkpoint\"");

  RunControl resume = control;
  resume.checkpoint.resume = true;
  const api::ScenarioSweepResult resumed =
      api::run_scenario_sweep(spec, resume);
  ASSERT_TRUE(resumed.grid.has_value());
  expect_same_grid(*baseline.grid, *resumed.grid);

  // The recomputed cells were re-checkpointed with valid shards.
  EXPECT_TRUE(api::try_load_shard(control.checkpoint, fp, 1, spec.run.trials)
                  .has_value());
  EXPECT_TRUE(api::try_load_shard(control.checkpoint, fp, 2, spec.run.trials)
                  .has_value());
  // Resume removed this spec's stale temp shard, and neither another
  // spec's nor a live writer's.
  EXPECT_FALSE(std::filesystem::exists(own_temp));
  EXPECT_TRUE(std::filesystem::exists(foreign_temp));
  EXPECT_TRUE(std::filesystem::exists(live_temp));
}

// -------------------------------------------------------------- watchdog

TEST(RobustnessWatchdog, PollThrowsPastAnArmedDeadline) {
  {
    const watchdog::TrialGuard guard(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_THROW(watchdog::poll(), watchdog::TrialTimeout);
  }
  EXPECT_NO_THROW(watchdog::poll());  // guard gone: dormant again
  {
    const watchdog::TrialGuard unarmed(0);  // 0 arms nothing
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_NO_THROW(watchdog::poll());
  }
}

TEST(RobustnessWatchdog, ExpiredTrialBecomesTimedOutCellStatus) {
  GridSpec grid;
  grid.p_values = {0.0, 1.0};
  grid.q_values = {1.0};
  GridRunOptions opt;
  opt.trials_per_cell = 2;
  opt.threads = 1;
  opt.trial_timeout_ms = 1;
  const TrialFn fn = [](double p, double, std::uint64_t) {
    if (p > 0.5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      watchdog::poll();  // the phase-boundary poll a real trial makes
    }
    TrialResult r;
    r.decoded = true;
    r.n_needed = 10;
    r.n_received = 12;
    r.n_sent = 15;
    return r;
  };
  const GridResult result = run_grid(grid, 10, fn, opt);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_TRUE(result.cells[0].reportable());
  EXPECT_FALSE(result.cells[0].timed_out);
  // The wedged cell: both trials hit the deadline, counted as failures,
  // and the cell carries the explicit status instead of hanging.
  EXPECT_EQ(result.cells[1].trials, 2u);
  EXPECT_EQ(result.cells[1].failures, 2u);
  EXPECT_TRUE(result.cells[1].timed_out);
  EXPECT_FALSE(result.cells[1].reportable());
}

// ---------------------------------------------------------------- ledger

TEST(RobustnessLedger, TornTrailingLineToleratedUnlessStrict) {
  const std::string path = tmp_path("torn_ledger");
  std::filesystem::remove(path);
  obs::LedgerRecord r;
  r.kind = "run";
  r.label = "robustness";
  r.manifest.fingerprint = "fnv1a:00112233aabbccdd";
  r.manifest.version = std::string(api::kVersion);
  r.manifest.gf_backend = "scalar";
  r.manifest.engine = "grid";
  r.manifest.threads = 1;
  r.manifest.hardware_threads = 8;
  r.manifest.wall_seconds = 0.5;
  r.manifest.started_at = "2026-08-07T10:00:00Z";
  r.manifest.hostname = "hostA";
  obs::append_record(path, r);
  {
    // A crash mid-append: a torn tail with no final newline.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"torn";
  }
  const std::vector<obs::LedgerRecord> tolerated = obs::load_ledger(path);
  ASSERT_EQ(tolerated.size(), 1u);
  EXPECT_EQ(tolerated[0].label, "robustness");
  EXPECT_THROW((void)obs::load_ledger(path, /*strict=*/true),
               std::invalid_argument);

  // A torn line MID-file (a newline follows it) is never tolerated: only
  // the crash signature — one trailing unterminated record — is.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "\n";
  }
  EXPECT_THROW((void)obs::load_ledger(path), std::invalid_argument);
}

// ------------------------------------------------------------- interrupt

TEST(RobustnessInterrupt, GuardLatchesSignalAndScopesTheFlag) {
  {
    const interrupt::InterruptGuard guard;
    EXPECT_FALSE(interrupt::interrupted());
    ::raise(SIGINT);  // flag-only handler: latches, does not kill
    EXPECT_TRUE(interrupt::interrupted());
  }
  interrupt::reset();
  EXPECT_FALSE(interrupt::interrupted());
}

// A signal that arrived before the run drains the adaptive engine before
// its first point, on the run_scenario path as on the sweep path.
TEST(RobustnessInterrupt, AdaptiveRunStartsNoPointAfterSignal) {
  api::ScenarioSpec spec;
  spec.engine = "adaptive";
  spec.code.k = 200;
  spec.adapt.objects = 4;
  spec.adapt.warmup = 1;
  spec.sweep.p_globals = {0.02, 0.05, 0.1};
  spec.sweep.bursts = {2.0};
  api::ScenarioResult result;
  {
    const interrupt::InterruptGuard guard;
    ::raise(SIGINT);
    result = api::run_scenario(spec);
  }
  interrupt::reset();
  ASSERT_EQ(result.adaptive.size(), 3u);
  for (const AdaptiveComparePoint& point : result.adaptive)
    EXPECT_TRUE(point.trajectory.empty());
}

}  // namespace
}  // namespace fecsched
