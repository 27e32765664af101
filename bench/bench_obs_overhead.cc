// bench_obs_overhead: price the observability layer (src/obs/).
//
// Six variants of the same grid-trial workload — identical schedules,
// channel seeds and trackers — replayed at one Gilbert point:
//
//   baseline   the pre-obs hot loop: run_trial's dormant instantiation
//              (the replay loop with every hook compiled away) called
//              directly, no TrialScope, no Hook
//   disabled   the product per-trial path with no session armed:
//              TrialScope + dormant Hook + the engaged() branch into
//              run_trial (what every un-flagged run pays today)
//   enabled    a metrics session armed: TrialScope + engaged Hook into
//              run_trial's observed instantiation (what --metrics costs)
//   profile    metrics + profiling session (what plain --profile costs:
//              the grid trial's channel_draw and decode timed per pass,
//              other per-packet phases on one call in 64, the rest
//              counted)
//   timeline   metrics + profiling + span-ring session (what
//              --timeline-out costs: every phase/trial pushes a span)
//   counters   metrics + profiling + perf-group session (what --counters
//              costs: a counter-group read around every phase; on hosts
//              without perf_event_open the read degrades to the stub)
//
// Samples are interleaved (every variant once per round) and
// time-batched to >= 25 ms so scheduler noise averages out; the reported
// figure is the median ns/trial.  Baseline and disabled run as nine
// back-to-back pairs per round, alternating which goes first, and the
// dormant cost is also reported paired: the median over all pairs of
// disabled ÷ baseline − 1.
// All variants must produce bit-identical TrialResults — observation
// never changes a result.
//
//   --check       exit 1 unless the paired disabled-vs-baseline overhead
//                 is < 2% and the profile row costs <= 1.5x baseline
//   --k, --trials, --seed as in bench_common.h (one cell, not a grid)

#include <algorithm>
#include <chrono>
#include <memory>

#include "bench_common.h"
#include "channel/gilbert.h"
#include "obs/obs.h"
#include "sim/trial.h"
#include "util/rng.h"

namespace {

using namespace fecsched;

constexpr double kP = 0.01;
constexpr double kQ = 0.5;
// --check budget for plain --profile, as a multiple of the pre-obs loop.
constexpr double kProfileBudgetX = 1.5;
// Mirrors the (schedule, channel) seed-path tags of Experiment::run_once;
// only sameness across variants matters here, not the exact stream.
constexpr std::uint64_t kTagChannel = 2;

using Clock = std::chrono::steady_clock;

struct Workload {
  std::vector<std::vector<PacketId>> schedules;  // one per trial
  std::vector<std::uint64_t> channel_seeds;
  std::unique_ptr<ErasureTracker> tracker;  // reset() per trial
  std::uint32_t k = 0;
};

enum class Mode { kBaseline, kDisabled, kEnabled };

std::vector<TrialResult> replay(const Workload& w, Mode mode) {
  std::vector<TrialResult> results;
  results.reserve(w.schedules.size());
  for (std::size_t t = 0; t < w.schedules.size(); ++t) {
    w.tracker->reset();
    GilbertModel channel(kP, kQ);
    channel.reset(w.channel_seeds[t]);
    if (mode == Mode::kBaseline) {
      // Pre-obs hot loop, verbatim.
      results.push_back(run_trial(*w.tracker, w.schedules[t], channel));
    } else {
      // Product per-trial path (sim/grid.cc + Experiment::run_once).
      const obs::TrialScope scope(t);
      const obs::Hook hook;
      if (hook.engaged())
        results.push_back(
            run_trial(*w.tracker, w.schedules[t], channel, w.k, hook));
      else
        results.push_back(run_trial(*w.tracker, w.schedules[t], channel));
    }
  }
  return results;
}

/// One time-batched sample: >= `reps` replays, returns ns per trial.
double sample(const Workload& w, Mode mode, std::uint32_t reps) {
  const Clock::time_point t0 = Clock::now();
  for (std::uint32_t r = 0; r < reps; ++r) {
    const std::vector<TrialResult> results = replay(w, mode);
    if (results.empty()) std::abort();  // keep the optimizer honest
  }
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  return ns / (static_cast<double>(reps) *
               static_cast<double>(w.schedules.size()));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

bool same_results(const std::vector<TrialResult>& a,
                  const std::vector<TrialResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].decoded != b[i].decoded || a[i].n_needed != b[i].n_needed ||
        a[i].n_received != b[i].n_received || a[i].n_sent != b[i].n_sent ||
        a[i].peak_memory_symbols != b[i].peak_memory_symbols)
      return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto bench_t0 = Clock::now();
  const bench::Scale scale = bench::parse_scale(argc, argv);
  bool check = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--check") check = true;

  ExperimentConfig cfg;
  cfg.k = scale.paper ? 4000 : scale.k;
  cfg.graph_count = 1;  // single LDGM graph -> one reusable tracker
  const Experiment experiment(cfg);

  Workload w;
  w.k = cfg.k;
  for (std::uint32_t t = 0; t < scale.trials; ++t) {
    const std::uint64_t seed = derive_seed(scale.seed, {0, t});
    w.schedules.push_back(experiment.new_schedule(seed));
    w.channel_seeds.push_back(derive_seed(seed, {kTagChannel}));
  }
  w.tracker = experiment.new_tracker(derive_seed(scale.seed, {0, 0}));

  // Observation must never change a result: compare all six variants
  // trial by trial before timing anything.
  const std::vector<TrialResult> expect = replay(w, Mode::kBaseline);
  bool identical = same_results(expect, replay(w, Mode::kDisabled));
  {
    const obs::Config obs_cfg{.metrics = true};
    const obs::Session session(obs_cfg);
    identical = identical && same_results(expect, replay(w, Mode::kEnabled));
  }
  {
    const obs::Config obs_cfg{.metrics = true, .profile = true};
    const obs::Session session(obs_cfg);
    identical = identical && same_results(expect, replay(w, Mode::kEnabled));
  }
  {
    const obs::Config obs_cfg{.metrics = true, .profile = true,
                              .timeline = true};
    const obs::Session session(obs_cfg);
    identical = identical && same_results(expect, replay(w, Mode::kEnabled));
  }
  {
    const obs::Config obs_cfg{.metrics = true, .profile = true,
                              .counters = true};
    const obs::Session session(obs_cfg);
    identical = identical && same_results(expect, replay(w, Mode::kEnabled));
  }
  if (!identical) {
    std::cout << "FAIL: TrialResults differ across obs modes\n";
    return 1;
  }

  // Calibrate the batch size so one sample spans >= 25 ms.
  const double probe_ns = sample(w, Mode::kBaseline, 1) *
                          static_cast<double>(w.schedules.size());
  const auto reps = static_cast<std::uint32_t>(
      std::max(1.0, 25e6 / std::max(probe_ns, 1.0)));

  constexpr int kSamples = 9;
  // The 2% dormant gate reads a difference well inside one sample's
  // noise, so it takes nine pairs per round where the other rows take
  // one sample.
  constexpr int kPairsPerRound = 9;
  std::vector<double> base_ns, off_ns, on_ns, prof_ns, tl_ns, ctr_ns;
  std::vector<double> off_paired;  // per pair: disabled ÷ baseline − 1
  for (int s = 0; s < kSamples; ++s) {
    // Both rows call the same run_trial, so sample order and host drift
    // are most of what separates them: take them back to back and swap
    // which goes first each pair.
    for (int pair = 0; pair < kPairsPerRound; ++pair) {
      if ((s * kPairsPerRound + pair) % 2 == 0) {
        base_ns.push_back(sample(w, Mode::kBaseline, reps));
        off_ns.push_back(sample(w, Mode::kDisabled, reps));
      } else {
        off_ns.push_back(sample(w, Mode::kDisabled, reps));
        base_ns.push_back(sample(w, Mode::kBaseline, reps));
      }
      off_paired.push_back(off_ns.back() / base_ns.back() - 1.0);
    }
    {
      const obs::Config obs_cfg{.metrics = true};
      const obs::Session session(obs_cfg);
      on_ns.push_back(sample(w, Mode::kEnabled, reps));
    }
    {
      const obs::Config obs_cfg{.metrics = true, .profile = true};
      const obs::Session session(obs_cfg);
      prof_ns.push_back(sample(w, Mode::kEnabled, reps));
    }
    {
      const obs::Config obs_cfg{.metrics = true, .profile = true,
                                .timeline = true};
      const obs::Session session(obs_cfg);
      tl_ns.push_back(sample(w, Mode::kEnabled, reps));
    }
    {
      const obs::Config obs_cfg{.metrics = true, .profile = true,
                                .counters = true};
      const obs::Session session(obs_cfg);
      ctr_ns.push_back(sample(w, Mode::kEnabled, reps));
    }
  }

  const double base = median(base_ns);
  const double off = median(off_ns);
  const double on = median(on_ns);
  const double prof = median(prof_ns);
  const double tl = median(tl_ns);
  const double ctr = median(ctr_ns);
  const double off_overhead = (off - base) / base;
  const double off_overhead_paired = median(off_paired);
  const double on_overhead = (on - base) / base;
  const double prof_x = prof / base;
  const double tl_overhead = (tl - base) / base;
  const double ctr_overhead = (ctr - base) / base;

  std::cout << "obs overhead @ (p=" << kP << ", q=" << kQ << "), k=" << cfg.k
            << ", " << scale.trials << " trials/batch, " << reps
            << " reps/sample, " << kSamples << " samples, "
            << kSamples * kPairsPerRound << " baseline/disabled pairs\n";
  std::cout << "  baseline (pre-obs loop):   " << base << " ns/trial\n";
  std::cout << "  obs disabled (product):    " << off << " ns/trial  ("
            << off_overhead * 100.0 << "% vs baseline, "
            << off_overhead_paired * 100.0 << "% paired)\n";
  std::cout << "  obs enabled (--metrics):   " << on << " ns/trial  ("
            << on_overhead * 100.0 << "% vs baseline)\n";
  std::cout << "  obs enabled (--profile):   " << prof << " ns/trial  ("
            << prof_x << "x baseline)\n";
  std::cout << "  obs enabled (timeline):    " << tl << " ns/trial  ("
            << tl_overhead * 100.0 << "% vs baseline)\n";
  std::cout << "  obs enabled (counters):    " << ctr << " ns/trial  ("
            << ctr_overhead * 100.0 << "% vs baseline)\n";

  api::Json extra = api::Json::object();
  extra.set("baseline_ns_per_trial", api::Json::number_token(std::to_string(base)));
  extra.set("disabled_ns_per_trial", api::Json::number_token(std::to_string(off)));
  extra.set("enabled_ns_per_trial", api::Json::number_token(std::to_string(on)));
  extra.set("disabled_overhead", api::Json::number_token(std::to_string(off_overhead)));
  extra.set("disabled_overhead_paired",
            api::Json::number_token(std::to_string(off_overhead_paired)));
  extra.set("enabled_overhead", api::Json::number_token(std::to_string(on_overhead)));
  extra.set("profile_ns_per_trial", api::Json::number_token(std::to_string(prof)));
  extra.set("profile_x", api::Json::number_token(std::to_string(prof_x)));
  extra.set("timeline_ns_per_trial", api::Json::number_token(std::to_string(tl)));
  extra.set("timeline_overhead", api::Json::number_token(std::to_string(tl_overhead)));
  extra.set("counters_ns_per_trial", api::Json::number_token(std::to_string(ctr)));
  extra.set("counters_overhead", api::Json::number_token(std::to_string(ctr_overhead)));
  bench::append_bench_record(
      scale, "obs_overhead", /*threads=*/1,
      std::chrono::duration<double>(Clock::now() - bench_t0).count(),
      std::move(extra));

  if (check) {
    // The dormant-cost gate: with the timeline and counter collectors
    // compiled in, un-flagged runs must still pay < 2% over the pre-obs
    // loop, read as the paired median.  Plain --profile has its own
    // budget: at most 1.5x the pre-obs loop.  The timeline and counter
    // rows just have to exist and be measurable: they time every call by
    // design.
    if (off_overhead_paired >= 0.02) {
      std::cout << "CHECK FAIL: disabled-mode overhead (paired) "
                << off_overhead_paired * 100.0 << "% >= 2%\n";
      return 1;
    }
    if (prof_x > kProfileBudgetX) {
      std::cout << "CHECK FAIL: --profile costs " << prof_x << "x baseline > "
                << kProfileBudgetX << "x\n";
      return 1;
    }
    if (!(tl > 0.0) || !(ctr > 0.0)) {
      std::cout << "CHECK FAIL: timeline/counters rows not measured\n";
      return 1;
    }
    std::cout << "CHECK OK: disabled-mode overhead (paired) "
              << off_overhead_paired * 100.0 << "% < 2%, --profile "
              << prof_x << "x <= " << kProfileBudgetX << "x (timeline "
              << tl_overhead * 100.0 << "%, counters " << ctr_overhead * 100.0
              << "% when enabled)\n";
  }
  return 0;
}
