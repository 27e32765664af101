// Shared plumbing for the figure/table regeneration benches.
//
// Every bench accepts:
//   --paper           exact paper scale (k = 20000, 100 trials/cell)
//   --k=<N>           override object size
//   --trials=<N>      override trials per grid cell
//   --seed=<N>        override the master seed
//   --threads=<N>     override the sweep worker-thread count
//                     (0 = one per hardware thread; results are
//                     thread-count independent either way)
//   --ledger=<file>   append a kind="bench" provenance record to the
//                     JSONL run ledger (obs/ledger.h) on completion;
//                     FECSCHED_LEDGER is the flagless equivalent
// or the environment variable FECSCHED_PAPER=1 for paper scale.  A
// numeric value must be a whole unsigned decimal that fits its field;
// anything else exits 2 naming the flag.
// The default scale (k = 4000, 30 trials) keeps every bench in the
// seconds range while preserving every qualitative shape; the top-level
// EXPERIMENTS.md records results at both scales.

#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "api/scenario.h"
#include "flute/fdt.h"
#include "gf/gf256_kernels.h"
#include "obs/ledger.h"
#include "obs/manifest.h"
#include "obs/memwatch.h"
#include "sim/experiment.h"
#include "sim/grid.h"
#include "sim/table_io.h"
#include "util/parallel.h"

namespace fecsched::bench {

/// Scale knobs resolved from argv/environment.
struct Scale {
  std::uint32_t k = 4000;
  std::uint32_t trials = 30;
  std::uint64_t seed = 0x5eedf00dULL;
  unsigned threads = 0;  ///< sweep workers; 0 = one per hardware thread
  bool paper = false;
  std::string ledger;  ///< JSONL run-ledger path; "" = no provenance record
};

/// If `arg` is `<flag>=<value>`, parses the whole value as an unsigned
/// decimal that fits in T into `out` and returns true.  A sign, trailing
/// characters or a value too wide for T exits 2 naming the flag, rather
/// than running with a silently truncated or wrapped value.
template <typename T>
bool parse_uint_flag(const std::string& arg, std::string_view flag, T& out) {
  if (arg.size() <= flag.size() || arg.compare(0, flag.size(), flag) != 0 ||
      arg[flag.size()] != '=')
    return false;
  const char* first = arg.data() + flag.size() + 1;
  const char* last = arg.data() + arg.size();
  T v{};
  const auto [end, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || end != last) {
    std::cerr << flag << ": expected an unsigned integer up to "
              << std::numeric_limits<T>::max() << ", got '" << first << "'\n";
    std::exit(2);
  }
  out = v;
  return true;
}

/// If `arg` is `<flag>=<value>`, parses the whole value as a finite
/// decimal greater than zero into `out` and returns true.  Anything else
/// (trailing characters, a sign, zero, inf, nan, out of range) exits 2
/// naming the flag, as parse_uint_flag does.
inline bool parse_positive_flag(const std::string& arg, std::string_view flag,
                                double& out) {
  if (arg.size() <= flag.size() || arg.compare(0, flag.size(), flag) != 0 ||
      arg[flag.size()] != '=')
    return false;
  const char* first = arg.data() + flag.size() + 1;
  const char* last = arg.data() + arg.size();
  double v = 0.0;
  const auto [end, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || end != last || !std::isfinite(v) || v <= 0.0) {
    std::cerr << flag << ": expected a finite number greater than 0, got '"
              << first << "'\n";
    std::exit(2);
  }
  out = v;
  return true;
}

inline Scale parse_scale(int argc, char** argv) {
  Scale s;
  const char* env = std::getenv("FECSCHED_PAPER");
  if (env != nullptr && std::strcmp(env, "0") != 0) s.paper = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--paper")
      s.paper = true;
    else if (arg.rfind("--ledger=", 0) == 0)
      s.ledger = arg.substr(9);
    else  // other flags belong to the bench's own parser
      parse_uint_flag(arg, "--k", s.k) ||
          parse_uint_flag(arg, "--trials", s.trials) ||
          parse_uint_flag(arg, "--seed", s.seed) ||
          parse_uint_flag(arg, "--threads", s.threads);
  }
  if (s.ledger.empty()) {
    const char* ledger_env = std::getenv(std::string(obs::kLedgerEnv).c_str());
    if (ledger_env != nullptr && *ledger_env != '\0') s.ledger = ledger_env;
  }
  if (s.paper) {
    s.k = 20000;
    s.trials = 100;
  }
  return s;
}

inline GridRunOptions run_options(const Scale& s) {
  GridRunOptions opt;
  opt.trials_per_cell = s.trials;
  opt.master_seed = s.seed;
  opt.threads = s.threads;
  return opt;
}

/// Evaluate fn(0), ..., fn(count-1) across `threads` workers (0 = one per
/// hardware thread) and return the results indexed by argument.  `fn` must
/// be thread-safe and fully determined by its argument.  Because callers
/// aggregate the returned vector in index order, every printed digit is
/// identical to a serial run — this is how the grid-style benches that
/// hand-roll their trial loops honour the shared --threads flag.  The
/// pool itself is util/parallel's parallel_for_index.
template <typename Fn>
auto parallel_map(std::uint32_t count, unsigned threads, Fn&& fn)
    -> std::vector<decltype(fn(std::uint32_t{0}))> {
  std::vector<decltype(fn(std::uint32_t{0}))> results(count);
  parallel_for_index(count, threads, [&](std::size_t i) {
    results[i] = fn(static_cast<std::uint32_t>(i));
  });
  return results;
}

/// Minimal streaming JSON emitter for the benches' machine-readable
/// outputs (e.g. bench_codec_speed --json): objects, arrays, string /
/// number / bool values with automatic comma placement.  Strings escape
/// quotes, backslashes and control characters (below 0x20, as JSON
/// unicode escapes).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(const std::string& name) {
    comma();
    write_string(name);
    out_ << ':';
    pending_value_ = true;
    return *this;
  }
  JsonWriter& value(const std::string& v) {
    comma();
    write_string(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(double v) {
    comma();
    // NaN/Inf are not JSON; emit null so downstream parsers keep working.
    // Finite values go through the shortest-round-trip formatter so bench
    // JSON carries full precision (ostream defaults to 6 significant
    // digits, which silently truncates throughput numbers).
    if (std::isfinite(v))
      out_ << api::Json::format_double(v);
    else
      out_ << "null";
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    comma();
    out_ << v;
    return *this;
  }
  JsonWriter& value(bool v) {
    comma();
    out_ << (v ? "true" : "false");
    return *this;
  }

 private:
  JsonWriter& open(char c) {
    comma();
    out_ << c;
    need_comma_.push_back(false);
    return *this;
  }
  JsonWriter& close(char c) {
    out_ << c;
    need_comma_.pop_back();
    return *this;
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;  // the value right after a key
      return;
    }
    if (!need_comma_.empty()) {
      if (need_comma_.back()) out_ << ',';
      need_comma_.back() = true;
    }
  }
  void write_string(const std::string& s) {
    out_ << '"';
    for (const char c : s) {
      const auto u = static_cast<unsigned char>(c);
      if (u < 0x20) {  // raw control characters are not legal in JSON
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", u);
        out_ << buf;
        continue;
      }
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << c;
    }
    out_ << '"';
  }

  std::ostream& out_;
  std::vector<bool> need_comma_;
  bool pending_value_ = false;
};

/// Emit the shared `"manifest"` block of a bench --json document: which
/// code (api version), which GF(256) backend, and how many threads the
/// numbers were produced with.  Mirrors the run-manifest fields that are
/// attribution rather than measurement, so bench JSON carries the same
/// provenance vocabulary as `fecsched_cli ... --json`.
inline void write_manifest_block(JsonWriter& json, unsigned threads) {
  json.key("manifest").begin_object();
  json.key("api").value(std::string(api::kVersion));
  json.key("gf").value(std::string(gf::to_string(gf::current_backend())));
  json.key("threads").value(std::uint64_t{threads});
  json.key("hardware_threads")
      .value(std::uint64_t{std::thread::hardware_concurrency()});
  json.end_object();
}

/// A kind="bench" ledger record.  The fingerprint hashes the bench's
/// identity knobs (name + scale), not a scenario spec, so re-runs of the
/// same bench at the same scale land under one ledger key and
/// `fecsched_cli compare` watches their wall time; metrics stay empty, so
/// the bit-identity drift check never fires on bench noise.
inline obs::LedgerRecord make_bench_record(const std::string& name,
                                           const Scale& s, unsigned threads,
                                           double wall_seconds,
                                           api::Json extra = api::Json()) {
  api::Json identity = api::Json::object();
  identity.set("bench", api::Json(name));
  identity.set("k", api::Json::integer(std::uint64_t{s.k}));
  identity.set("trials", api::Json::integer(std::uint64_t{s.trials}));
  identity.set("seed", api::Json::integer(s.seed));

  obs::LedgerRecord record;
  record.kind = "bench";
  record.label = name;
  record.manifest.fingerprint = obs::spec_fingerprint(identity.dump(0));
  record.manifest.version = std::string(api::kVersion);
  record.manifest.gf_backend =
      std::string(gf::to_string(gf::current_backend()));
  record.manifest.engine = "bench";
  record.manifest.threads = threads;
  record.manifest.hardware_threads = std::thread::hardware_concurrency();
  record.manifest.wall_seconds = wall_seconds;
  record.manifest.started_at =
      obs::iso8601_utc(std::chrono::system_clock::now());
  record.manifest.hostname = obs::local_hostname();
  record.manifest.max_rss_kb = obs::max_rss_kb();
  record.extra = std::move(extra);
  return record;
}

/// Append a bench provenance record when the scale carries a ledger path
/// (--ledger= / FECSCHED_LEDGER); with no ledger configured this is free.
inline void append_bench_record(const Scale& s, const std::string& name,
                                unsigned threads, double wall_seconds,
                                api::Json extra = api::Json()) {
  if (s.ledger.empty()) return;
  obs::append_record(
      s.ledger, make_bench_record(name, s, threads, wall_seconds,
                                  std::move(extra)));
}

inline void print_banner(const std::string& title, const Scale& s) {
  std::cout << "==================================================================\n"
            << title << "\n"
            << "k = " << s.k << " source packets, " << s.trials
            << " trials per (p, q) cell"
            << (s.paper ? " [paper scale]" : " [default scale; --paper for k=20000/100]")
            << "\n"
            << "==================================================================\n";
}

/// Run one experiment sweep and print it in the paper's appendix format.
inline GridResult run_and_print(const ExperimentConfig& cfg,
                                const GridSpec& spec, const Scale& s,
                                const std::string& caption,
                                bool print_received_ratio = false) {
  const Experiment experiment(cfg);
  const GridResult grid = experiment.run(spec, run_options(s));
  TableOptions topt;
  topt.caption = caption;
  std::cout << "\n";
  write_paper_table(std::cout, grid, topt);
  if (print_received_ratio) {
    std::cout << "\n# n_received/k ceiling for the same sweep ('-' never "
                 "printed: counts all trials)\n";
    GridResult ceiling = grid;
    for (auto& cell : ceiling.cells) {
      cell.inefficiency = cell.received_ratio;
      cell.failures = 0;  // the ceiling exists for failed trials too
    }
    write_paper_table(std::cout, ceiling, {});
  }
  return grid;
}

inline ExperimentConfig make_config(CodeKind code, TxModel tx, double ratio,
                                    const Scale& s) {
  ExperimentConfig cfg;
  cfg.code = code;
  cfg.tx = tx;
  cfg.expansion_ratio = ratio;
  cfg.k = s.k;
  return cfg;
}

/// Scenario-API equivalent of make_config + run_options: one paper-grid
/// sweep as a declarative spec (registry names via the FLUTE wire names).
inline api::ScenarioSpec make_grid_spec(CodeKind code, TxModel tx,
                                        double ratio, const Scale& s) {
  api::ScenarioSpec spec;
  spec.engine = "grid";
  spec.code.name = flute::code_wire_name(code);
  spec.code.ratio = ratio;
  spec.code.k = s.k;
  spec.tx.model = "tx" + std::to_string(static_cast<int>(tx));
  spec.run.trials = s.trials;
  spec.run.seed = s.seed;
  spec.run.threads = s.threads;
  spec.sweep.grid = "paper";
  return spec;
}

/// Scenario-API sweep-and-print: identical rendering to the
/// ExperimentConfig overload above (the grid engine reuses
/// Experiment::run, so every digit matches).
inline GridResult run_and_print(const api::ScenarioSpec& spec,
                                const std::string& caption,
                                bool print_received_ratio = false) {
  GridResult grid = *api::run_scenario_sweep(spec).grid;
  TableOptions topt;
  topt.caption = caption;
  std::cout << "\n";
  write_paper_table(std::cout, grid, topt);
  if (print_received_ratio) {
    std::cout << "\n# n_received/k ceiling for the same sweep ('-' never "
                 "printed: counts all trials)\n";
    GridResult ceiling = grid;
    for (auto& cell : ceiling.cells) {
      cell.inefficiency = cell.received_ratio;
      cell.failures = 0;  // the ceiling exists for failed trials too
    }
    write_paper_table(std::cout, ceiling, {});
  }
  return grid;
}

}  // namespace fecsched::bench
