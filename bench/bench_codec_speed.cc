// Encoding/decoding speed (Sec. 6.2 / Sec. 7): "LDGM codes are an order
// of magnitude faster than RSE codes".  google-benchmark microbenchmarks
// of the real payload codecs; throughput is reported as bytes of source
// data processed per second.
//
// RSE operates per 255-packet block (GF(2^8) multiplications through the
// SIMD-dispatched kernel engine, gf/gf256_kernels.h); LDGM-* encodes the
// whole large block with XORs only.  RSE is timed through the
// zero-allocation encode_into / decode_into paths with a reused
// RseWorkspace, so no row times the allocator.
//
// Besides the google-benchmark mode, the bench has a machine-readable
// mode used by tools/ci.sh and EXPERIMENTS.md:
//
//   bench_codec_speed --json <out> [--check] [--min-time=SECONDS]
//
// measures gf256_addmul / gf256_addmul_batch / rse_encode / rse_decode /
// ldgm_encode on EVERY backend the host supports and writes throughput
// (bytes/s per op x backend) plus best-SIMD-over-scalar speedups as JSON
// (recorded as BENCH_codec_speed.json).  gf256_addmul_batch is the RSE
// encode shape — one parity row's 102 terms into one 1 KiB row — counted
// in bytes of addmul work, and it is the ceiling each RSE row is held
// to: an RSE row's roofline_fraction is its addmul work per second
// (encode: n-k addmuls per source byte; decode with e sources erased: e)
// divided by the batch rate.  Each backend's ops run in ten interleaved
// rounds: a rate is an op's median round, and ratios (floors, roofline
// fractions) are medians of round-by-round ratios, so a load change on a
// shared host moves both sides alike.  On hosts that grant perf_event_open
// (obs/perfctr.h) each row also carries cycles/byte and cache-miss/byte
// read from the hardware-counter group around the timed loop; elsewhere
// the "perf_counters" block records why they are absent.  --check
// enforces the perf acceptance criteria on SIMD-capable hosts (exit 1
// when violated): >= 4x addmul and >= 1.5x end-to-end RSE encode/decode
// for the best SIMD backend over scalar, and on every SIMD backend
// addmul_batch at least at the single-row addmul rate per byte and
// rse_encode at a roofline fraction of at least 0.7.  --min-time must
// be a finite number of seconds greater than 0 (else exit 2).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "fec/rse.h"
#include "fec/symbol_arena.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "obs/perfctr.h"
#include "util/rng.h"

namespace {

using namespace fecsched;

constexpr std::size_t kSymbolSize = 1024;

std::vector<std::vector<std::uint8_t>> random_symbols(std::uint32_t count,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> out(count);
  for (auto& s : out) {
    s.resize(kSymbolSize);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return out;
}

// ------------------------------------------------------------------ RSE

/// One RSE block laid out for the zero-allocation paths, with the worst
/// recoverable reception: as many sources lost as parity can repair, the
/// rest of the sources received verbatim.
struct RseBlock {
  RseBlock(std::uint32_t k, std::uint32_t n, std::uint64_t seed)
      : codec(k, n),
        source(random_symbols(k, seed)),
        parity(n - k, std::vector<std::uint8_t>(kSymbolSize)),
        decoded(k, std::vector<std::uint8_t>(kSymbolSize)),
        erased(std::min(n - k, k)) {
    for (const auto& s : source) source_rows.push_back(s.data());
    for (auto& p : parity) parity_rows.push_back(p.data());
    for (auto& d : decoded) decoded_rows.push_back(d.data());
    encode();
    for (std::uint32_t i = erased; i < k; ++i)
      received.push_back({i, source[i].data()});
    for (std::uint32_t i = 0; i < erased; ++i)
      received.push_back({k + i, parity[i].data()});
  }

  void encode() {
    codec.encode_into(source_rows.data(), kSymbolSize, parity_rows.data());
  }
  void decode() {
    codec.decode_into(received, kSymbolSize, decoded_rows.data(), workspace);
  }
  [[nodiscard]] std::uint64_t source_bytes() const {
    return std::uint64_t{codec.k()} * kSymbolSize;
  }

  RseCodec codec;
  std::vector<std::vector<std::uint8_t>> source, parity, decoded;
  std::uint32_t erased;
  std::vector<const std::uint8_t*> source_rows;
  std::vector<std::uint8_t*> parity_rows, decoded_rows;
  std::vector<ReceivedSymbol> received;
  RseWorkspace workspace;
};

void BM_RseEncodeBlock(benchmark::State& state) {
  RseBlock block(static_cast<std::uint32_t>(state.range(0)),
                 static_cast<std::uint32_t>(state.range(1)), 1);
  for (auto _ : state) {
    block.encode();
    benchmark::DoNotOptimize(block.parity_rows.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.source_bytes()));
}
BENCHMARK(BM_RseEncodeBlock)->Args({102, 255})->Args({170, 255});

void BM_RseDecodeBlock(benchmark::State& state) {
  RseBlock block(static_cast<std::uint32_t>(state.range(0)),
                 static_cast<std::uint32_t>(state.range(1)), 2);
  for (auto _ : state) {
    block.decode();
    benchmark::DoNotOptimize(block.decoded_rows.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.source_bytes()));
}
BENCHMARK(BM_RseDecodeBlock)->Args({102, 255})->Args({170, 255});

// ----------------------------------------------------------------- LDGM

LdgmParams ldgm_params(std::int64_t k, double ratio, LdgmVariant v) {
  LdgmParams p;
  p.k = static_cast<std::uint32_t>(k);
  p.n = static_cast<std::uint32_t>(static_cast<double>(k) * ratio);
  p.variant = v;
  p.seed = 7;
  return p;
}

void BM_LdgmEncode(benchmark::State& state) {
  const auto variant = static_cast<LdgmVariant>(state.range(1));
  const LdgmCode code(ldgm_params(state.range(0), 1.5, variant));
  const auto src = random_symbols(code.k(), 3);
  for (auto _ : state) {
    auto parity = code.encode(src);
    benchmark::DoNotOptimize(parity);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          code.k() * kSymbolSize);
}
BENCHMARK(BM_LdgmEncode)
    ->Args({1020, static_cast<int>(LdgmVariant::kStaircase)})
    ->Args({1020, static_cast<int>(LdgmVariant::kTriangle)})
    ->Args({20000, static_cast<int>(LdgmVariant::kStaircase)})
    ->Args({20000, static_cast<int>(LdgmVariant::kTriangle)});

void BM_LdgmDecode(benchmark::State& state) {
  const auto variant = static_cast<LdgmVariant>(state.range(1));
  const LdgmCode code(ldgm_params(state.range(0), 1.5, variant));
  const auto src = random_symbols(code.k(), 4);
  const auto parity = code.encode(src);
  // A realistic lossy reception order (random permutation).
  Rng rng(5);
  std::vector<PacketId> order(code.n());
  for (PacketId id = 0; id < code.n(); ++id) order[id] = id;
  shuffle(order, rng);
  for (auto _ : state) {
    PeelingDecoder d(code.matrix(), code.k(), kSymbolSize);
    for (const PacketId id : order) {
      d.add_packet(id, id < code.k() ? src[id] : parity[id - code.k()]);
      if (d.source_complete()) break;
    }
    benchmark::DoNotOptimize(d.source_complete());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          code.k() * kSymbolSize);
}
BENCHMARK(BM_LdgmDecode)
    ->Args({1020, static_cast<int>(LdgmVariant::kStaircase)})
    ->Args({1020, static_cast<int>(LdgmVariant::kTriangle)})
    ->Args({20000, static_cast<int>(LdgmVariant::kStaircase)})
    ->Args({20000, static_cast<int>(LdgmVariant::kTriangle)});

// GF(2^8) primitive: the RSE inner loop, for reference.
void BM_Gf256Addmul(benchmark::State& state) {
  std::vector<std::uint8_t> dst(kSymbolSize, 1), src(kSymbolSize, 2);
  for (auto _ : state) {
    gf::addmul(dst, src, 0x57);
    benchmark::DoNotOptimize(dst);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSymbolSize);
}
BENCHMARK(BM_Gf256Addmul);

// --------------------------------------------- machine-readable mode

struct Measurement {
  double bytes_per_second = 0.0;     // median of `slices`
  double cycles_per_byte = 0.0;      // 0 when perf counters unavailable
  double cache_miss_per_byte = 0.0;  // 0 when perf counters unavailable
  std::vector<double> slices;        // bytes/s of each round, in order
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median over rounds of scale * num / den, each round's two rates taken
/// back to back: the comparison a load change between rounds cancels from.
double median_ratio(const Measurement& num, const Measurement& den,
                    double scale = 1.0) {
  std::vector<double> ratios;
  for (std::size_t r = 0; r < num.slices.size(); ++r)
    ratios.push_back(scale * num.slices[r] / den.slices[r]);
  return median(std::move(ratios));
}

/// One operation to time: `run(calls)` makes `calls` calls, each doing
/// `bytes_per_call` bytes of work.
struct TimedOp {
  std::string name;
  std::uint64_t bytes_per_call = 0;
  std::function<void(std::uint64_t)> run;
};

template <typename Fn>
TimedOp timed_op(std::string name, std::uint64_t bytes_per_call, Fn body) {
  return {std::move(name), bytes_per_call, [body](std::uint64_t calls) mutable {
            for (std::uint64_t i = 0; i < calls; ++i) body();
          }};
}

/// Times one backend's ops in kSlices rounds; in each round every op runs
/// for min_time / kSlices.  All ops thus sample the same stretch of wall
/// time, so a load change on a shared host moves them alike; an op's rate
/// is its median slice, and ops are compared round by round
/// (median_ratio).  Calls run in groups of about 50 us between
/// clock reads, sized from a timed warm-up call.  When the host grants
/// perf_event_open, the hardware-counter group is read around every slice
/// and normalized per byte over all of them.
std::map<std::string, Measurement> measure_ops(obs::PerfGroup& perf,
                                               double min_time,
                                               const std::vector<TimedOp>& ops) {
  using clock = std::chrono::steady_clock;
  const auto seconds_since = [](clock::time_point t) {
    return std::chrono::duration<double>(clock::now() - t).count();
  };
  constexpr std::size_t kSlices = 10;
  struct Tally {
    std::uint64_t group = 1;
    std::vector<double> rates;
    double bytes = 0.0, cycles = 0.0, misses = 0.0;
  };
  std::vector<Tally> tally(ops.size());
  for (std::size_t o = 0; o < ops.size(); ++o) {
    ops[o].run(1);  // warm-up: tables, dispatch, caches
    const auto t0 = clock::now();
    ops[o].run(1);
    tally[o].group = static_cast<std::uint64_t>(
        std::max(1.0, 50e-6 / std::max(seconds_since(t0), 1e-9)));
  }
  const auto idx = [](obs::PerfCounter c) { return static_cast<std::size_t>(c); };
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    for (std::size_t o = 0; o < ops.size(); ++o) {
      Tally& t = tally[o];
      obs::PerfValues before{};
      obs::PerfValues after{};
      perf.read(before);
      std::uint64_t calls = 0;
      const auto start = clock::now();
      double elapsed = 0.0;
      do {
        ops[o].run(t.group);
        calls += t.group;
        elapsed = seconds_since(start);
      } while (elapsed < min_time / kSlices);
      perf.read(after);
      const double bytes = static_cast<double>(calls * ops[o].bytes_per_call);
      t.rates.push_back(bytes / elapsed);
      t.bytes += bytes;
      t.cycles += static_cast<double>(after[idx(obs::PerfCounter::kCycles)] -
                                      before[idx(obs::PerfCounter::kCycles)]);
      t.misses +=
          static_cast<double>(after[idx(obs::PerfCounter::kCacheMisses)] -
                              before[idx(obs::PerfCounter::kCacheMisses)]);
    }
  }
  std::map<std::string, Measurement> out;
  for (std::size_t o = 0; o < ops.size(); ++o) {
    const Tally& t = tally[o];
    Measurement& m = out[ops[o].name];
    m.bytes_per_second = median(t.rates);
    m.slices = t.rates;
    if (perf.available()) {
      m.cycles_per_byte = t.cycles / t.bytes;
      m.cache_miss_per_byte = t.misses / t.bytes;
    }
  }
  return out;
}

struct OpResult {
  std::string op;
  std::string backend;
  double bytes_per_second = 0.0;
  double cycles_per_byte = 0.0;
  double cache_miss_per_byte = 0.0;
  double roofline_fraction = 0.0;  // RSE rows only; 0 elsewhere
};

int run_json_mode(const std::string& json_path, bool check, double min_time,
                  const bench::Scale& scale) {
  const auto t0 = std::chrono::steady_clock::now();
  const gf::Backend original = gf::current_backend();
  const auto backends = gf::supported_backends();

  // Fixtures shared by every backend (built once, on the default backend;
  // outputs are backend-independent by the bit-identity contract).
  const std::uint32_t k = 102, n = 255;
  RseBlock block(k, n, 1);
  // Addmul work per source byte: encode runs n-k terms into each byte
  // position; decode cancels k-e received sources from e parities and
  // applies the e x e inverse, e*(k-e) + e*e = e*k terms over k bytes.
  const std::map<std::string, double> addmuls_per_byte = {
      {"rse_encode", n - k}, {"rse_decode", block.erased}};
  // The batch row: the first parity row's terms into one 1 KiB row.
  std::vector<gf::AddmulTerm> terms;
  for (std::uint32_t j = 0; j < k; ++j)
    if (const std::uint8_t c = block.codec.coefficient(k, j); c != 0)
      terms.push_back({block.source_rows[j], c});
  const LdgmCode ldgm(ldgm_params(1020, 1.5, LdgmVariant::kStaircase));
  const auto ldgm_src = random_symbols(ldgm.k(), 3);

  // One counter group for the whole run (single-threaded bench); on hosts
  // without perf_event_open every Measurement's per-byte fields stay 0 and
  // the JSON records why.
  obs::PerfGroup perf;

  std::vector<OpResult> results;
  std::map<std::string, double> scalar_rate, best_simd_rate;
  std::vector<std::string> floors, failures;
  for (const gf::Backend b : backends) {
    gf::force_backend(b);
    const std::string name(gf::to_string(b));

    std::vector<std::uint8_t> dst(kSymbolSize, 1), addmul_src(kSymbolSize, 2);
    const std::map<std::string, Measurement> rates = measure_ops(
        perf, min_time,
        {timed_op("gf256_addmul", kSymbolSize,
                  [&] {
                    gf::kernels().addmul(dst.data(), addmul_src.data(),
                                         kSymbolSize, 0x57);
                  }),
         timed_op("gf256_addmul_batch", terms.size() * kSymbolSize,
                  [&] {
                    gf::kernels().addmul_batch(dst.data(), terms.data(),
                                               terms.size(), kSymbolSize);
                  }),
         timed_op("rse_encode", block.source_bytes(), [&] { block.encode(); }),
         timed_op("rse_decode", block.source_bytes(), [&] { block.decode(); }),
         timed_op("ldgm_encode",
                  static_cast<std::uint64_t>(ldgm.k()) * kSymbolSize, [&] {
                    auto out = ldgm.encode(ldgm_src);
                    benchmark::DoNotOptimize(out);
                  })});
    const Measurement& batch = rates.at("gf256_addmul_batch");
    const bool simd = b == gf::Backend::kSsse3 || b == gf::Backend::kAvx2 ||
                      b == gf::Backend::kNeon;
    const auto roofline = [&](const std::string& op) {
      const auto it = addmuls_per_byte.find(op);
      return it == addmuls_per_byte.end()
                 ? 0.0
                 : median_ratio(rates.at(op), batch, it->second);
    };
    for (const auto& [op, m] : rates) {
      results.push_back({op, name, m.bytes_per_second, m.cycles_per_byte,
                         m.cache_miss_per_byte, roofline(op)});
      if (b == gf::Backend::kScalar) scalar_rate[op] = m.bytes_per_second;
      if (simd)
        best_simd_rate[op] = std::max(best_simd_rate[op], m.bytes_per_second);
    }
    if (simd) {
      // The per-backend floors: batching must not cost throughput, and RSE
      // encode must run near the batch kernel it is made of.
      const double batch_x = median_ratio(batch, rates.at("gf256_addmul"));
      const double fraction = roofline("rse_encode");
      floors.push_back(name + ": gf256_addmul_batch at " +
                       std::to_string(batch_x) +
                       "x gf256_addmul (floor 1x), rse_encode roofline "
                       "fraction " +
                       std::to_string(fraction) + " (floor 0.7)");
      if (batch_x < 1.0 || fraction < 0.7) failures.push_back(floors.back());
    }
  }
  gf::force_backend(original);

  std::map<std::string, double> speedup;
  for (const auto& [op, rate] : best_simd_rate)
    if (scalar_rate[op] > 0.0) speedup[op] = rate / scalar_rate[op];

  std::ofstream file(json_path);
  if (!file) {
    std::cerr << "bench_codec_speed: cannot write " << json_path << "\n";
    return 1;
  }
  bench::JsonWriter json(file);
  json.begin_object();
  json.key("bench").value("codec_speed");
  json.key("symbol_size").value(std::uint64_t{kSymbolSize});
  json.key("default_backend").value(std::string(gf::to_string(original)));
  bench::write_manifest_block(json, /*threads=*/1);  // single-threaded bench
  json.key("backends").begin_array();
  for (const gf::Backend b : backends) json.value(std::string(gf::to_string(b)));
  json.end_array();
  json.key("perf_counters").begin_object();
  json.key("available").value(perf.available());
  json.key("status").value(perf.status());
  json.end_object();
  json.key("results").begin_array();
  for (const OpResult& r : results) {
    json.begin_object();
    json.key("op").value(r.op);
    json.key("backend").value(r.backend);
    json.key("bytes_per_second").value(r.bytes_per_second);
    if (r.roofline_fraction > 0.0)
      json.key("roofline_fraction").value(r.roofline_fraction);
    if (perf.available()) {
      json.key("cycles_per_byte").value(r.cycles_per_byte);
      json.key("cache_miss_per_byte").value(r.cache_miss_per_byte);
    }
    json.end_object();
  }
  json.end_array();
  json.key("speedup_best_simd_over_scalar").begin_object();
  for (const auto& [op, s] : speedup) json.key(op).value(s);
  json.end_object();
  json.end_object();
  file << "\n";

  for (const OpResult& r : results) {
    std::cout << r.op << " [" << r.backend << "]: "
              << r.bytes_per_second / 1e6 << " MB/s";
    if (r.roofline_fraction > 0.0)
      std::cout << "  (roofline fraction " << r.roofline_fraction << ")";
    if (perf.available())
      std::cout << "  (" << r.cycles_per_byte << " cycles/B, "
                << r.cache_miss_per_byte << " cache-miss/B)";
    std::cout << "\n";
  }
  if (!perf.available())
    std::cout << "perf counters: unavailable (" << perf.status() << ")\n";
  for (const auto& [op, s] : speedup)
    std::cout << "speedup " << op << " (best SIMD / scalar): " << s << "x\n";
  for (const std::string& f : floors) std::cout << "floors " << f << "\n";

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  api::Json extra = api::Json::object();
  extra.set("symbol_size", api::Json::integer(kSymbolSize));
  extra.set("default_backend",
            api::Json(std::string(gf::to_string(original))));
  api::Json speedups = api::Json::object();
  for (const auto& [op, s] : speedup)
    speedups.set(op, api::Json::number_token(std::to_string(s)));
  extra.set("speedup_best_simd_over_scalar", std::move(speedups));
  bench::append_bench_record(scale, "codec_speed", /*threads=*/1, wall,
                             std::move(extra));

  if (check) {
    if (speedup.empty()) {
      std::cout << "check: no SIMD backend on this host, criteria waived\n";
      return 0;
    }
    const auto require = [&](const std::string& op, double minimum) {
      if (speedup[op] < minimum)
        failures.push_back(op + " speedup " + std::to_string(speedup[op]) +
                           "x < " + std::to_string(minimum) + "x");
    };
    require("gf256_addmul", 4.0);
    require("rse_encode", 1.5);
    require("rse_decode", 1.5);
    for (const std::string& f : failures)
      std::cerr << "check FAILED: " << f << "\n";
    if (failures.empty())
      std::cout << "check passed: >=4x addmul, >=1.5x RSE end-to-end; on "
                   "every SIMD backend addmul_batch >= addmul per byte and "
                   "rse_encode >= 0.7 of the batch roofline\n";
    return failures.empty() ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv);
  std::string json_path;
  bool check = false;
  double min_time = 0.15;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--check") {
      check = true;
    } else if (bench::parse_positive_flag(arg, "--min-time", min_time)) {
    } else if (arg.rfind("--ledger=", 0) == 0) {
      // consumed by parse_scale; keep it away from google-benchmark
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty() || check) {
    if (json_path.empty()) json_path = "BENCH_codec_speed.json";
    return run_json_mode(json_path, check, min_time, scale);
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
