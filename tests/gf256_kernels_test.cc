// GF(2^8) kernel engine: exhaustive SIMD-vs-scalar bit-equivalence on
// every backend the host supports, dispatch/override behaviour, the
// SymbolArena, and the zero-allocation workspace APIs of the codecs
// (flat RSE/LDGM paths must reproduce the vector APIs byte for byte, and
// trial workspaces must never change a trial result bit).

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "channel/gilbert.h"
#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "fec/rse.h"
#include "fec/symbol_arena.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "mpath/mpath_trial.h"
#include "stream/sliding_window.h"
#include "stream/stream_trial.h"
#include "util/rng.h"

namespace fecsched {
namespace {

using gf::AddmulTerm;
using gf::Backend;
using gf::Kernels;

// Deterministic fill that exercises every byte value.
void fill_bytes(std::vector<std::uint8_t>& v, std::uint64_t seed) {
  Rng rng(seed);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
}

// ------------------------------------------------------------ dispatch

TEST(Gf256Kernels, ScalarAndXor64AlwaysSupported) {
  EXPECT_TRUE(gf::backend_supported(Backend::kScalar));
  EXPECT_TRUE(gf::backend_supported(Backend::kXor64));
  const auto backends = gf::supported_backends();
  EXPECT_GE(backends.size(), 2u);
}

TEST(Gf256Kernels, CurrentBackendIsSupported) {
  EXPECT_TRUE(gf::backend_supported(gf::current_backend()));
  EXPECT_EQ(gf::kernels().backend, gf::current_backend());
}

TEST(Gf256Kernels, KernelsForThrowsOnUnsupported) {
  for (Backend b : gf::kAllBackends) {
    if (gf::backend_supported(b)) {
      EXPECT_NO_THROW((void)gf::kernels_for(b));
    } else {
      EXPECT_THROW((void)gf::kernels_for(b), std::invalid_argument);
    }
  }
}

TEST(Gf256Kernels, ForceBackendRoundTrip) {
  const Backend before = gf::current_backend();
  gf::force_backend(Backend::kScalar);
  EXPECT_EQ(gf::current_backend(), Backend::kScalar);
  gf::force_backend(before);
  EXPECT_EQ(gf::current_backend(), before);
}

TEST(Gf256Kernels, BackendFromName) {
  EXPECT_EQ(gf::backend_from_name("scalar"), Backend::kScalar);
  EXPECT_EQ(gf::backend_from_name("xor64"), Backend::kXor64);
  EXPECT_EQ(gf::backend_from_name("ssse3"), Backend::kSsse3);
  EXPECT_EQ(gf::backend_from_name("avx2"), Backend::kAvx2);
  EXPECT_EQ(gf::backend_from_name("gfni"), Backend::kGfni);
  EXPECT_EQ(gf::backend_from_name("neon"), Backend::kNeon);
  EXPECT_FALSE(gf::backend_from_name("auto").has_value());
  EXPECT_FALSE(gf::backend_from_name("sse9").has_value());
}

TEST(Gf256Kernels, DefaultDispatchPicksGfniWhenSupported) {
  // The probe order is the speedup: a slip that put avx2 first would keep
  // every output and silently lose the gfni kernels.  Every test that
  // forces a backend restores the one it found, so current_backend() is
  // the probe's choice.
  if (const char* env = std::getenv("FECSCHED_GF_BACKEND");
      env != nullptr && *env != '\0')
    GTEST_SKIP() << "FECSCHED_GF_BACKEND overrides the probe";
  if (!gf::backend_supported(Backend::kGfni))
    GTEST_SKIP() << "host lacks GFNI + AVX-512BW";
  EXPECT_EQ(gf::current_backend(), Backend::kGfni);
}

// ------------------------------------- exhaustive backend equivalence
//
// All 256 coefficients x every length in [0, 129] x misaligned src/dst
// offsets, against the scalar oracle, with guard bytes checked so a SIMD
// tail can never write past the span.

constexpr std::size_t kMaxLen = 129;
constexpr std::size_t kGuard = 32;
const std::size_t kOffsets[] = {0, 1, 3, 7};

TEST(Gf256Kernels, AddmulExhaustiveAllBackends) {
  const Kernels& oracle = gf::kernels_for(Backend::kScalar);
  std::vector<std::uint8_t> src_buf(kMaxLen + 16, 0), dst_init(kMaxLen + 16, 0);
  fill_bytes(src_buf, 1);
  fill_bytes(dst_init, 2);
  for (const Backend b : gf::supported_backends()) {
    const Kernels& k = gf::kernels_for(b);
    for (int c = 0; c < 256; ++c) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        for (const std::size_t soff : kOffsets) {
          for (const std::size_t doff : kOffsets) {
            std::vector<std::uint8_t> expect(doff + len + kGuard);
            for (std::size_t i = 0; i < expect.size(); ++i)
              expect[i] = dst_init[i % dst_init.size()];
            std::vector<std::uint8_t> got = expect;
            oracle.addmul(expect.data() + doff, src_buf.data() + soff, len,
                          static_cast<std::uint8_t>(c));
            k.addmul(got.data() + doff, src_buf.data() + soff, len,
                     static_cast<std::uint8_t>(c));
            ASSERT_EQ(got, expect)
                << "backend " << k.name << " c=" << c << " len=" << len
                << " soff=" << soff << " doff=" << doff;
          }
        }
      }
    }
  }
}

TEST(Gf256Kernels, ScaleExhaustiveAllBackends) {
  const Kernels& oracle = gf::kernels_for(Backend::kScalar);
  std::vector<std::uint8_t> dst_init(kMaxLen + 16, 0);
  fill_bytes(dst_init, 3);
  for (const Backend b : gf::supported_backends()) {
    const Kernels& k = gf::kernels_for(b);
    for (int c = 0; c < 256; ++c) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        for (const std::size_t doff : kOffsets) {
          std::vector<std::uint8_t> expect(doff + len + kGuard);
          for (std::size_t i = 0; i < expect.size(); ++i)
            expect[i] = dst_init[i % dst_init.size()];
          std::vector<std::uint8_t> got = expect;
          oracle.scale(expect.data() + doff, len, static_cast<std::uint8_t>(c));
          k.scale(got.data() + doff, len, static_cast<std::uint8_t>(c));
          ASSERT_EQ(got, expect) << "backend " << k.name << " c=" << c
                                 << " len=" << len << " doff=" << doff;
        }
      }
    }
  }
}

TEST(Gf256Kernels, XorIntoExhaustiveAllBackends) {
  const Kernels& oracle = gf::kernels_for(Backend::kScalar);
  std::vector<std::uint8_t> src_buf(kMaxLen + 16, 0), dst_init(kMaxLen + 16, 0);
  fill_bytes(src_buf, 4);
  fill_bytes(dst_init, 5);
  for (const Backend b : gf::supported_backends()) {
    const Kernels& k = gf::kernels_for(b);
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      for (const std::size_t soff : kOffsets) {
        for (const std::size_t doff : kOffsets) {
          std::vector<std::uint8_t> expect(doff + len + kGuard);
          for (std::size_t i = 0; i < expect.size(); ++i)
            expect[i] = dst_init[i % dst_init.size()];
          std::vector<std::uint8_t> got = expect;
          oracle.xor_into(expect.data() + doff, src_buf.data() + soff, len);
          k.xor_into(got.data() + doff, src_buf.data() + soff, len);
          ASSERT_EQ(got, expect) << "backend " << k.name << " len=" << len
                                 << " soff=" << soff << " doff=" << doff;
        }
      }
    }
  }
}

TEST(Gf256Kernels, AddmulBatchMatchesSequentialAddmul) {
  // Random batches (coefficients include 0 and 1) across a length sweep
  // that covers sub-vector, exact-vector and vector+tail shapes.
  Rng rng(6);
  const Kernels& oracle = gf::kernels_for(Backend::kScalar);
  for (const Backend b : gf::supported_backends()) {
    const Kernels& k = gf::kernels_for(b);
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
          std::size_t{31}, std::size_t{32}, std::size_t{33}, std::size_t{64},
          std::size_t{100}, std::size_t{129}, std::size_t{1024},
          std::size_t{1031}}) {
      for (int round = 0; round < 30; ++round) {
        const std::size_t count = rng.below(9);
        std::vector<std::vector<std::uint8_t>> srcs(count);
        std::vector<AddmulTerm> terms(count);
        for (std::size_t t = 0; t < count; ++t) {
          srcs[t].resize(len + 1);  // +1 so len==0 keeps data() valid
          fill_bytes(srcs[t], 7 + round * 16 + t);
          std::uint8_t coeff = static_cast<std::uint8_t>(rng.below(256));
          if (round % 5 == 0) coeff = static_cast<std::uint8_t>(round % 2);
          terms[t] = {srcs[t].data(), coeff};
        }
        std::vector<std::uint8_t> expect(len + kGuard);
        fill_bytes(expect, 1000 + round);
        std::vector<std::uint8_t> got = expect;
        for (const AddmulTerm& term : terms)
          oracle.addmul(expect.data(), term.src, len, term.coeff);
        k.addmul_batch(got.data(), terms.data(), terms.size(), len);
        ASSERT_EQ(got, expect)
            << "backend " << k.name << " len=" << len << " count=" << count;
      }
    }
  }
}

TEST(Gf256Kernels, AddmulMatrixMatchesScalarAddmul) {
  // Every backend against sequential scalar addmul.  Rows cross every
  // edge of a 4-row tile, lengths every edge of a 64-byte vector and a
  // 256-byte chunk, coefficients include 0 and 1, and every src and dst
  // row starts at its own offset inside a guarded, pre-filled buffer.
  const Kernels& oracle = gf::kernels_for(Backend::kScalar);
  const std::size_t kLengths[] = {0,   1,   63,   64,   65,   255,  256,
                                  257, 1023, 1024, 1025, 1400};
  const std::size_t kTerms[] = {0, 1, 2, 3, 4, 5, 102, 255};
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes;
  for (const std::size_t len : kLengths)
    for (std::size_t rows = 1; rows <= 9; ++rows)
      for (const std::size_t terms : kTerms)
        shapes.emplace_back(rows, terms, len);
  // The codec's widths, at lengths up to one chunk past a vector, and the
  // encode shape itself.
  for (const std::size_t len : {0, 1, 63, 64, 65, 255, 256, 257})
    for (const std::size_t rows : {153, 255})
      for (const std::size_t terms : kTerms)
        shapes.emplace_back(rows, terms, len);
  shapes.emplace_back(153, 102, 1024);
  Rng rng(14);
  for (const auto& [rows, terms, len] : shapes) {
    const auto offset = [](std::size_t i) { return (i * 13) % 64; };
    std::vector<std::vector<std::uint8_t>> srcs(terms);
    std::vector<const std::uint8_t*> src_rows(terms);
    for (std::size_t t = 0; t < terms; ++t) {
      srcs[t].resize(offset(t) + len + kGuard);
      fill_bytes(srcs[t], rng());
      src_rows[t] = srcs[t].data() + offset(t);
    }
    std::vector<std::uint8_t> coeffs(rows * terms);
    for (auto& c : coeffs)
      c = static_cast<std::uint8_t>(rng.below(4) == 0 ? rng.below(2)
                                                      : rng.below(256));
    std::vector<std::vector<std::uint8_t>> expect(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      expect[r].resize(kGuard + offset(r + 5) + len + kGuard);
      fill_bytes(expect[r], rng());
    }
    const auto initial = expect;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t t = 0; t < terms; ++t)
        oracle.addmul(expect[r].data() + kGuard + offset(r + 5), src_rows[t],
                      len, coeffs[r * terms + t]);
    for (const Backend b : gf::supported_backends()) {
      const Kernels& k = gf::kernels_for(b);
      auto got = initial;
      std::vector<std::uint8_t*> dst_rows(rows);
      for (std::size_t r = 0; r < rows; ++r)
        dst_rows[r] = got[r].data() + kGuard + offset(r + 5);
      k.addmul_matrix(dst_rows.data(), src_rows.data(), coeffs.data(), rows,
                      terms, len);
      ASSERT_EQ(got, expect) << "backend " << k.name << " rows=" << rows
                             << " terms=" << terms << " len=" << len;
    }
  }
}

TEST(Gf256Kernels, SpanWrappersStillValidate) {
  std::vector<std::uint8_t> dst(3), src(4);
  EXPECT_THROW(gf::addmul(dst, src, 2), std::invalid_argument);
  EXPECT_THROW(gf::xor_into(dst, src), std::invalid_argument);
}

// --------------------------------------------------------- SymbolArena

TEST(SymbolArena, RowsAlignedZeroedAndIndependent) {
  SymbolArena arena;
  arena.configure(5, 100);
  EXPECT_EQ(arena.rows(), 5u);
  EXPECT_EQ(arena.symbol_size(), 100u);
  EXPECT_GE(arena.stride(), 100u);
  EXPECT_EQ(arena.stride() % SymbolArena::kAlign, 0u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.row(i)) %
                  SymbolArena::kAlign,
              0u);
    for (std::uint8_t byte : arena.row_span(i)) ASSERT_EQ(byte, 0);
  }
  std::memset(arena.row(2), 0xAB, 100);
  for (std::uint8_t byte : arena.row_span(1)) ASSERT_EQ(byte, 0);
  for (std::uint8_t byte : arena.row_span(3)) ASSERT_EQ(byte, 0);
}

TEST(SymbolArena, ReconfigureZeroesAndReusesCapacity) {
  SymbolArena arena;
  arena.configure(4, 256);
  std::memset(arena.row(0), 0xFF, 256);
  arena.configure(2, 64);  // smaller: must reuse and re-zero
  for (std::uint8_t byte : arena.row_span(0)) ASSERT_EQ(byte, 0);
  arena.configure(0, 0);
  EXPECT_EQ(arena.rows(), 0u);
}

// -------------------------------------------- workspace API equivalence

TEST(RseWorkspace, FlatEncodeDecodeMatchVectorApi) {
  Rng rng(8);
  RseWorkspace ws;  // deliberately reused across every geometry
  for (const auto& [k, n] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {1, 2}, {3, 7}, {10, 25}, {64, 128}, {102, 255}}) {
    const RseCodec codec(k, n);
    const std::size_t sym = 96 + (k % 5);
    std::vector<std::vector<std::uint8_t>> src(k);
    for (auto& s : src) {
      s.resize(sym);
      fill_bytes(s, k * 1000 + n);
    }
    const auto parity = codec.encode(src);

    // Flat encode into an arena must equal the vector-API parity.
    SymbolArena src_arena, out_arena;
    src_arena.configure(k, sym);
    out_arena.configure(n - k, sym);
    std::vector<const std::uint8_t*> src_rows(k);
    std::vector<std::uint8_t*> out_rows(n - k);
    for (std::uint32_t j = 0; j < k; ++j) {
      std::memcpy(src_arena.row(j), src[j].data(), sym);
      src_rows[j] = src_arena.row(j);
    }
    for (std::uint32_t i = 0; i < n - k; ++i) out_rows[i] = out_arena.row(i);
    codec.encode_into(src_rows.data(), sym, out_rows.data());
    for (std::uint32_t i = 0; i < n - k; ++i)
      ASSERT_TRUE(std::equal(parity[i].begin(), parity[i].end(),
                             out_arena.row(i)))
          << "k=" << k << " n=" << n << " parity " << i;

    // Flat decode from a worst-case erasure must equal the vector API.
    const std::uint32_t erased = std::min(n - k, k);
    std::vector<RseCodec::Received> rx;
    std::vector<ReceivedSymbol> views;
    for (std::uint32_t i = erased; i < k; ++i) {
      rx.push_back({i, src[i]});
      views.push_back({i, src[i].data()});
    }
    for (std::uint32_t i = 0; i < erased; ++i) {
      rx.push_back({k + i, parity[i]});
      views.push_back({k + i, parity[i].data()});
    }
    const auto expect = codec.decode(rx);
    SymbolArena dec_arena;
    dec_arena.configure(k, sym);
    std::vector<std::uint8_t*> dec_rows(k);
    for (std::uint32_t j = 0; j < k; ++j) dec_rows[j] = dec_arena.row(j);
    codec.decode_into(views, sym, dec_rows.data(), ws);
    for (std::uint32_t j = 0; j < k; ++j) {
      ASSERT_TRUE(std::equal(expect[j].begin(), expect[j].end(),
                             dec_arena.row(j)))
          << "k=" << k << " n=" << n << " source " << j;
      ASSERT_EQ(expect[j], src[j]);
    }
  }
}

TEST(RseWorkspace, DecodeIntoRejectsMalformedSets) {
  const RseCodec codec(4, 8);
  const std::size_t sym = 16;
  std::vector<std::vector<std::uint8_t>> src(4, std::vector<std::uint8_t>(sym, 7));
  const auto parity = codec.encode(src);
  SymbolArena out;
  out.configure(4, sym);
  std::uint8_t* rows[4] = {out.row(0), out.row(1), out.row(2), out.row(3)};
  RseWorkspace ws;
  std::vector<ReceivedSymbol> too_few = {{0, src[0].data()}};
  EXPECT_THROW(codec.decode_into(too_few, sym, rows, ws),
               std::invalid_argument);
  std::vector<ReceivedSymbol> dup = {{0, src[0].data()},
                                     {0, src[0].data()},
                                     {1, src[1].data()},
                                     {2, src[2].data()}};
  EXPECT_THROW(codec.decode_into(dup, sym, rows, ws), std::invalid_argument);
  std::vector<ReceivedSymbol> oob = {{0, src[0].data()},
                                     {1, src[1].data()},
                                     {2, src[2].data()},
                                     {9, src[3].data()}};
  EXPECT_THROW(codec.decode_into(oob, sym, rows, ws), std::invalid_argument);
}

TEST(RseWorkspace, InvertMatrixSpanVariantMatchesVector) {
  Rng rng(9);
  for (std::uint32_t size : {1u, 2u, 5u, 16u}) {
    // A Vandermonde square over distinct points is always invertible.
    std::vector<std::uint8_t> m(static_cast<std::size_t>(size) * size);
    for (std::uint32_t i = 0; i < size; ++i)
      for (std::uint32_t j = 0; j < size; ++j)
        m[static_cast<std::size_t>(i) * size + j] = gf::alpha_pow(i * j);
    std::vector<std::uint8_t> expect = m;
    gf256_invert_matrix(expect, size);
    std::vector<std::uint8_t> got = m;
    std::vector<std::uint8_t> scratch;
    gf256_invert_matrix(std::span(got), size, scratch);
    EXPECT_EQ(got, expect) << "size " << size;
  }
}

TEST(LdgmWorkspace, FlatEncodeMatchesVectorApi) {
  LdgmParams params;
  params.k = 120;
  params.n = 300;
  params.variant = LdgmVariant::kTriangle;
  params.seed = 11;
  const LdgmCode code(params);
  const std::size_t sym = 130;
  std::vector<std::vector<std::uint8_t>> src(params.k);
  for (auto& s : src) {
    s.resize(sym);
    fill_bytes(s, 77);
  }
  const auto parity = code.encode(src);
  SymbolArena out;
  out.configure(params.n - params.k, sym);
  std::vector<const std::uint8_t*> src_rows(params.k);
  std::vector<std::uint8_t*> out_rows(params.n - params.k);
  for (std::uint32_t j = 0; j < params.k; ++j) src_rows[j] = src[j].data();
  for (std::uint32_t i = 0; i < params.n - params.k; ++i)
    out_rows[i] = out.row(i);
  code.encode_into(src_rows.data(), sym, out_rows.data());
  for (std::uint32_t i = 0; i < params.n - params.k; ++i)
    ASSERT_TRUE(std::equal(parity[i].begin(), parity[i].end(), out.row(i)))
        << "parity " << i;
}

TEST(TrialWorkspace, SlidingEncoderRepairReuseMatchesFresh) {
  SlidingWindowConfig cfg;
  cfg.window = 8;
  cfg.repair_interval = 3;
  const std::size_t sym = 100;
  SlidingWindowEncoder a(cfg, sym), b(cfg, sym);
  std::vector<std::uint8_t> payload(sym);
  RepairPacket reused;
  for (int round = 0; round < 50; ++round) {
    fill_bytes(payload, 100 + round);
    a.push_source(payload);
    b.push_source(payload);
    if (round % 3 == 2) {
      const RepairPacket fresh = a.make_repair();
      b.make_repair(reused);  // reuses the payload buffer every time
      ASSERT_EQ(fresh.repair_seq, reused.repair_seq);
      ASSERT_EQ(fresh.first, reused.first);
      ASSERT_EQ(fresh.last, reused.last);
      ASSERT_EQ(fresh.payload, reused.payload);
    }
  }
}

TEST(TrialWorkspace, PeelingRebindMatchesFreshDecoder) {
  Rng rng(13);
  std::optional<PeelingDecoder> reused_opt;
  for (int round = 0; round < 10; ++round) {
    LdgmParams params;
    params.k = 30 + 7 * static_cast<std::uint32_t>(round);
    params.n = params.k * 2;
    params.variant = LdgmVariant::kStaircase;
    params.seed = 100 + static_cast<std::uint64_t>(round);
    const LdgmCode code(params);
    PeelingDecoder fresh(code.matrix(), params.k);
    if (reused_opt)
      reused_opt->rebind(code.matrix(), params.k);
    else
      reused_opt.emplace(code.matrix(), params.k);
    std::vector<PacketId> order(code.n());
    std::iota(order.begin(), order.end(), 0);
    shuffle(order, rng);
    const std::size_t prefix = 1 + rng.below(code.n());
    for (std::size_t i = 0; i < prefix; ++i) {
      const std::uint32_t a = fresh.add_packet(order[i]);
      const std::uint32_t b = reused_opt->add_packet(order[i]);
      ASSERT_EQ(a, b) << "round " << round << " feed " << i;
    }
    ASSERT_EQ(fresh.known_variable_count(), reused_opt->known_variable_count());
    ASSERT_EQ(fresh.source_complete(), reused_opt->source_complete());
  }
}

// Field-by-field equality of two trial results (delays pinned exactly).
void expect_same_stream_result(const StreamTrialResult& a,
                               const StreamTrialResult& b) {
  EXPECT_EQ(a.delay.delivered, b.delay.delivered);
  EXPECT_EQ(a.delay.lost, b.delay.lost);
  EXPECT_EQ(a.delay.mean, b.delay.mean);
  EXPECT_EQ(a.delay.p50, b.delay.p50);
  EXPECT_EQ(a.delay.p95, b.delay.p95);
  EXPECT_EQ(a.delay.p99, b.delay.p99);
  EXPECT_EQ(a.delay.max, b.delay.max);
  EXPECT_EQ(a.delay.mean_transport, b.delay.mean_transport);
  EXPECT_EQ(a.delay.mean_hol, b.delay.mean_hol);
  EXPECT_EQ(a.residual.lost, b.residual.lost);
  EXPECT_EQ(a.residual.runs, b.residual.runs);
  EXPECT_EQ(a.residual.max_run_length, b.residual.max_run_length);
  EXPECT_EQ(a.residual.mean_run_length, b.residual.mean_run_length);
  EXPECT_EQ(a.delays, b.delays);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.overhead_actual, b.overhead_actual);
  EXPECT_EQ(a.all_delivered, b.all_delivered);
}

TEST(TrialWorkspace, StreamTrialReuseIsBitIdentical) {
  // One workspace reused across every scheme/scheduling combo and many
  // seeds must reproduce the workspace-free trials exactly.
  StreamTrialWorkspace ws;
  for (const StreamScheme scheme :
       {StreamScheme::kSlidingWindow, StreamScheme::kReplication,
        StreamScheme::kBlockRse, StreamScheme::kLdgm}) {
    for (const StreamScheduling sched :
         {StreamScheduling::kSequential, StreamScheduling::kInterleaved,
          StreamScheduling::kCarousel}) {
      StreamTrialConfig cfg;
      cfg.scheme = scheme;
      cfg.scheduling = sched;
      cfg.source_count = 400;
      cfg.overhead = 0.25;
      cfg.window = 32;
      cfg.block_k = 32;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        GilbertModel fresh_channel(0.05, 0.4), ws_channel(0.05, 0.4);
        const StreamTrialResult fresh =
            run_stream_trial(cfg, fresh_channel, seed);
        const StreamTrialResult reused =
            run_stream_trial(cfg, ws_channel, seed, ws);
        expect_same_stream_result(fresh, reused);
      }
    }
  }
}

TEST(TrialWorkspace, MpathTrialReuseIsBitIdentical) {
  // One workspace through 1-, 3- and then 2-path sets: a trial on fewer
  // paths must not see what a wider one left behind.
  const std::vector<std::vector<PathSpec>> path_sets = {
      {PathSpec::gilbert(0.05, 0.4, 5.0, 1.0)},
      {PathSpec::gilbert(0.05, 0.4, 5.0, 0.5),
       PathSpec::gilbert(0.05, 0.4, 20.0, 1.0),
       PathSpec::gilbert(0.05, 0.4, 45.0, 1.0)},
      {PathSpec::gilbert(0.05, 0.4, 5.0, 1.0),
       PathSpec::gilbert(0.05, 0.4, 45.0, 1.0)}};
  MpathTrialWorkspace ws;
  for (const StreamScheme scheme :
       {StreamScheme::kSlidingWindow, StreamScheme::kReplication,
        StreamScheme::kBlockRse, StreamScheme::kLdgm}) {
    for (const std::vector<PathSpec>& paths : path_sets) {
      MpathTrialConfig cfg;
      cfg.stream.scheme = scheme;
      cfg.stream.scheduling = StreamScheduling::kSequential;
      cfg.stream.source_count = 300;
      cfg.stream.overhead = 0.25;
      cfg.stream.window = 32;
      cfg.stream.block_k = 32;
      cfg.paths = paths;
      cfg.scheduler = PathScheduling::kRoundRobin;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const MpathTrialResult fresh = run_mpath_trial(cfg, seed);
        const MpathTrialResult reused = run_mpath_trial(cfg, seed, ws);
        expect_same_stream_result(fresh.stream, reused.stream);
        EXPECT_EQ(fresh.reordered, reused.reordered);
        ASSERT_EQ(fresh.paths.size(), paths.size());
        ASSERT_EQ(reused.paths.size(), paths.size());
        ASSERT_EQ(reused.path_reports.size(), paths.size());
        for (std::size_t i = 0; i < paths.size(); ++i) {
          EXPECT_EQ(fresh.paths[i].sent, reused.paths[i].sent);
          EXPECT_EQ(fresh.paths[i].lost, reused.paths[i].lost);
          EXPECT_EQ(fresh.path_reports[i].ok_to_loss,
                    reused.path_reports[i].ok_to_loss);
          EXPECT_EQ(fresh.path_reports[i].loss_to_ok,
                    reused.path_reports[i].loss_to_ok);
        }
      }
    }
  }
}

TEST(TrialWorkspace, DelayTrackerResetReproducesFreshTracker) {
  DelayTracker reused;
  for (int round = 0; round < 3; ++round) {
    DelayTracker fresh;
    reused.reset();
    for (std::uint64_t s = 0; s < 50; ++s) {
      fresh.on_sent(s, static_cast<double>(s));
      reused.on_sent(s, static_cast<double>(s));
    }
    for (std::uint64_t s = 0; s < 50; ++s) {
      const double t = static_cast<double>(s + 3 + (s % 7));
      if (s % 9 == 4) {
        fresh.on_lost(s, t);
        reused.on_lost(s, t);
      } else {
        fresh.on_available(s, t);
        reused.on_available(s, t);
      }
    }
    const DelaySummary a = fresh.summary(), b = reused.summary();
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(fresh.delays(), reused.delays());
  }
}

}  // namespace
}  // namespace fecsched
