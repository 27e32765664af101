// The RSE payload path held to reference bytes: the fused addmul_batch
// kernel at the term counts RSE runs (up to 255) against sequential scalar
// addmul, the padded-row Gauss-Jordan inversion at the padded-stride edges
// on every backend, and the object codec (one generator per block
// geometry) against a fresh RseCodec per block and, at codec_rse's
// geometry, against the scalar backend's bytes; its encoder serves source
// symbols verbatim and its decoder rejects bad ids and sizes.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fec/block_partition.h"
#include "fec/rse.h"
#include "fec/rse_object.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "util/rng.h"

namespace fecsched {
namespace {

using gf::AddmulTerm;
using gf::Backend;
using gf::Kernels;

void fill_bytes(std::vector<std::uint8_t>& v, Rng& rng) {
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
}

/// Runs `fn` once per supported backend with kernels() forced to it, then
/// restores the backend the test started on.
template <typename Fn>
void for_each_backend(Fn&& fn) {
  const Backend before = gf::current_backend();
  for (const Backend b : gf::supported_backends()) {
    gf::force_backend(b);
    fn(b);
  }
  gf::force_backend(before);
}

// ------------------------------------------------------- addmul_batch

TEST(Gf256Kernels, AddmulBatchUpTo255TermsMatchesScalarAddmul) {
  constexpr std::size_t kGuard = 32;
  constexpr std::size_t kMaxTerms = 255;
  // Around one vector, the 1 KiB register block (with a single vector or
  // a masked tail past it) and two blocks.  The per-term source offsets
  // below reach every byte position of a cache line, so gfni's realigned
  // reads (sources 16, 32 or 48 bytes into a line) run too.
  constexpr std::size_t kLens[] = {0,    1,    31,   32,   63,   64,
                                   65,   127,  128,  129,  1024, 1031,
                                   1087, 1088, 2048, 2111};
  constexpr std::size_t kMaxLen = 2111;
  constexpr std::size_t kStride = kMaxLen + 64;  // one source slot per term
  const Kernels& oracle = gf::kernels_for(Backend::kScalar);
  Rng rng(11);
  std::vector<std::uint8_t> pool(kMaxTerms * kStride);
  fill_bytes(pool, rng);
  std::vector<std::uint8_t> dst_init(kMaxLen + 64 + kGuard);
  fill_bytes(dst_init, rng);
  std::vector<AddmulTerm> terms(kMaxTerms);
  for (std::size_t count = 0; count <= kMaxTerms; ++count) {
    // Unaligned sources at per-term offsets; coefficients include 0 and 1.
    for (std::size_t t = 0; t < count; ++t) {
      std::uint8_t c = static_cast<std::uint8_t>(rng.below(256));
      if (t % 11 == 3) c = 0;
      if (t % 7 == 5) c = 1;
      terms[t] = {pool.data() + t * kStride + (t * 5 + count) % 33, c};
    }
    const std::size_t doff = count % 37;
    for (const std::size_t len : kLens) {
      std::vector<std::uint8_t> expect(dst_init.begin(),
                                       dst_init.begin() + doff + len + kGuard);
      for (std::size_t t = 0; t < count; ++t)
        oracle.addmul(expect.data() + doff, terms[t].src, len, terms[t].coeff);
      for (const Backend b : gf::supported_backends()) {
        const Kernels& k = gf::kernels_for(b);
        std::vector<std::uint8_t> got(dst_init.begin(),
                                      dst_init.begin() + doff + len + kGuard);
        k.addmul_batch(got.data() + doff, terms.data(), count, len);
        ASSERT_EQ(got, expect) << "backend " << k.name << " count=" << count
                               << " len=" << len << " doff=" << doff;
      }
    }
  }
}

// ---------------------------------------------------- matrix inversion

using Matrix = std::vector<std::uint8_t>;

/// lhs * rhs for size x size row-major matrices, through the scalar
/// oracle kernel so the check does not lean on the backend under test.
Matrix multiply(const Matrix& lhs, const Matrix& rhs, std::uint32_t size) {
  const Kernels& oracle = gf::kernels_for(Backend::kScalar);
  Matrix out(static_cast<std::size_t>(size) * size, 0);
  for (std::size_t i = 0; i < size; ++i)
    for (std::size_t t = 0; t < size; ++t)
      oracle.addmul(out.data() + i * size, rhs.data() + t * size, size,
                    lhs[i * size + t]);
  return out;
}

Matrix identity(std::uint32_t size) {
  Matrix m(static_cast<std::size_t>(size) * size, 0);
  for (std::size_t i = 0; i < size; ++i) m[i * size + i] = 1;
  return m;
}

/// A dense invertible matrix L * U (L unit lower, U upper with a non-zero
/// diagonal).  With `zero_lead`, L[1][0] = 0 makes row 1 start with a zero,
/// and swapping rows 0 and 1 puts that zero on the leading diagonal, so the
/// elimination must swap rows at its first pivot.
Matrix invertible(std::uint32_t size, bool zero_lead, Rng& rng) {
  const std::size_t s = size;
  Matrix l = identity(size), u(s * s, 0);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < i; ++j)
      l[i * s + j] = static_cast<std::uint8_t>(rng.below(256));
    u[i * s + i] = static_cast<std::uint8_t>(1 + rng.below(255));
    for (std::size_t j = i + 1; j < s; ++j)
      u[i * s + j] = static_cast<std::uint8_t>(rng.below(256));
  }
  if (zero_lead && s > 1) l[s] = 0;
  Matrix m = multiply(l, u, size);
  if (zero_lead && s > 1) {
    std::swap_ranges(m.begin(), m.begin() + static_cast<std::ptrdiff_t>(s),
                     m.begin() + static_cast<std::ptrdiff_t>(s));
    EXPECT_EQ(m[0], 0);
  }
  return m;
}

TEST(GfMatrixInvert, PaddedStrideEdgesEveryBackend) {
  Rng rng(12);
  // Descending sizes through one scratch vector: a smaller inversion must
  // not see what a larger one left behind.
  std::vector<std::uint8_t> scratch;
  for (const std::uint32_t size :
       {255u, 128u, 102u, 101u, 33u, 32u, 17u, 16u, 15u, 1u}) {
    for (const bool zero_lead : {false, true}) {
      const Matrix m = invertible(size, zero_lead, rng);
      Matrix first;  // the first backend's inverse; every other must match
      for_each_backend([&](Backend b) {
        Matrix inv = m;
        gf256_invert_matrix(std::span(inv), size, scratch);
        ASSERT_EQ(multiply(m, inv, size), identity(size))
            << "size=" << size << " zero_lead=" << zero_lead
            << " backend=" << gf::to_string(b);
        if (first.empty()) first = inv;
        EXPECT_EQ(inv, first) << "size=" << size << " backend="
                              << gf::to_string(b);
        Matrix via_vector = m;
        gf256_invert_matrix(via_vector, size);
        EXPECT_EQ(via_vector, inv);
      });
    }
  }
}

TEST(GfMatrixInvert, SingularAtLatePivotThrowsEveryBackend) {
  Rng rng(13);
  std::vector<std::uint8_t> scratch;
  for (const std::uint32_t size : {255u, 102u, 33u, 17u, 3u}) {
    // Rows 0..s-2 of an invertible matrix, then a last row that is a
    // combination of rows 0 and 1: full rank until the final pivot.
    const std::size_t s = size;
    Matrix m = invertible(size, /*zero_lead=*/false, rng);
    for (std::size_t j = 0; j < s; ++j)
      m[(s - 1) * s + j] = gf::add(m[j], gf::mul(0x53, m[s + j]));
    for_each_backend([&](Backend b) {
      Matrix work = m;
      EXPECT_THROW(gf256_invert_matrix(std::span(work), size, scratch),
                   std::invalid_argument)
          << "size=" << size << " backend=" << gf::to_string(b);
    });
  }
}

// -------------------------------------------------------- object codec

/// Encodes an object with RseObjectEncoder and decodes it with
/// RseObjectDecoder under three loss patterns, feeding packets in
/// interleaved order (one packet of each block in turn), so blocks with
/// fewer source packets complete first.  Parity and decoded sources must
/// equal a fresh RseCodec per block.  `bytes`, when given, receives every
/// parity payload, then every source as decoded with all sources lost.
void check_object(std::uint32_t k, double ratio, std::size_t symbol,
                  std::uint64_t seed,
                  std::vector<std::vector<std::uint8_t>>* bytes = nullptr) {
  const auto plan = std::make_shared<const RsePlan>(k, ratio);
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> source(k,
                                                std::vector<std::uint8_t>(symbol));
  for (auto& s : source) fill_bytes(s, rng);
  const RseObjectEncoder encoder(plan, source);

  for (std::uint32_t b = 0; b < plan->block_count(); ++b) {
    const BlockInfo& blk = plan->block(b);
    const RseCodec fresh(blk.k, blk.n);
    const std::vector<std::vector<std::uint8_t>> block_source(
        source.begin() + blk.source_offset,
        source.begin() + blk.source_offset + blk.k);
    const auto parity = fresh.encode(block_source);
    for (std::uint32_t i = 0; i < blk.n - blk.k; ++i) {
      ASSERT_EQ(encoder.payload(blk.parity_offset + i), parity[i])
          << "block " << b << " parity " << i;
      if (bytes) bytes->push_back(parity[i]);
    }
  }

  enum class Loss { kEverySource, kRandom, kNone };
  for (const Loss loss : {Loss::kEverySource, Loss::kRandom, Loss::kNone}) {
    RseObjectDecoder decoder(plan, symbol);
    // What each block's decode saw, in arrival order, for the fresh codec.
    std::vector<std::vector<RseCodec::Received>> fed(plan->block_count());
    for (const PacketId id : plan->interleaved_order()) {
      const bool lost = loss == Loss::kEverySource ? id < k
                        : loss == Loss::kRandom    ? rng.bernoulli(0.4)
                                                   : false;
      if (lost) continue;
      const BlockPosition pos = plan->position(id);
      if (fed[pos.block].size() < plan->block(pos.block).k)
        fed[pos.block].push_back({pos.index, encoder.payload(id)});
      decoder.on_packet(id, encoder.payload(id));
    }
    ASSERT_TRUE(decoder.complete()) << "loss pattern " << static_cast<int>(loss);
    for (std::uint32_t b = 0; b < plan->block_count(); ++b) {
      const BlockInfo& blk = plan->block(b);
      const auto decoded = RseCodec(blk.k, blk.n).decode(fed[b]);
      for (std::uint32_t j = 0; j < blk.k; ++j) {
        ASSERT_EQ(decoder.source_symbol(blk.source_offset + j), decoded[j])
            << "block " << b << " source " << j;
        ASSERT_EQ(decoded[j], source[blk.source_offset + j]);
      }
    }
    if (bytes && loss == Loss::kEverySource)
      for (PacketId s = 0; s < k; ++s)
        bytes->push_back(decoder.source_symbol(s));
  }
}

/// FNV-1a of the scalar backend's bytes from check_object(8192, 2.5, 1024,
/// 14): every parity payload, then every source decoded with all lost.
constexpr std::uint64_t kTwoGeometryBytes = 0xe84f4d8feabcd239ULL;

/// check_object's bytes for the two-geometry plan on backend `b`, hashed.
std::uint64_t two_geometry_bytes(Backend b) {
  const Backend before = gf::current_backend();
  gf::force_backend(b);
  std::vector<std::vector<std::uint8_t>> bytes;
  check_object(8192, 2.5, 1024, 14, &bytes);
  gf::force_backend(before);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& payload : bytes)
    for (const std::uint8_t byte : payload) h = (h ^ byte) * 0x100000001b3ULL;
  return h;
}

// k = 8192 at ratio 2.5 (codec_rse's object at 1 KiB symbols), on the
// scalar backend; RseObjectBackend runs the other backends one case each.
TEST(RseObject, TwoGeometryPlanMatchesFreshCodecPerBlock) {
  // 11 blocks of (102, 255) then 70 of (101, 252).
  const RsePlan plan(8192, 2.5);
  ASSERT_EQ(plan.block_count(), 81u);
  EXPECT_EQ(plan.block(0).k, 102u);
  EXPECT_EQ(plan.block(0).n, 255u);
  EXPECT_EQ(plan.block(10).k, 102u);
  EXPECT_EQ(plan.block(11).k, 101u);
  EXPECT_EQ(plan.block(80).k, 101u);
  const std::uint64_t got = two_geometry_bytes(Backend::kScalar);
  EXPECT_EQ(got, kTwoGeometryBytes)
      << std::hex << "scalar bytes hash to 0x" << got;
}

// Every other backend's parity and its decode with every source lost must
// be the scalar backend's bytes, not only its own fresh codec's.
class RseObjectBackend : public ::testing::TestWithParam<Backend> {};

TEST_P(RseObjectBackend, TwoGeometryPlanMatchesScalarBytes) {
  const std::vector<Backend> supported = gf::supported_backends();
  if (std::find(supported.begin(), supported.end(), GetParam()) ==
      supported.end())
    GTEST_SKIP() << "backend not supported on this host";
  EXPECT_EQ(two_geometry_bytes(GetParam()), kTwoGeometryBytes);
}

INSTANTIATE_TEST_SUITE_P(
    OtherBackends, RseObjectBackend,
    ::testing::Values(Backend::kXor64, Backend::kSsse3, Backend::kAvx2,
                      Backend::kGfni, Backend::kNeon),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(gf::to_string(info.param));
    });

TEST(RseObject, SmallPlanMatchesFreshCodecPerBlock) {
  // k = 250 at ratio 2.2: (84, 184) then two of (83, 182).
  const RsePlan plan(250, 2.2);
  ASSERT_EQ(plan.block_count(), 3u);
  EXPECT_EQ(plan.block(0).n, 184u);
  EXPECT_EQ(plan.block(2).n, 182u);
  check_object(250, 2.2, 40, 15);
}

TEST(RseObject, StreamBlockPlanMatchesFreshCodecPerBlock) {
  // The net engine's block-RSE geometry: 300 sources, 25% overhead,
  // block_k 32 (blocks capped at floor(32 * 1.25) = 40 packets).
  const auto plan = std::make_shared<const RsePlan>(300, 1.25, 40);
  ASSERT_EQ(plan->block_count(), 10u);
  EXPECT_EQ(plan->block(0).k, 30u);
  EXPECT_EQ(plan->block(0).n, 37u);
  Rng rng(16);
  std::vector<std::vector<std::uint8_t>> source(300,
                                                std::vector<std::uint8_t>(48));
  for (auto& s : source) fill_bytes(s, rng);
  const RseObjectEncoder encoder(plan, source);
  for (std::uint32_t b = 0; b < plan->block_count(); ++b) {
    const BlockInfo& blk = plan->block(b);
    const auto parity = RseCodec(blk.k, blk.n).encode(
        std::vector<std::vector<std::uint8_t>>(
            source.begin() + blk.source_offset,
            source.begin() + blk.source_offset + blk.k));
    for (std::uint32_t i = 0; i < blk.n - blk.k; ++i)
      ASSERT_EQ(encoder.payload(blk.parity_offset + i), parity[i])
          << "block " << b << " parity " << i;
  }
  // Lose the first n_b - k_b sources of every block, so each block needs
  // every parity packet.
  RseObjectDecoder decoder(plan, 48);
  for (const PacketId id : plan->interleaved_order()) {
    const BlockPosition pos = plan->position(id);
    const BlockInfo& blk = plan->block(pos.block);
    if (pos.index < blk.n - blk.k) continue;
    decoder.on_packet(id, encoder.payload(id));
  }
  ASSERT_TRUE(decoder.complete());
  for (std::uint32_t s = 0; s < 300; ++s)
    ASSERT_EQ(decoder.source_symbol(s), source[s]) << "source " << s;
}

// The object codec is the two ends of an RSE transfer: the encoder serves
// the sender's payload for every packet id, the decoder is the receiver.

TEST(SenderSession, PayloadOfSourceIsVerbatim) {
  // A 2048-byte object cut into 256-byte source symbols.
  Rng rng(5);
  std::vector<std::uint8_t> object(2048);
  fill_bytes(object, rng);
  std::vector<std::vector<std::uint8_t>> source;
  for (std::size_t off = 0; off < object.size(); off += 256)
    source.emplace_back(object.begin() + off, object.begin() + off + 256);
  const auto plan = std::make_shared<const RsePlan>(8, 1.5);
  const RseObjectEncoder encoder(plan, source);
  for (PacketId id = 0; id < plan->k(); ++id) {
    const auto& payload = encoder.payload(id);
    ASSERT_EQ(payload.size(), 256u);
    for (std::size_t b = 0; b < 256; ++b)
      ASSERT_EQ(payload[b], object[id * 256 + b]);
  }
  EXPECT_THROW((void)encoder.payload(plan->n()), std::invalid_argument);
}

TEST(ReceiverSession, ValidatesPackets) {
  const auto plan = std::make_shared<const RsePlan>(8, 1.5);
  RseObjectDecoder decoder(plan, 128);
  const std::vector<std::uint8_t> wrong(127);
  EXPECT_THROW(decoder.on_packet(0, wrong), std::invalid_argument);
  const std::vector<std::uint8_t> right(128);
  EXPECT_THROW(decoder.on_packet(plan->n(), right), std::invalid_argument);
  EXPECT_THROW((void)decoder.source_symbol(plan->k()), std::invalid_argument);
  // Reading a source before its block decoded is a logic error, not a
  // bad argument.
  try {
    (void)decoder.source_symbol(0);
    FAIL() << "expected std::logic_error";
  } catch (const std::invalid_argument&) {
    FAIL() << "expected std::logic_error, got std::invalid_argument";
  } catch (const std::logic_error&) {
  }
  EXPECT_EQ(decoder.packets_used(), 0u);
}

}  // namespace
}  // namespace fecsched
