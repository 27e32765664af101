// Peeling decoder: cascade correctness, payload recovery, duplicate
// handling, equivalence between the structure-only and payload modes, and
// the solved-source list the streaming receivers release from.

#include <vector>

#include <gtest/gtest.h>

#include "fec/ge_decoder.h"
#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "util/rng.h"

namespace fecsched {
namespace {

LdgmCode make_code(std::uint32_t k, std::uint32_t n, LdgmVariant v,
                   std::uint64_t seed = 99) {
  LdgmParams p;
  p.k = k;
  p.n = n;
  p.variant = v;
  p.seed = seed;
  return LdgmCode(p);
}

std::vector<std::vector<std::uint8_t>> random_symbols(std::uint32_t count,
                                                      std::size_t size,
                                                      Rng& rng) {
  std::vector<std::vector<std::uint8_t>> out(count);
  for (auto& s : out) {
    s.resize(size);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return out;
}

TEST(PeelingDecoder, ConstructionValidated) {
  const auto code = make_code(10, 20, LdgmVariant::kStaircase);
  EXPECT_THROW(PeelingDecoder(code.matrix(), 0), std::invalid_argument);
  EXPECT_THROW(PeelingDecoder(code.matrix(), 20), std::invalid_argument);
  EXPECT_THROW(PeelingDecoder(code.matrix(), 5), std::invalid_argument);
  EXPECT_NO_THROW(PeelingDecoder(code.matrix(), 10));
}

TEST(PeelingDecoder, AllSourcesReceivedCompletes) {
  const auto code = make_code(50, 100, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 50);
  for (PacketId id = 0; id < 50; ++id) {
    EXPECT_FALSE(d.source_complete());
    d.add_packet(id);
  }
  EXPECT_TRUE(d.source_complete());
  EXPECT_EQ(d.known_source_count(), 50u);
}

TEST(PeelingDecoder, DuplicatesReturnZero) {
  const auto code = make_code(50, 100, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 50);
  EXPECT_GE(d.add_packet(7), 1u);
  EXPECT_EQ(d.add_packet(7), 0u);
  EXPECT_EQ(d.known_variable_count(), 1u);
}

TEST(PeelingDecoder, BadIdThrows) {
  const auto code = make_code(10, 20, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 10);
  EXPECT_THROW(d.add_packet(20), std::invalid_argument);
}

TEST(PeelingDecoder, PayloadSizeValidated) {
  const auto code = make_code(10, 20, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 10, 8);
  std::vector<std::uint8_t> wrong(7);
  EXPECT_THROW(d.add_packet(0, wrong), std::invalid_argument);
}

TEST(PeelingDecoder, StructureOnlySymbolAccessThrows) {
  const auto code = make_code(10, 20, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 10);
  d.add_packet(0);
  EXPECT_THROW((void)d.symbol(0), std::logic_error);
  EXPECT_THROW((void)d.row_accumulator(0), std::logic_error);
}

TEST(PeelingDecoder, CascadeFromParity) {
  // Staircase, all parity + one source: with balanced source row-degree,
  // one received source triggers a cascade (see Tx_model_3 analysis,
  // Sec. 4.5: LDGM-* "need exactly one source packet").
  const auto code = make_code(200, 500, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 200);
  for (PacketId id = 200; id < 500; ++id) d.add_packet(id);
  EXPECT_FALSE(d.source_complete());
  // Feed random sources until complete; typically very few are needed.
  Rng rng(3);
  std::uint32_t fed = 0;
  while (!d.source_complete()) {
    d.add_packet(static_cast<PacketId>(rng.below(200)));
    ++fed;
    ASSERT_LE(fed, 200u);
  }
  EXPECT_LE(fed, 10u);  // cascades should resolve almost immediately
}

TEST(PeelingDecoder, ResetRestoresFreshState) {
  const auto code = make_code(30, 60, LdgmVariant::kTriangle);
  PeelingDecoder d(code.matrix(), 30);
  for (PacketId id = 0; id < 30; ++id) d.add_packet(id);
  EXPECT_TRUE(d.source_complete());
  d.reset();
  EXPECT_FALSE(d.source_complete());
  EXPECT_EQ(d.known_variable_count(), 0u);
  for (PacketId id = 0; id < 30; ++id) d.add_packet(id);
  EXPECT_TRUE(d.source_complete());
}

struct PeelCase {
  LdgmVariant variant;
  std::uint32_t k;
  double ratio;
};

class PeelingRoundTrip : public ::testing::TestWithParam<PeelCase> {};

// Encode -> lose random packets -> decode from the survivors in random
// order -> recovered payloads must equal the originals, for every variant.
TEST_P(PeelingRoundTrip, PayloadRecoveryUnderRandomLoss) {
  const auto [variant, k, ratio] = GetParam();
  const auto n = static_cast<std::uint32_t>(k * ratio);
  const auto code = make_code(k, n, variant);
  Rng rng(derive_seed(1000, {static_cast<std::uint64_t>(variant), k}));
  const auto src = random_symbols(k, 16, rng);
  const auto parity = code.encode(src);

  for (int round = 0; round < 5; ++round) {
    PeelingDecoder d(code.matrix(), k, 16);
    // Receive a random permutation; stop as soon as decoding completes.
    std::vector<PacketId> order(n);
    for (PacketId id = 0; id < n; ++id) order[id] = id;
    shuffle(order, rng);
    std::uint32_t consumed = 0;
    for (const PacketId id : order) {
      const auto& payload = id < k ? src[id] : parity[id - k];
      d.add_packet(id, payload);
      ++consumed;
      if (d.source_complete()) break;
    }
    ASSERT_TRUE(d.source_complete()) << "round " << round;
    // LDGM needs somewhat more than k but far less than n.
    EXPECT_LT(consumed, n);
    for (PacketId id = 0; id < k; ++id) {
      const auto sym = d.symbol(id);
      ASSERT_TRUE(std::equal(sym.begin(), sym.end(), src[id].begin(),
                             src[id].end()))
          << "source " << id;
    }
  }
}

// Structure-only and payload decoders must complete at exactly the same
// packet in the same arrival order (shared bookkeeping).
TEST_P(PeelingRoundTrip, StructureOnlyMatchesPayloadMode) {
  const auto [variant, k, ratio] = GetParam();
  const auto n = static_cast<std::uint32_t>(k * ratio);
  const auto code = make_code(k, n, variant);
  Rng rng(derive_seed(2000, {static_cast<std::uint64_t>(variant), k}));
  const auto src = random_symbols(k, 4, rng);
  const auto parity = code.encode(src);

  std::vector<PacketId> order(n);
  for (PacketId id = 0; id < n; ++id) order[id] = id;
  shuffle(order, rng);

  PeelingDecoder structural(code.matrix(), k);
  PeelingDecoder payload(code.matrix(), k, 4);
  for (const PacketId id : order) {
    structural.add_packet(id);
    payload.add_packet(id, id < k ? src[id] : parity[id - k]);
    ASSERT_EQ(structural.source_complete(), payload.source_complete());
    ASSERT_EQ(structural.known_variable_count(), payload.known_variable_count());
    if (structural.source_complete()) break;
  }
  EXPECT_TRUE(structural.source_complete());
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndSizes, PeelingRoundTrip,
    ::testing::Values(PeelCase{LdgmVariant::kStaircase, 100, 2.5},
                      PeelCase{LdgmVariant::kStaircase, 500, 1.5},
                      PeelCase{LdgmVariant::kTriangle, 100, 2.5},
                      PeelCase{LdgmVariant::kTriangle, 500, 1.5},
                      PeelCase{LdgmVariant::kIdentity, 100, 2.5},
                      PeelCase{LdgmVariant::kIdentity, 500, 1.5},
                      PeelCase{LdgmVariant::kStaircase, 2000, 2.5},
                      PeelCase{LdgmVariant::kTriangle, 2000, 1.5}),
    [](const auto& info) {
      std::string name;
      switch (info.param.variant) {
        case LdgmVariant::kIdentity: name = "Identity"; break;
        case LdgmVariant::kStaircase: name = "Staircase"; break;
        default: name = "Triangle"; break;
      }
      return name + "k" + std::to_string(info.param.k) + "r" +
             std::to_string(static_cast<int>(info.param.ratio * 10));
    });

TEST(PeelingDecoder, ForceKnownCascades) {
  const auto code = make_code(100, 250, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 100);
  for (PacketId id = 100; id < 250; ++id) d.add_packet(id);
  const auto before = d.known_variable_count();
  // Injecting one source variable (as the GE fallback would) cascades.
  const auto newly = d.force_known(0);
  EXPECT_GE(newly, 1u);
  EXPECT_GT(d.known_variable_count(), before + newly - 1);
}

TEST(PeelingDecoder, RecoveredParityMatchesEncoder) {
  // Receive all sources: every parity variable becomes known through the
  // cascade and must equal the encoder's output.
  const auto code = make_code(60, 120, LdgmVariant::kTriangle);
  Rng rng(8);
  const auto src = random_symbols(60, 12, rng);
  const auto parity = code.encode(src);
  PeelingDecoder d(code.matrix(), 60, 12);
  for (PacketId id = 0; id < 60; ++id) d.add_packet(id, src[id]);
  EXPECT_TRUE(d.source_complete());
  // With staircase/triangle lower parts, knowing all sources implies all
  // parities become decodable (p_0 from row 0, then cascade down).
  for (PacketId id = 60; id < 120; ++id) {
    ASSERT_TRUE(d.is_known(id)) << "parity " << id;
    const auto sym = d.symbol(id);
    ASSERT_TRUE(std::equal(sym.begin(), sym.end(), parity[id - 60].begin(),
                           parity[id - 60].end()));
  }
}

// solved_sources() against a brute-force diff of is_known over [0, k):
// after every add_packet / force_known call it must list exactly the
// sources that call made known, ascending, and nothing for a duplicate.
// Packets arrive in random order with duplicates mixed in; peeling stops
// short of the whole object, and the variables ge_solve recovers (on a
// copy) are fed back one by one through force_known, as GE does.
struct SolvedCase {
  LdgmVariant variant;
  std::size_t symbol_size;  // 0 = structure-only
};

class PeelingSolvedSources : public ::testing::TestWithParam<SolvedCase> {};

TEST_P(PeelingSolvedSources, MatchBruteForceDiffAfterEveryCall) {
  const auto [variant, symbol_size] = GetParam();
  constexpr std::uint32_t k = 300, n = 450;
  const auto code = make_code(k, n, variant, 17);
  Rng rng(derive_seed(3000, {static_cast<std::uint64_t>(variant), symbol_size}));
  const std::size_t payload_size = symbol_size > 0 ? symbol_size : 1;
  const auto src = random_symbols(k, payload_size, rng);
  const auto parity = code.encode(src);
  const auto payload_of = [&](PacketId id) -> std::span<const std::uint8_t> {
    if (symbol_size == 0) return {};
    return id < k ? src[id] : parity[id - k];
  };

  std::uint64_t cascades = 0, duplicates = 0, ge_fed = 0;
  for (int round = 0; round < 6; ++round) {
    PeelingDecoder d(code.matrix(), k, symbol_size);
    std::vector<char> known_before(k, 0);
    const auto check = [&](PacketId id, bool duplicate) {
      std::vector<PacketId> expected;
      for (PacketId s = 0; s < k; ++s) {
        if (d.is_known(s) && !known_before[s]) expected.push_back(s);
        known_before[s] = d.is_known(s) ? 1 : 0;
      }
      const auto got = d.solved_sources();
      ASSERT_EQ(std::vector<PacketId>(got.begin(), got.end()), expected)
          << "round " << round << ", packet " << id;
      if (duplicate) {
        ASSERT_TRUE(got.empty()) << "duplicate " << id;
        ++duplicates;
      }
      if (got.size() > 1) ++cascades;
    };

    // A shuffled prefix of the packets, with an earlier packet repeated
    // after every fourth one.
    std::vector<PacketId> order(n);
    for (PacketId id = 0; id < n; ++id) order[id] = id;
    shuffle(order, rng);
    order.resize(k + 10 * static_cast<std::uint32_t>(round));
    std::vector<PacketId> arrivals;
    for (std::size_t i = 0; i < order.size(); ++i) {
      arrivals.push_back(order[i]);
      if (i % 4 == 0) arrivals.push_back(order[rng.below(i + 1)]);
    }
    for (const PacketId id : arrivals) {
      const bool duplicate = d.is_known(id);
      d.add_packet(id, payload_of(id));
      check(id, duplicate);
    }

    // GE feedback: every variable ML decoding determines, injected in a
    // random order (sources and parity alike, plus one duplicate).
    PeelingDecoder ml = d;
    ge_solve(ml);
    std::vector<PacketId> feedback;
    for (PacketId id = 0; id < n; ++id)
      if (ml.is_known(id) && !d.is_known(id)) feedback.push_back(id);
    shuffle(feedback, rng);
    for (const PacketId id : feedback) {
      const bool duplicate = d.is_known(id);
      d.force_known(id, payload_of(id));
      check(id, duplicate);
      ++ge_fed;
    }
    const PacketId again = arrivals.front();
    d.force_known(again, payload_of(again));
    check(again, true);
    for (PacketId id = 0; id < n; ++id)
      ASSERT_EQ(d.is_known(id), ml.is_known(id)) << "variable " << id;
  }
  // The arrival mix must actually exercise what the test is about.
  EXPECT_GT(cascades, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(ge_fed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndModes, PeelingSolvedSources,
    ::testing::Values(SolvedCase{LdgmVariant::kStaircase, 0},
                      SolvedCase{LdgmVariant::kStaircase, 8},
                      SolvedCase{LdgmVariant::kTriangle, 0},
                      SolvedCase{LdgmVariant::kTriangle, 8}),
    [](const auto& info) {
      return std::string(info.param.variant == LdgmVariant::kStaircase
                             ? "Staircase"
                             : "Triangle") +
             (info.param.symbol_size == 0 ? "Structure" : "Payload");
    });

}  // namespace
}  // namespace fecsched
