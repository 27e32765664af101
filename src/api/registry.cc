#include "api/registry.h"

#include <stdexcept>

#include "channel/gilbert.h"

namespace fecsched::api {

namespace {

std::vector<std::string> engines(std::initializer_list<const char*> list) {
  return {list.begin(), list.end()};
}

}  // namespace

Registry::Registry() {
  // codes: the block-object codes of the paper (grid/adaptive engines)
  // and the streaming schemes (stream/mpath engines).  Names follow
  // spec_name(CodeKind) and the streaming to_string() labels, so every
  // name the repo already prints is a key.
  codes_ = {
      {"rse", {}, "Reed-Solomon erasure code over GF(2^8), blocked",
       engines({"grid", "adaptive"})},
      {"ldgm", {}, "plain LDGM, H = [H1 | I] (ablation); as a streaming "
       "scheme: one large-block LDGM with iterative peeling",
       engines({"grid", "adaptive", "stream", "mpath", "net"})},
      {"ldgm-staircase", {}, "LDGM Staircase (Sec. 2.3.3)",
       engines({"grid", "adaptive"})},
      {"ldgm-triangle", {}, "LDGM Triangle (Sec. 2.3.4) — the paper's "
       "universal recommendation",
       engines({"grid", "adaptive"})},
      {"replication", {}, "no FEC: each source sent x times (Sec. 4.2); "
       "as a streaming scheme: round-robin re-sends over the window",
       engines({"grid", "adaptive", "stream", "mpath", "net"})},
      {"sliding-window", {"sliding"}, "systematic sliding-window GF(256) "
       "code, on-the-fly decoding (Karzand-style low-delay streaming)",
       engines({"stream", "mpath", "net"})},
      {"block-rse", {}, "blocked Reed-Solomon streaming: per-block "
       "sources then parity, MDS completion rule",
       engines({"stream", "mpath", "net"})},
  };
  channels_ = {
      {"gilbert", {}, "two-state Markov erasure process (p, q); the "
       "paper's Sec. 3.2 loss model", engines({"grid", "stream", "mpath",
       "adaptive", "net"})},
      {"bernoulli", {"iid"}, "memoryless erasure process (Gilbert with "
       "q = 1 - p)", engines({"stream", "mpath", "net"})},
      {"perfect", {}, "the ideal channel: nothing is ever lost",
       engines({"stream", "mpath", "net"})},
  };
  tx_models_ = {
      {"tx1", {"1"}, "source sequential, then parity sequential (Sec. 4.3)",
       engines({"grid", "adaptive"})},
      {"tx2", {"2"}, "source sequential, then parity random (Sec. 4.4)",
       engines({"grid", "adaptive"})},
      {"tx3", {"3"}, "parity sequential, then source random (Sec. 4.5)",
       engines({"grid", "adaptive"})},
      {"tx4", {"4"}, "everything in one random permutation (Sec. 4.6)",
       engines({"grid", "adaptive"})},
      {"tx5", {"5"}, "per-block interleaving (Sec. 4.7)",
       engines({"grid", "adaptive"})},
      {"tx6", {"6"}, "random 20% of source + all parity, shuffled (Sec. 4.8)",
       engines({"grid", "adaptive"})},
      {"sequential", {"seq"}, "streaming order: each block's sources, then "
       "its parity", engines({"stream", "mpath", "net"})},
      {"interleaved", {}, "streaming order: Tx_model_5 per-block "
       "interleaving", engines({"stream", "mpath", "net"})},
      {"carousel", {}, "streaming order: sequential schedule looped until "
       "delivery", engines({"stream", "net"})},
  };
  path_schedulers_ = {
      {"round-robin", {"rr"}, "packet i on path i mod K — the naive "
       "spreading baseline", engines({"mpath"})},
      {"weighted", {}, "smooth weighted round-robin by path capacity, "
       "separate repair weights (the per-path adaptation knob)",
       engines({"mpath"})},
      {"split", {}, "sources on the lowest-delay path, repairs rotated "
       "over the others", engines({"mpath"})},
      {"earliest-arrival", {"earliest"}, "Kurant-style delay-aware mapping "
       "to the path with the smallest backlog-aware arrival time",
       engines({"mpath"})},
  };
  transports_ = {
      {"udp", {}, "nonblocking UDP datagram sockets on a 127.0.0.1 "
       "loopback pair; impairment injected above the (lossless) socket",
       engines({"net"})},
      {"memory", {"inproc"}, "in-process datagram queue pair; hermetic "
       "fallback with wire semantics identical to udp",
       engines({"net"})},
  };
}

const std::vector<RegistryEntry>& Registry::list(
    RegistrySection section) const {
  switch (section) {
    case RegistrySection::kCodes: return codes_;
    case RegistrySection::kChannels: return channels_;
    case RegistrySection::kTxModels: return tx_models_;
    case RegistrySection::kPathSchedulers: return path_schedulers_;
    case RegistrySection::kTransports: return transports_;
  }
  return codes_;
}

const RegistryEntry* Registry::lookup(RegistrySection section,
                                      std::string_view name) const {
  for (const RegistryEntry& e : list(section)) {
    if (e.name == name) return &e;
    for (const std::string& alias : e.aliases)
      if (alias == name) return &e;
  }
  return nullptr;
}

std::optional<RegistryEntry> Registry::describe(RegistrySection section,
                                                std::string_view name) const {
  const RegistryEntry* e = lookup(section, name);
  return e ? std::optional<RegistryEntry>(*e) : std::nullopt;
}

void Registry::unknown(RegistrySection section, std::string_view what,
                       std::string_view name,
                       std::string_view engine_filter) const {
  std::string known;
  for (const RegistryEntry& e : list(section)) {
    if (!engine_filter.empty()) {
      bool match = false;
      for (const std::string& eng : e.engines) match |= eng == engine_filter;
      if (!match) continue;
    }
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  throw std::invalid_argument("unknown " + std::string(what) + " '" +
                              std::string(name) + "' (known: " + known + ")");
}

// The typed resolvers canonicalise through lookup() first, so the entry
// tables above — names *and* aliases — are the single source of truth;
// only the canonical-name -> enum step is spelled out here.

CodeKind Registry::code(std::string_view name) const {
  const RegistryEntry* e = lookup(RegistrySection::kCodes, name);
  const std::string_view canon = e ? std::string_view(e->name) : name;
  if (canon == "rse") return CodeKind::kRse;
  if (canon == "ldgm") return CodeKind::kLdgmIdentity;
  if (canon == "ldgm-staircase") return CodeKind::kLdgmStaircase;
  if (canon == "ldgm-triangle") return CodeKind::kLdgmTriangle;
  if (canon == "replication") return CodeKind::kReplication;
  unknown(RegistrySection::kCodes, "code", name, "grid");
}

StreamScheme Registry::stream_scheme(std::string_view name) const {
  // "rse" canonicalises to the block-code entry; as a streaming scheme
  // it has always meant the blocked-RSE scheme, so map it explicitly.
  const RegistryEntry* e = lookup(RegistrySection::kCodes, name);
  const std::string_view canon = e ? std::string_view(e->name) : name;
  if (canon == "sliding-window") return StreamScheme::kSlidingWindow;
  if (canon == "block-rse" || canon == "rse") return StreamScheme::kBlockRse;
  if (canon == "ldgm") return StreamScheme::kLdgm;
  if (canon == "replication") return StreamScheme::kReplication;
  unknown(RegistrySection::kCodes, "streaming scheme", name, "stream");
}

TxModel Registry::tx_model(std::string_view name) const {
  const RegistryEntry* e = lookup(RegistrySection::kTxModels, name);
  const std::string_view canon = e ? std::string_view(e->name) : name;
  if (canon == "tx1") return TxModel::kTx1SeqSourceSeqParity;
  if (canon == "tx2") return TxModel::kTx2SeqSourceRandParity;
  if (canon == "tx3") return TxModel::kTx3SeqParityRandSource;
  if (canon == "tx4") return TxModel::kTx4AllRandom;
  if (canon == "tx5") return TxModel::kTx5Interleaved;
  if (canon == "tx6") return TxModel::kTx6FewSourceRandParity;
  unknown(RegistrySection::kTxModels, "tx model", name, "grid");
}

StreamScheduling Registry::stream_scheduling(std::string_view name) const {
  const RegistryEntry* e = lookup(RegistrySection::kTxModels, name);
  const std::string_view canon = e ? std::string_view(e->name) : name;
  if (canon == "sequential") return StreamScheduling::kSequential;
  if (canon == "interleaved") return StreamScheduling::kInterleaved;
  if (canon == "carousel") return StreamScheduling::kCarousel;
  unknown(RegistrySection::kTxModels, "stream scheduling", name, "stream");
}

PathScheduling Registry::path_scheduler(std::string_view name) const {
  const RegistryEntry* e = lookup(RegistrySection::kPathSchedulers, name);
  const std::string_view canon = e ? std::string_view(e->name) : name;
  if (canon == "round-robin") return PathScheduling::kRoundRobin;
  if (canon == "weighted") return PathScheduling::kWeighted;
  if (canon == "split") return PathScheduling::kSplit;
  if (canon == "earliest-arrival") return PathScheduling::kEarliestArrival;
  unknown(RegistrySection::kPathSchedulers, "path scheduler", name);
}

std::string Registry::transport(std::string_view name) const {
  const RegistryEntry* e = lookup(RegistrySection::kTransports, name);
  if (e != nullptr) return e->name;
  unknown(RegistrySection::kTransports, "transport", name, "net");
}

std::unique_ptr<LossModel> Registry::make_channel(
    std::string_view name, const ChannelParams& params) const {
  const RegistryEntry* e = lookup(RegistrySection::kChannels, name);
  const std::string_view canon = e ? std::string_view(e->name) : name;
  if (canon == "gilbert")
    return std::make_unique<GilbertModel>(params.p, params.q);
  if (canon == "bernoulli")
    return std::make_unique<GilbertModel>(params.p, 1.0 - params.p);
  if (canon == "perfect") return std::make_unique<PerfectChannel>();
  unknown(RegistrySection::kChannels, "channel model", name);
}

bool Registry::known_in_engine(std::string_view code_name,
                               std::string_view engine) const {
  const RegistryEntry* e = lookup(RegistrySection::kCodes, code_name);
  if (e == nullptr) return false;
  for (const std::string& eng : e->engines)
    if (eng == engine) return true;
  return false;
}

const Registry& registry() {
  static const Registry instance;
  return instance;
}

}  // namespace fecsched::api
