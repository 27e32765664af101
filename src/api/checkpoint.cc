#include "api/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <vector>

#include "api/json.h"
#include "util/durable_io.h"
#include "util/faultpoint.h"

namespace fecsched::api {

namespace {

/// "fnv1a:deadbeef..." -> "deadbeef..." (file names should not carry a
/// colon; the algorithm tag is redundant with the shard body).
std::string fingerprint_tag(const std::string& fingerprint) {
  const std::size_t colon = fingerprint.find(':');
  return colon == std::string::npos ? fingerprint
                                    : fingerprint.substr(colon + 1);
}

/// mkdir that tolerates an existing directory.  Single level: checkpoint
/// directories are operator-chosen scratch paths, not deep trees.
void ensure_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw std::runtime_error("checkpoint: cannot create directory \"" + dir +
                           "\": " + std::strerror(errno));
}

Json stats_json(const RunningStats& s) {
  Json j = Json::object();
  j.set("n", Json::integer(s.count()));
  if (s.count() > 0) {
    // min/max are +/-inf while empty, which JSON cannot carry; an empty
    // accumulator is fully described by n=0.
    j.set("mean", Json(s.mean()));
    j.set("m2", Json(s.m2()));
    j.set("min", Json(s.min()));
    j.set("max", Json(s.max()));
  }
  return j;
}

RunningStats stats_from_json(const Json& j, std::string_view where) {
  const std::uint64_t count = j.at("n").as_uint64(where);
  if (count == 0) return RunningStats{};
  const auto field = [&](const char* key) {
    return j.at(key).as_double(where);
  };
  return RunningStats::restore(static_cast<std::size_t>(count), field("mean"),
                               field("m2"), field("min"), field("max"));
}

/// Remove the temp files that durable::write_file leaves when its writer
/// dies mid-write ("<tag>.cell<c>.json.tmp.<pid>") for this fingerprint's
/// shards.  One is removed only when its pid names no process, so a live
/// writer's temp file is never touched.
void remove_stale_temps(const std::string& dir,
                        const std::string& fingerprint) {
  const std::string prefix = fingerprint_tag(fingerprint) + ".cell";
  constexpr std::string_view kTemp = ".json.tmp.";
  const std::unique_ptr<DIR, int (*)(DIR*)> listing(::opendir(dir.c_str()),
                                                   &::closedir);
  if (listing == nullptr) return;
  while (const dirent* entry = ::readdir(listing.get())) {
    const std::string_view name = entry->d_name;
    const std::size_t at = name.rfind(kTemp);
    if (!name.starts_with(prefix) || at == std::string_view::npos) continue;
    const char* last = name.data() + name.size();
    pid_t pid = 0;
    const auto [stop, bad] =
        std::from_chars(name.data() + at + kTemp.size(), last, pid);
    if (bad != std::errc{} || stop != last || pid <= 0) continue;
    if (::kill(pid, 0) != 0 && errno == ESRCH)
      ::unlink((dir + "/" + std::string(name)).c_str());
  }
}

}  // namespace

std::string shard_path(const std::string& dir, const std::string& fingerprint,
                       std::size_t cell) {
  return dir + "/" + fingerprint_tag(fingerprint) + ".cell" +
         std::to_string(cell) + ".json";
}

std::string shard_json(const std::string& fingerprint, std::size_t cell,
                       const CellResult& c, std::uint32_t trials_per_cell) {
  Json j = Json::object();
  j.set("checkpoint", Json("fecsched-grid-cell"));
  j.set("spec", Json(fingerprint));
  j.set("cell", Json::integer(cell));
  j.set("trials_per_cell", Json::integer(trials_per_cell));
  j.set("p", Json(c.p));
  j.set("q", Json(c.q));
  j.set("trials", Json::integer(c.trials));
  j.set("failures", Json::integer(c.failures));
  j.set("timed_out", Json(c.timed_out));
  j.set("peak_memory_symbols", Json::integer(c.peak_memory_symbols));
  j.set("inefficiency", stats_json(c.inefficiency));
  j.set("received_ratio", stats_json(c.received_ratio));
  return j.dump(0) + "\n";
}

CellResult cell_from_shard(std::string_view text,
                           const std::string& fingerprint, std::size_t cell,
                           std::uint32_t trials_per_cell) {
  const Json doc = Json::parse(text);
  const std::string& kind = doc.at("checkpoint").as_string("checkpoint");
  if (kind != "fecsched-grid-cell")
    throw std::invalid_argument("not a grid-cell shard (checkpoint=\"" + kind +
                                "\")");
  const std::string& spec = doc.at("spec").as_string("spec");
  if (spec != fingerprint)
    throw std::invalid_argument("spec fingerprint mismatch (shard " + spec +
                                ", sweep " + fingerprint + ")");
  const std::uint64_t got_cell = doc.at("cell").as_uint64("cell");
  if (got_cell != cell)
    throw std::invalid_argument("cell index mismatch (shard " +
                                std::to_string(got_cell) + ", expected " +
                                std::to_string(cell) + ")");
  const std::uint64_t per_cell =
      doc.at("trials_per_cell").as_uint64("trials_per_cell");
  if (per_cell != trials_per_cell)
    throw std::invalid_argument(
        "trial count mismatch (shard " + std::to_string(per_cell) +
        " trials/cell, sweep " + std::to_string(trials_per_cell) + ")");

  CellResult c;
  c.p = doc.at("p").as_double("p");
  c.q = doc.at("q").as_double("q");
  c.trials = static_cast<std::uint32_t>(doc.at("trials").as_uint64("trials"));
  c.failures =
      static_cast<std::uint32_t>(doc.at("failures").as_uint64("failures"));
  c.timed_out = doc.at("timed_out").as_bool("timed_out");
  c.peak_memory_symbols = static_cast<std::uint32_t>(
      doc.at("peak_memory_symbols").as_uint64("peak_memory_symbols"));
  c.inefficiency = stats_from_json(doc.at("inefficiency"), "inefficiency");
  c.received_ratio =
      stats_from_json(doc.at("received_ratio"), "received_ratio");
  if (c.trials != trials_per_cell)
    throw std::invalid_argument("incomplete cell (" +
                                std::to_string(c.trials) + "/" +
                                std::to_string(trials_per_cell) + " trials)");
  return c;
}

void write_shard(const CheckpointSpec& checkpoint,
                 const std::string& fingerprint, std::size_t cell,
                 const CellResult& c, std::uint32_t trials_per_cell) {
  if (fault::point("checkpoint.shard"))
    throw fault::FaultInjected("checkpoint.shard");
  durable::write_file(shard_path(checkpoint.dir, fingerprint, cell),
                      shard_json(fingerprint, cell, c, trials_per_cell));
}

std::optional<CellResult> try_load_shard(const CheckpointSpec& checkpoint,
                                         const std::string& fingerprint,
                                         std::size_t cell,
                                         std::uint32_t trials_per_cell) {
  const std::string path = shard_path(checkpoint.dir, fingerprint, cell);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;  // never run, or torn away: rerun
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  try {
    return cell_from_shard(text, fingerprint, cell, trials_per_cell);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "checkpoint: %s: %s; recomputing cell %zu\n",
                 path.c_str(), e.what(), cell);
    return std::nullopt;
  }
}

void attach_checkpoint(GridRunOptions& options,
                       const CheckpointSpec& checkpoint,
                       const std::string& fingerprint) {
  ensure_dir(checkpoint.dir);
  const std::uint32_t trials = options.trials_per_cell;
  if (checkpoint.resume) {
    remove_stale_temps(checkpoint.dir, fingerprint);
    options.restore_cell = [=](std::size_t c) {
      return try_load_shard(checkpoint, fingerprint, c, trials);
    };
  }
  options.cell_done = [=](std::size_t c, const CellResult& cell) {
    write_shard(checkpoint, fingerprint, c, cell, trials);
  };
}

}  // namespace fecsched::api
