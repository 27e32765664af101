#include "obs/ledger.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <stdexcept>
#include <tuple>

#include "util/durable_io.h"
#include "util/faultpoint.h"

namespace fecsched::obs {

namespace {

using api::Json;

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("ledger: " + what);
}

const Json& require(const Json& j, std::string_view key) {
  const Json* v = j.find(key);
  if (v == nullptr) bad("missing key \"" + std::string(key) + "\"");
  return *v;
}

void check_keys(const Json& j, std::string_view where,
                std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : j.as_object(where)) {
    bool known = false;
    for (std::string_view a : allowed)
      if (key == a) {
        known = true;
        break;
      }
    if (!known)
      bad("unknown key \"" + key + "\" in " + std::string(where));
  }
}

Json manifest_section(const RunManifest& m) { return manifest_to_json(m); }

RunManifest manifest_from_json(const Json& j) {
  check_keys(j, "manifest",
             {"spec", "api", "gf", "engine", "threads", "hardware_threads",
              "wall_seconds", "started_at", "hostname", "max_rss_kb",
              "status"});
  RunManifest m;
  m.fingerprint = require(j, "spec").as_string("manifest.spec");
  m.version = require(j, "api").as_string("manifest.api");
  m.gf_backend = require(j, "gf").as_string("manifest.gf");
  m.engine = require(j, "engine").as_string("manifest.engine");
  m.threads = static_cast<unsigned>(
      require(j, "threads").as_uint64("manifest.threads"));
  m.hardware_threads = static_cast<unsigned>(
      require(j, "hardware_threads").as_uint64("manifest.hardware_threads"));
  m.wall_seconds = require(j, "wall_seconds").as_double("manifest.wall_seconds");
  if (const Json* s = j.find("started_at"))
    m.started_at = s->as_string("manifest.started_at");
  if (const Json* h = j.find("hostname"))
    m.hostname = h->as_string("manifest.hostname");
  if (const Json* r = j.find("max_rss_kb"))
    m.max_rss_kb = r->as_uint64("manifest.max_rss_kb");
  if (const Json* s = j.find("status"))
    m.status = s->as_string("manifest.status");
  return m;
}

Json perf_section(const PerfReport& perf) {
  Json j = Json::object();
  j.set("available", Json(perf.available));
  j.set("status", Json(perf.status));
  Json phases = Json::object();
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const PerfPhase& s = perf.phases[p];
    if (s.reads == 0) continue;
    Json row = Json::object();
    row.set("reads", Json::integer(s.reads));
    for (std::size_t i = 0; i < kPerfCounterCount; ++i)
      row.set(std::string(to_string(static_cast<PerfCounter>(i))),
              Json::integer(s.values[i]));
    phases.set(std::string(to_string(static_cast<Phase>(p))), std::move(row));
  }
  j.set("phases", std::move(phases));
  return j;
}

Phase phase_from_string(const std::string& name) {
  for (std::size_t p = 0; p < kPhaseCount; ++p)
    if (name == to_string(static_cast<Phase>(p))) return static_cast<Phase>(p);
  bad("unknown phase \"" + name + "\"");
}

}  // namespace

Json record_to_json(const LedgerRecord& record) {
  Json j = Json::object();
  j.set("kind", Json(record.kind));
  if (!record.label.empty()) j.set("label", Json(record.label));
  j.set("manifest", manifest_section(record.manifest));
  if (record.has_profile()) {
    Json phases = Json::object();
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const PhaseStats& s = record.phases[p];
      if (s.calls == 0) continue;
      Json row = Json::object();
      row.set("calls", Json::integer(s.calls));
      row.set("ns", Json::integer(s.ns));
      phases.set(std::string(to_string(static_cast<Phase>(p))),
                 std::move(row));
    }
    j.set("phases", std::move(phases));
  }
  if (!record.metrics.counters.empty()) {
    Json counters = Json::object();
    for (const auto& [name, v] : record.metrics.counters)
      counters.set(name, Json::integer(v));
    j.set("counters", std::move(counters));
  }
  if (!record.metrics.gauges.empty()) {
    Json gauges = Json::object();
    for (const auto& [name, v] : record.metrics.gauges)
      gauges.set(name, Json::integer(v));
    j.set("gauges", std::move(gauges));
  }
  if (!record.metrics.histograms.empty()) {
    Json histograms = Json::object();
    for (const MetricsSnapshot::Hist& h : record.metrics.histograms) {
      Json hist = Json::object();
      Json bounds = Json::array();
      for (std::uint64_t b : h.bounds) bounds.push_back(Json::integer(b));
      Json counts = Json::array();
      for (std::uint64_t c : h.counts) counts.push_back(Json::integer(c));
      hist.set("bounds", std::move(bounds));
      hist.set("counts", std::move(counts));
      histograms.set(h.name, std::move(hist));
    }
    j.set("histograms", std::move(histograms));
  }
  if (record.has_perf()) j.set("perf", perf_section(record.perf));
  if (!record.extra.is_null()) j.set("extra", record.extra);
  return j;
}

LedgerRecord record_from_json(const Json& j) {
  check_keys(j, "record",
             {"kind", "label", "manifest", "phases", "counters", "gauges",
              "histograms", "perf", "extra"});
  LedgerRecord record;
  record.kind = require(j, "kind").as_string("kind");
  if (record.kind != "run" && record.kind != "bench")
    bad("kind must be \"run\" or \"bench\", got \"" + record.kind + "\"");
  if (const Json* l = j.find("label")) record.label = l->as_string("label");
  record.manifest = manifest_from_json(require(j, "manifest"));
  if (const Json* phases = j.find("phases")) {
    for (const auto& [name, row] : phases->as_object("phases")) {
      const Phase p = phase_from_string(name);
      PhaseStats& s = record.phases[static_cast<std::size_t>(p)];
      check_keys(row, "phases." + name, {"calls", "ns"});
      s.calls = require(row, "calls").as_uint64("phases." + name + ".calls");
      s.ns = require(row, "ns").as_uint64("phases." + name + ".ns");
    }
  }
  if (const Json* counters = j.find("counters"))
    for (const auto& [name, v] : counters->as_object("counters"))
      record.metrics.counters.emplace_back(name,
                                           v.as_uint64("counters." + name));
  if (const Json* gauges = j.find("gauges"))
    for (const auto& [name, v] : gauges->as_object("gauges"))
      record.metrics.gauges.emplace_back(name, v.as_uint64("gauges." + name));
  if (const Json* histograms = j.find("histograms")) {
    for (const auto& [name, h] : histograms->as_object("histograms")) {
      check_keys(h, "histograms." + name, {"bounds", "counts"});
      MetricsSnapshot::Hist hist;
      hist.name = name;
      for (const Json& b : require(h, "bounds").as_array("bounds"))
        hist.bounds.push_back(b.as_uint64("histograms." + name + ".bounds"));
      for (const Json& c : require(h, "counts").as_array("counts"))
        hist.counts.push_back(c.as_uint64("histograms." + name + ".counts"));
      if (hist.counts.size() != hist.bounds.size() + 1)
        bad("histograms." + name + ": counts must have bounds+1 entries");
      record.metrics.histograms.push_back(std::move(hist));
    }
  }
  if (const Json* perf = j.find("perf")) {
    check_keys(*perf, "perf", {"available", "status", "phases"});
    record.perf.available = require(*perf, "available").as_bool("perf.available");
    record.perf.status = require(*perf, "status").as_string("perf.status");
    for (const auto& [name, row] : require(*perf, "phases").as_object("perf.phases")) {
      const Phase p = phase_from_string(name);
      PerfPhase& s = record.perf.phases[static_cast<std::size_t>(p)];
      check_keys(row, "perf.phases." + name,
                 {"reads", "cycles", "instructions", "cache_references",
                  "cache_misses", "branch_misses"});
      s.reads = require(row, "reads").as_uint64("perf.phases." + name + ".reads");
      for (std::size_t i = 0; i < kPerfCounterCount; ++i) {
        const std::string key(to_string(static_cast<PerfCounter>(i)));
        s.values[i] =
            require(row, key).as_uint64("perf.phases." + name + "." + key);
      }
    }
  }
  if (const Json* extra = j.find("extra")) record.extra = *extra;

  // Canonical member order regardless of source order, so a loaded
  // record re-serializes to the same bytes compact_records() would write.
  std::sort(record.metrics.counters.begin(), record.metrics.counters.end());
  std::sort(record.metrics.gauges.begin(), record.metrics.gauges.end());
  std::sort(record.metrics.histograms.begin(), record.metrics.histograms.end(),
            [](const MetricsSnapshot::Hist& a, const MetricsSnapshot::Hist& b) {
              return a.name < b.name;
            });
  return record;
}

std::string ledger_line(const LedgerRecord& record) {
  return record_to_json(record).dump(0);
}

LedgerRecord make_run_record(const RunManifest& manifest,
                             const Report& report) {
  LedgerRecord record;
  record.kind = "run";
  record.manifest = manifest;
  record.phases = report.phases;
  record.metrics = report.metrics;
  if (report.config.counters) record.perf = report.perf;
  return record;
}

void append_record(const std::string& path, const LedgerRecord& record) {
  // Fault site + durable O_APPEND single-write(2) append: concurrent
  // shard writers never interleave, and a crash can at worst tear the
  // tail of the final line — exactly what load_ledger tolerates.
  if (fault::point("ledger.append")) throw fault::FaultInjected("ledger.append");
  durable::append_line(path, ledger_line(record));
}

std::vector<LedgerRecord> load_ledger_stream(std::istream& in,
                                             const std::string& name,
                                             bool strict) {
  // Read the whole stream first: torn-tail tolerance needs to know
  // whether the final line is missing its newline (the signature of a
  // crash mid-append) or is mid-file corruption (always rejected).
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const bool ends_with_newline = !text.empty() && text.back() == '\n';

  std::vector<LedgerRecord> records;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    const bool last = end == std::string::npos;
    if (last) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    ++line_no;
    pos = end + 1;
    if (line.empty()) continue;
    try {
      records.push_back(record_from_json(Json::parse(line)));
    } catch (const std::invalid_argument& e) {
      if (!strict && last && !ends_with_newline) {
        // Exactly one trailing partial line without a newline: the torn
        // tail a crashed appender leaves.  Drop it with a warning; every
        // complete record before it is intact.
        std::fprintf(stderr,
                     "ledger: %s:%zu: ignoring torn trailing record "
                     "(%zu bytes, no newline); pass --strict to reject\n",
                     name.c_str(), line_no, line.size());
        break;
      }
      throw std::invalid_argument(name + ":" + std::to_string(line_no) + ": " +
                                  e.what());
    }
  }
  return records;
}

std::vector<LedgerRecord> load_ledger(const std::string& path, bool strict) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ledger: cannot open \"" + path + "\"");
  return load_ledger_stream(in, path, strict);
}

std::vector<LedgerRecord> compact_records(std::vector<LedgerRecord> records) {
  std::vector<std::pair<std::string, LedgerRecord>> keyed;
  keyed.reserve(records.size());
  for (LedgerRecord& r : records)
    keyed.emplace_back(ledger_line(r), std::move(r));
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) {
              const RunManifest& ma = a.second.manifest;
              const RunManifest& mb = b.second.manifest;
              return std::tie(ma.fingerprint, ma.engine, ma.gf_backend,
                              ma.started_at, ma.hostname, a.first) <
                     std::tie(mb.fingerprint, mb.engine, mb.gf_backend,
                              mb.started_at, mb.hostname, b.first);
            });
  std::vector<LedgerRecord> out;
  out.reserve(keyed.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    if (i > 0 && keyed[i].first == keyed[i - 1].first) continue;
    out.push_back(std::move(keyed[i].second));
  }
  return out;
}

}  // namespace fecsched::obs
