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

using api::Json;

Json record_to_json(const LedgerRecord& record) {
  Json j = Json::object();
  j.set("kind", Json(record.kind));
  if (!record.label.empty()) j.set("label", Json(record.label));
  j.set("manifest", manifest_to_json(record.manifest));
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
  const MetricsSnapshot& metrics = record.metrics;
  if (!metrics.counters.empty())
    j.set("counters", values_json(metrics.counters));
  if (!metrics.gauges.empty()) j.set("gauges", values_json(metrics.gauges));
  if (!metrics.histograms.empty())
    j.set("histograms", histograms_json(metrics.histograms));
  if (record.has_perf()) j.set("perf", perf_json(record.perf));
  if (!record.extra.is_null()) j.set("extra", record.extra);
  return j;
}

LedgerRecord record_from_json(const Json& j) {
  j.check_keys("record", {"kind", "label", "manifest", "phases", "counters",
                          "gauges", "histograms", "perf", "extra"});
  LedgerRecord record;
  record.kind = j.at("kind").as_string("kind");
  if (record.kind != "run" && record.kind != "bench")
    throw std::invalid_argument(
        "ledger: kind must be \"run\" or \"bench\", got \"" + record.kind +
        "\"");
  if (const Json* l = j.find("label")) record.label = l->as_string("label");
  record.manifest = manifest_from_json(j.at("manifest"));
  if (const Json* phases = j.find("phases")) {
    for (const auto& [name, row] : phases->as_object("phases")) {
      PhaseStats& s =
          record.phases[static_cast<std::size_t>(phase_from_string(name))];
      row.check_keys("phases." + name, {"calls", "ns"});
      s.calls = row.at("calls").as_uint64("phases." + name + ".calls");
      s.ns = row.at("ns").as_uint64("phases." + name + ".ns");
    }
  }
  MetricsSnapshot& metrics = record.metrics;
  if (const Json* c = j.find("counters"))
    metrics.counters = values_from_json(*c, "counters");
  if (const Json* g = j.find("gauges"))
    metrics.gauges = values_from_json(*g, "gauges");
  if (const Json* h = j.find("histograms"))
    metrics.histograms = histograms_from_json(*h);
  if (const Json* perf = j.find("perf")) record.perf = perf_from_json(*perf);
  if (const Json* extra = j.find("extra")) record.extra = *extra;
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
