#include "obs/trace.h"

#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/manifest.h"
#include "util/durable_io.h"
#include "util/faultpoint.h"

namespace fecsched::obs {

using api::Json;

namespace {

EventKind kind_from_string(const std::string& s) {
  if (s == "sent") return EventKind::kSent;
  if (s == "lost") return EventKind::kLost;
  if (s == "received") return EventKind::kReceived;
  if (s == "decoded") return EventKind::kDecoded;
  if (s == "released") return EventKind::kReleased;
  throw std::invalid_argument("trace: unknown event kind \"" + s + "\"");
}

}  // namespace

Json event_to_json(const TraceEvent& ev) {
  Json j = Json::object();
  j.set("ev", Json(std::string(to_string(ev.kind))));
  j.set("trial", Json::integer(ev.trial));
  j.set("slot", Json(ev.slot));
  j.set("id", Json::integer(ev.id));
  switch (ev.kind) {
    case EventKind::kSent:
    case EventKind::kLost:
    case EventKind::kReceived:
      j.set("repair", Json(ev.repair));
      if (ev.path >= 0) j.set("path", Json::integer(static_cast<std::uint64_t>(ev.path)));
      if (ev.obj >= 0) j.set("obj", Json::integer(static_cast<std::uint64_t>(ev.obj)));
      break;
    case EventKind::kDecoded:
      break;
    case EventKind::kReleased:
      j.set("ok", Json(ev.ok));
      j.set("delay", Json(ev.delay));
      break;
  }
  return j;
}

TraceEvent event_from_json(const Json& j) {
  TraceEvent ev;
  const std::string& kind = j.at("ev").as_string("ev");
  ev.kind = kind_from_string(kind);
  ev.trial = j.at("trial").as_uint64("trial");
  ev.slot = j.at("slot").as_double("slot");
  ev.id = j.at("id").as_uint64("id");
  switch (ev.kind) {
    case EventKind::kSent:
    case EventKind::kLost:
    case EventKind::kReceived:
      j.check_keys(kind,
                   {"ev", "trial", "slot", "id", "repair", "path", "obj"});
      ev.repair = j.at("repair").as_bool("repair");
      if (const Json* p = j.find("path"))
        ev.path = static_cast<std::int32_t>(p->as_uint64("path"));
      if (const Json* o = j.find("obj"))
        ev.obj = static_cast<std::int64_t>(o->as_uint64("obj"));
      break;
    case EventKind::kDecoded:
      j.check_keys(kind, {"ev", "trial", "slot", "id"});
      break;
    case EventKind::kReleased:
      j.check_keys(kind, {"ev", "trial", "slot", "id", "ok", "delay"});
      ev.ok = j.at("ok").as_bool("ok");
      ev.delay = j.at("delay").as_double("delay");
      break;
  }
  return ev;
}

void validate_trace_line(const Json& j) {
  const std::string& ev = j.at("ev").as_string("ev");
  if (ev == "manifest") {
    // The manifest's own object, between "ev" and "trace_sample".
    (void)j.at("trace_sample").as_uint64("trace_sample");
    Json manifest = Json::object();
    for (const auto& [key, value] : j.as_object("manifest"))
      if (key != "ev" && key != "trace_sample") manifest.set(key, value);
    (void)manifest_from_json(manifest);
    return;
  }
  if (ev == "summary") {
    j.check_keys("summary", {"ev", "counters", "gauges"});
    (void)values_from_json(j.at("counters"), "counters");
    (void)values_from_json(j.at("gauges"), "gauges");
    return;
  }
  (void)event_from_json(j);
}

void write_trace_file(const std::string& path, const Json& manifest,
                      std::span<const TraceEvent> events,
                      const MetricsSnapshot& metrics) {
  if (fault::point("trace.write")) throw fault::FaultInjected("trace.write");
  // Serialize the whole document first, then one atomic temp+rename
  // write: a crash leaves either no trace file or a complete one, never
  // the truncated prefix trace_stats would otherwise choke on.
  std::string out;
  out += manifest.dump(0);
  out += '\n';
  for (const TraceEvent& ev : events) {
    out += event_to_json(ev).dump(0);
    out += '\n';
  }
  Json summary = Json::object();
  summary.set("ev", Json("summary"));
  summary.set("counters", values_json(metrics.counters));
  summary.set("gauges", values_json(metrics.gauges));
  out += summary.dump(0);
  out += '\n';
  durable::write_file(path, out);
}

TraceFile read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trace: cannot open \"" + path + "\"");
  TraceFile file;
  std::string line;
  std::size_t line_no = 0;
  bool have_summary = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Json j;
    try {
      j = Json::parse(line);
      validate_trace_line(j);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(path + ":" + std::to_string(line_no) + ": " + e.what());
    }
    const std::string& ev = j.find("ev")->as_string("ev");
    if (line_no == 1) {
      if (ev != "manifest")
        throw std::invalid_argument(path + ":1: first line must be the manifest");
      file.manifest = std::move(j);
    } else if (ev == "manifest") {
      throw std::invalid_argument(path + ":" + std::to_string(line_no) +
                                  ": duplicate manifest line");
    } else if (ev == "summary") {
      if (have_summary)
        throw std::invalid_argument(path + ":" + std::to_string(line_no) +
                                    ": duplicate summary line");
      file.summary = std::move(j);
      have_summary = true;
    } else {
      if (have_summary)
        throw std::invalid_argument(path + ":" + std::to_string(line_no) +
                                    ": event after summary line");
      file.events.push_back(event_from_json(j));
    }
  }
  if (line_no == 0) throw std::invalid_argument(path + ": empty trace file");
  if (!have_summary)
    throw std::invalid_argument(path + ": missing summary line (truncated trace?)");
  return file;
}

TraceResidual residual_from_trace(std::span<const TraceEvent> events) {
  TraceResidual r;
  bool in_trial = false;
  std::uint64_t trial = 0;
  std::uint64_t run = 0;
  const auto close_run = [&] {
    if (run > 0) {
      ++r.runs;
      if (run > r.max_run) r.max_run = run;
      run = 0;
    }
  };
  for (const TraceEvent& ev : events) {
    if (ev.kind != EventKind::kReleased) continue;
    if (!in_trial || ev.trial != trial) {
      close_run();
      in_trial = true;
      trial = ev.trial;
      ++r.trials;
    }
    ++r.released;
    if (!ev.ok) {
      ++r.lost;
      ++run;
    } else {
      close_run();
    }
  }
  close_run();
  return r;
}

}  // namespace fecsched::obs
