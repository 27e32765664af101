#include "obs/timeline.h"

#include "api/json.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "util/durable_io.h"
#include "util/faultpoint.h"

namespace fecsched::obs {

std::vector<TimelineSpan> SpanRing::drain() {
  std::vector<TimelineSpan> out;
  out.reserve(buf_.size());
  // head_ is the oldest element once the ring has wrapped.
  for (std::size_t i = head_; i < buf_.size(); ++i)
    out.push_back(std::move(buf_[i]));
  for (std::size_t i = 0; i < head_; ++i) out.push_back(std::move(buf_[i]));
  buf_.clear();
  head_ = 0;
  return out;
}

namespace {

constexpr double kNsPerUs = 1000.0;

api::Json event_base(std::string name, std::string_view cat, std::string_view ph,
                     const TimelineSpan& s) {
  api::Json ev = api::Json::object();
  ev.set("name", api::Json(std::move(name)));
  ev.set("cat", api::Json(std::string(cat)));
  ev.set("ph", api::Json(std::string(ph)));
  ev.set("ts", api::Json(static_cast<double>(s.t0_ns) / kNsPerUs));
  ev.set("pid", api::Json::integer(1));
  ev.set("tid", api::Json::integer(s.lane));
  return ev;
}

api::Json metadata_event(std::string_view name, std::uint32_t tid,
                         std::string label) {
  api::Json ev = api::Json::object();
  ev.set("name", api::Json(std::string(name)));
  ev.set("ph", api::Json("M"));
  ev.set("pid", api::Json::integer(1));
  ev.set("tid", api::Json::integer(tid));
  api::Json args = api::Json::object();
  args.set("name", api::Json(std::move(label)));
  ev.set("args", std::move(args));
  return ev;
}

void append_span_events(api::Json& events, const TimelineSpan& s) {
  switch (s.kind) {
    case SpanKind::kPhase: {
      api::Json ev = event_base(std::string(to_string(s.phase)), "phase", "X", s);
      ev.set("dur", api::Json(static_cast<double>(s.t1_ns - s.t0_ns) / kNsPerUs));
      api::Json args = api::Json::object();
      args.set("trial", api::Json::integer(s.arg));
      ev.set("args", std::move(args));
      events.push_back(std::move(ev));
      return;
    }
    case SpanKind::kTrial: {
      api::Json ev =
          event_base("trial " + std::to_string(s.arg), "trial", "X", s);
      ev.set("dur", api::Json(static_cast<double>(s.t1_ns - s.t0_ns) / kNsPerUs));
      events.push_back(std::move(ev));
      return;
    }
    case SpanKind::kCell: {
      api::Json ev = event_base("cell " + std::to_string(s.arg), "cell", "X", s);
      ev.set("dur", api::Json(static_cast<double>(s.t1_ns - s.t0_ns) / kNsPerUs));
      events.push_back(std::move(ev));
      return;
    }
    case SpanKind::kWorker: {
      // Begin/end pairs (rather than one complete event) so consumers —
      // and the CI balanced-span grep — can verify every worker that
      // started also finished.
      const std::string name = "worker " + std::to_string(s.arg);
      events.push_back(event_base(name, "worker", "B", s));
      TimelineSpan end = s;  // Json::set appends; give E its own ts instead.
      end.t0_ns = s.t1_ns;
      events.push_back(event_base(name, "worker", "E", end));
      return;
    }
    case SpanKind::kInstant: {
      api::Json ev = event_base(s.label, "instant", "i", s);
      ev.set("s", api::Json("t"));
      api::Json args = api::Json::object();
      args.set("trial", api::Json::integer(s.arg));
      ev.set("args", std::move(args));
      events.push_back(std::move(ev));
      return;
    }
  }
}

}  // namespace

api::Json timeline_json(const RunManifest& manifest, const Report& report) {
  api::Json doc = api::Json::object();
  api::Json events = api::Json::array();
  events.push_back(metadata_event("process_name", 0, "fecsched"));
  for (std::uint32_t lane = 0; lane < report.lanes; ++lane)
    events.push_back(
        metadata_event("thread_name", lane, "lane " + std::to_string(lane)));
  for (const TimelineSpan& s : report.spans) append_span_events(events, s);
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", api::Json("ms"));
  api::Json other = api::Json::object();
  append_manifest_identity(other, manifest);
  other.set("lanes", api::Json::integer(report.lanes));
  other.set("dropped_spans", api::Json::integer(report.spans_dropped));
  doc.set("otherData", std::move(other));
  return doc;
}

bool write_timeline_file(const std::string& path, const RunManifest& manifest,
                         const Report& report) {
  if (fault::point("timeline.write"))
    throw fault::FaultInjected("timeline.write");
  try {
    durable::write_file(path, timeline_json(manifest, report).dump(0) + "\n");
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

}  // namespace fecsched::obs
