#include "obs/manifest.h"

#include <unistd.h>

#include <cstdio>
#include <ctime>

namespace fecsched::obs {

namespace {

void append_fields(api::Json& j, const RunManifest& m) {
  append_manifest_identity(j, m);
  j.set("threads", api::Json::integer(m.threads));
  j.set("hardware_threads", api::Json::integer(m.hardware_threads));
  j.set("wall_seconds", api::Json(m.wall_seconds));
  // Attribution fields are optional so pre-PR-7 manifests (and manifests
  // built by tests with defaulted fields) serialize unchanged.
  if (!m.started_at.empty()) j.set("started_at", api::Json(m.started_at));
  if (!m.hostname.empty()) j.set("hostname", api::Json(m.hostname));
  if (m.max_rss_kb != 0) j.set("max_rss_kb", api::Json::integer(m.max_rss_kb));
  if (!m.status.empty()) j.set("status", api::Json(m.status));
}

}  // namespace

void append_manifest_identity(api::Json& j, const RunManifest& m) {
  j.set("spec", api::Json(m.fingerprint));
  j.set("api", api::Json(m.version));
  j.set("gf", api::Json(m.gf_backend));
  j.set("engine", api::Json(m.engine));
}

std::string iso8601_utc(std::chrono::system_clock::time_point when) {
  const std::time_t t = std::chrono::system_clock::to_time_t(when);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[80];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec);
  return buf;
}

std::string local_hostname() {
  char buf[256];
  if (gethostname(buf, sizeof buf) != 0) return {};
  buf[sizeof buf - 1] = '\0';
  return buf;
}

std::string spec_fingerprint(std::string_view canonical_json) {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::uint64_t h = fnv1a64(canonical_json);
  std::string out = "fnv1a:";
  for (int shift = 60; shift >= 0; shift -= 4)
    out += kHex[(h >> shift) & 0xF];
  return out;
}

api::Json manifest_to_json(const RunManifest& m) {
  api::Json j = api::Json::object();
  append_fields(j, m);
  return j;
}

RunManifest manifest_from_json(const api::Json& j) {
  j.check_keys("manifest",
               {"spec", "api", "gf", "engine", "threads", "hardware_threads",
                "wall_seconds", "started_at", "hostname", "max_rss_kb",
                "status"});
  RunManifest m;
  m.fingerprint = j.at("spec").as_string("manifest.spec");
  m.version = j.at("api").as_string("manifest.api");
  m.gf_backend = j.at("gf").as_string("manifest.gf");
  m.engine = j.at("engine").as_string("manifest.engine");
  m.threads = static_cast<unsigned>(
      j.at("threads").as_uint64("manifest.threads"));
  m.hardware_threads = static_cast<unsigned>(
      j.at("hardware_threads").as_uint64("manifest.hardware_threads"));
  m.wall_seconds = j.at("wall_seconds").as_double("manifest.wall_seconds");
  if (const api::Json* s = j.find("started_at"))
    m.started_at = s->as_string("manifest.started_at");
  if (const api::Json* h = j.find("hostname"))
    m.hostname = h->as_string("manifest.hostname");
  if (const api::Json* r = j.find("max_rss_kb"))
    m.max_rss_kb = r->as_uint64("manifest.max_rss_kb");
  if (const api::Json* s = j.find("status"))
    m.status = s->as_string("manifest.status");
  return m;
}

api::Json manifest_to_trace_line(const RunManifest& m, std::uint32_t trace_sample) {
  api::Json j = api::Json::object();
  j.set("ev", api::Json("manifest"));
  append_fields(j, m);
  j.set("trace_sample", api::Json::integer(trace_sample));
  return j;
}

}  // namespace fecsched::obs
