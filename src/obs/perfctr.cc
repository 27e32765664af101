#include "obs/perfctr.h"

#include <cstdlib>
#include <cstring>
#include <string>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace fecsched::obs {

namespace {

bool perf_env_disabled() {
  const char* v = std::getenv(kPerfEnv);
  return v != nullptr && std::strcmp(v, "off") == 0;
}

}  // namespace

api::Json perf_json(const PerfReport& perf) {
  api::Json j = api::Json::object();
  j.set("available", api::Json(perf.available));
  j.set("status", api::Json(perf.status));
  api::Json phases = api::Json::object();
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const PerfPhase& s = perf.phases[p];
    if (s.reads == 0) continue;
    api::Json row = api::Json::object();
    row.set("reads", api::Json::integer(s.reads));
    for (std::size_t i = 0; i < kPerfCounterCount; ++i)
      row.set(std::string(to_string(static_cast<PerfCounter>(i))),
              api::Json::integer(s.values[i]));
    phases.set(std::string(to_string(static_cast<Phase>(p))), std::move(row));
  }
  j.set("phases", std::move(phases));
  return j;
}

PerfReport perf_from_json(const api::Json& j) {
  j.check_keys("perf", {"available", "status", "phases"});
  PerfReport perf;
  perf.available = j.at("available").as_bool("perf.available");
  perf.status = j.at("status").as_string("perf.status");
  for (const auto& [name, row] : j.at("phases").as_object("perf.phases")) {
    const std::string where = "perf.phases." + name;
    row.check_keys(where, {"reads", "cycles", "instructions",
                           "cache_references", "cache_misses",
                           "branch_misses"});
    PerfPhase& s =
        perf.phases[static_cast<std::size_t>(phase_from_string(name))];
    s.reads = row.at("reads").as_uint64(where + ".reads");
    for (std::size_t i = 0; i < kPerfCounterCount; ++i) {
      const std::string_view key = to_string(static_cast<PerfCounter>(i));
      s.values[i] = row.at(key).as_uint64(where + "." + std::string(key));
    }
  }
  return perf;
}

#ifdef __linux__

namespace {

struct CounterConfig {
  std::uint32_t type;
  std::uint64_t config;
};

constexpr std::array<CounterConfig, kPerfCounterCount> kCounterConfigs = {{
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
}};

int open_counter(const CounterConfig& cc, int group_fd) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = cc.type;
  attr.config = cc.config;
  // Group reads return {nr, [value, id]...}; the ids let us map values
  // back to counters even when some members failed to open.
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID;
  attr.exclude_kernel = 1;  // user-space only: works at paranoid <= 2
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
                          group_fd, /*flags=*/0UL);
  return static_cast<int>(fd);
}

std::string open_error_status(int err) {
  std::string status = "perf_event_open failed: ";
  status += std::strerror(err);
  if (err == EACCES || err == EPERM) {
    status += " (check /proc/sys/kernel/perf_event_paranoid or container "
              "seccomp policy)";
  }
  return status;
}

}  // namespace

PerfGroup::PerfGroup() {
  fd_.fill(-1);
  if (perf_env_disabled()) {
    status_ = "disabled by FECSCHED_PERF=off";
    return;
  }
  group_fd_ = open_counter(kCounterConfigs[0], -1);
  if (group_fd_ < 0) {
    status_ = open_error_status(errno);
    return;
  }
  fd_[0] = group_fd_;
  for (std::size_t i = 1; i < kPerfCounterCount; ++i) {
    // Members that the PMU rejects (e.g. no cache-miss event) are simply
    // absent from the group; their values stay zero.
    fd_[i] = open_counter(kCounterConfigs[i], group_fd_);
  }
  bool ids_ok = true;
  for (std::size_t i = 0; i < kPerfCounterCount; ++i) {
    if (fd_[i] >= 0 && ioctl(fd_[i], PERF_EVENT_IOC_ID, &id_[i]) != 0) {
      ids_ok = false;
    }
  }
  if (!ids_ok) {
    status_ = "PERF_EVENT_IOC_ID failed";
    for (int& fd : fd_) {
      if (fd >= 0) close(fd);
      fd = -1;
    }
    group_fd_ = -1;
    return;
  }
  available_ = true;
  status_ = "ok";
}

PerfGroup::~PerfGroup() {
  for (const int fd : fd_) {
    if (fd >= 0) close(fd);
  }
}

void PerfGroup::read(PerfValues& out) noexcept {
  out.fill(0);
  if (!available_) return;
  // read_format layout: u64 nr; { u64 value; u64 id; } values[nr];
  std::array<std::uint64_t, 1 + 2 * kPerfCounterCount> buf{};
  const ssize_t n = ::read(group_fd_, buf.data(), sizeof(buf));
  if (n < static_cast<ssize_t>(sizeof(std::uint64_t))) return;
  const std::uint64_t nr = buf[0];
  for (std::uint64_t e = 0; e < nr && e < kPerfCounterCount; ++e) {
    const std::uint64_t value = buf[1 + 2 * e];
    const std::uint64_t id = buf[2 + 2 * e];
    for (std::size_t i = 0; i < kPerfCounterCount; ++i) {
      if (fd_[i] >= 0 && id_[i] == id) {
        out[i] = value;
        break;
      }
    }
  }
}

#else  // !__linux__

PerfGroup::PerfGroup() {
  fd_.fill(-1);
  status_ = perf_env_disabled() ? "disabled by FECSCHED_PERF=off"
                                : "perf counters unsupported on this platform";
}

PerfGroup::~PerfGroup() = default;

void PerfGroup::read(PerfValues& out) noexcept { out.fill(0); }

#endif  // __linux__

}  // namespace fecsched::obs
