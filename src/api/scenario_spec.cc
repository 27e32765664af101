// ScenarioSpec: validation, JSON serialization (a fixed point), JSON
// parsing (unknown keys rejected with the offending key path), and
// resolution into the engines' native config structs.

#include "api/scenario.h"

#include <algorithm>
#include <stdexcept>

#include "api/json.h"
#include "net/wire.h"

namespace fecsched::api {

namespace {

[[noreturn]] void spec_error(const std::string& what) {
  throw std::invalid_argument("spec: " + what);
}

// ---------------------------------------------------------- serialize

Json doubles_array(const std::vector<double>& values) {
  Json arr = Json::array();
  for (double v : values) arr.push_back(Json(v));
  return arr;
}

Json spec_to_json_value(const ScenarioSpec& s) {
  Json root = Json::object();
  root.set("engine", Json(s.engine));

  Json code = Json::object();
  code.set("name", Json(s.code.name));
  code.set("ratio", Json(s.code.ratio));
  code.set("k", Json::integer(s.code.k));
  code.set("overhead", Json(s.code.overhead));
  code.set("window", Json::integer(s.code.window));
  code.set("block_k", Json::integer(s.code.block_k));
  root.set("code", std::move(code));

  Json channel = Json::object();
  channel.set("model", Json(s.channel.model));
  channel.set("p", Json(s.channel.p));
  channel.set("q", Json(s.channel.q));
  if (s.channel.p_global) channel.set("p_global", Json(*s.channel.p_global));
  if (s.channel.mean_burst)
    channel.set("mean_burst", Json(*s.channel.mean_burst));
  root.set("channel", std::move(channel));

  Json tx = Json::object();
  tx.set("model", Json(s.tx.model));
  tx.set("stream", Json(s.tx.stream));
  root.set("tx", std::move(tx));

  Json paths = Json::object();
  paths.set("scheduler", Json(s.paths.scheduler));
  Json list = Json::array();
  for (const PathEntry& e : s.paths.list) {
    Json entry = Json::object();
    entry.set("delay", Json(e.delay));
    entry.set("capacity", Json(e.capacity));
    list.push_back(std::move(entry));
  }
  paths.set("list", std::move(list));
  paths.set("count", Json::integer(s.paths.count));
  paths.set("base_delay", Json(s.paths.base_delay));
  paths.set("capacity", Json(s.paths.capacity));
  paths.set("repair_weights", doubles_array(s.paths.repair_weights));
  root.set("paths", std::move(paths));

  Json adapt = Json::object();
  adapt.set("enabled", Json(s.adapt.enabled));
  adapt.set("objects", Json::integer(s.adapt.objects));
  adapt.set("warmup", Json::integer(s.adapt.warmup));
  root.set("adapt", std::move(adapt));

  Json run = Json::object();
  run.set("sources", Json::integer(s.run.sources));
  run.set("trials", Json::integer(s.run.trials));
  run.set("seed", Json::integer(s.run.seed));
  run.set("threads", Json::integer(s.run.threads));
  root.set("run", std::move(run));

  Json sweep = Json::object();
  sweep.set("grid", Json(s.sweep.grid));
  sweep.set("p", doubles_array(s.sweep.p_values));
  sweep.set("q", doubles_array(s.sweep.q_values));
  sweep.set("p_global", doubles_array(s.sweep.p_globals));
  sweep.set("burst", doubles_array(s.sweep.bursts));
  sweep.set("overhead", doubles_array(s.sweep.overheads));
  sweep.set("delay_spread", doubles_array(s.sweep.delay_spreads));
  root.set("sweep", std::move(sweep));

  // Omitted entirely when default so pre-net spec documents stay
  // byte-identical fixed points.
  if (!(s.net == NetSpec{})) {
    Json net = Json::object();
    net.set("transport", Json(s.net.transport));
    net.set("payload_bytes", Json::integer(s.net.payload_bytes));
    net.set("report_interval", Json::integer(s.net.report_interval));
    net.set("recv_timeout_ms", Json::integer(s.net.recv_timeout_ms));
    net.set("parity", Json(s.net.parity));
    net.set("dump", Json(s.net.dump));
    root.set("net", std::move(net));
  }

  // Omitted entirely when default so pre-obs spec documents stay
  // byte-identical fixed points.
  if (!(s.obs == ObsSpec{})) {
    Json obs = Json::object();
    obs.set("metrics", Json(s.obs.metrics));
    obs.set("profile", Json(s.obs.profile));
    obs.set("trace", Json(s.obs.trace));
    obs.set("trace_sample", Json::integer(s.obs.trace_sample));
    obs.set("timeline", Json(s.obs.timeline));
    obs.set("counters", Json(s.obs.counters));
    root.set("obs", std::move(obs));
  }
  return root;
}

// -------------------------------------------------------------- parse

std::string join_path(std::string_view parent, const std::string& key) {
  return parent.empty() ? key : std::string(parent) + "." + key;
}

std::uint32_t as_uint32(const Json& v, const std::string& where) {
  const std::uint64_t x = v.as_uint64(where);
  if (x > 0xffffffffULL)
    spec_error("'" + where + "' does not fit in 32 bits");
  return static_cast<std::uint32_t>(x);
}

std::vector<double> as_doubles(const Json& v, const std::string& where) {
  std::vector<double> out;
  for (const Json& e : v.as_array(where)) out.push_back(e.as_double(where));
  return out;
}

/// Visit every member of `obj`, dispatching through `handle(key, value)`
/// which returns false for unknown keys.
template <typename Fn>
void walk_object(const Json& obj, std::string_view path, Fn&& handle) {
  for (const auto& [key, value] : obj.as_object(path.empty() ? "spec" : path)) {
    if (!handle(key, value))
      spec_error("unknown key '" + join_path(path, key) + "'");
  }
}

void parse_code(const Json& v, CodeSpec& out) {
  walk_object(v, "code", [&](const std::string& key, const Json& val) {
    if (key == "name") out.name = val.as_string("code.name");
    else if (key == "ratio") out.ratio = val.as_double("code.ratio");
    else if (key == "k") out.k = as_uint32(val, "code.k");
    else if (key == "overhead") out.overhead = val.as_double("code.overhead");
    else if (key == "window") out.window = as_uint32(val, "code.window");
    else if (key == "block_k") out.block_k = as_uint32(val, "code.block_k");
    else return false;
    return true;
  });
}

void parse_channel(const Json& v, ChannelSpec& out) {
  walk_object(v, "channel", [&](const std::string& key, const Json& val) {
    if (key == "model") out.model = val.as_string("channel.model");
    else if (key == "p") out.p = val.as_double("channel.p");
    else if (key == "q") out.q = val.as_double("channel.q");
    else if (key == "p_global")
      out.p_global = val.as_double("channel.p_global");
    else if (key == "mean_burst")
      out.mean_burst = val.as_double("channel.mean_burst");
    else return false;
    return true;
  });
}

void parse_tx(const Json& v, TxSpec& out) {
  walk_object(v, "tx", [&](const std::string& key, const Json& val) {
    if (key == "model") out.model = val.as_string("tx.model");
    else if (key == "stream") out.stream = val.as_string("tx.stream");
    else return false;
    return true;
  });
}

void parse_paths(const Json& v, PathsSpec& out) {
  walk_object(v, "paths", [&](const std::string& key, const Json& val) {
    if (key == "scheduler") {
      out.scheduler = val.as_string("paths.scheduler");
    } else if (key == "list") {
      out.list.clear();
      for (const Json& entry : val.as_array("paths.list")) {
        PathEntry e;
        walk_object(entry, "paths.list[]",
                    [&](const std::string& k, const Json& ev) {
                      if (k == "delay") e.delay = ev.as_double("paths.list[].delay");
                      else if (k == "capacity")
                        e.capacity = ev.as_double("paths.list[].capacity");
                      else return false;
                      return true;
                    });
        out.list.push_back(e);
      }
    } else if (key == "count") {
      out.count = as_uint32(val, "paths.count");
    } else if (key == "base_delay") {
      out.base_delay = val.as_double("paths.base_delay");
    } else if (key == "capacity") {
      out.capacity = val.as_double("paths.capacity");
    } else if (key == "repair_weights") {
      out.repair_weights = as_doubles(val, "paths.repair_weights");
    } else {
      return false;
    }
    return true;
  });
}

void parse_adapt(const Json& v, AdaptSpec& out) {
  walk_object(v, "adapt", [&](const std::string& key, const Json& val) {
    if (key == "enabled") out.enabled = val.as_bool("adapt.enabled");
    else if (key == "objects") out.objects = as_uint32(val, "adapt.objects");
    else if (key == "warmup") out.warmup = as_uint32(val, "adapt.warmup");
    else return false;
    return true;
  });
}

void parse_run(const Json& v, RunSpec& out) {
  walk_object(v, "run", [&](const std::string& key, const Json& val) {
    if (key == "sources") out.sources = as_uint32(val, "run.sources");
    else if (key == "trials") out.trials = as_uint32(val, "run.trials");
    else if (key == "seed") out.seed = val.as_uint64("run.seed");
    else if (key == "threads")
      out.threads = static_cast<unsigned>(as_uint32(val, "run.threads"));
    else return false;
    return true;
  });
}

void parse_sweep(const Json& v, SweepSpec& out) {
  walk_object(v, "sweep", [&](const std::string& key, const Json& val) {
    if (key == "grid") out.grid = val.as_string("sweep.grid");
    else if (key == "p") out.p_values = as_doubles(val, "sweep.p");
    else if (key == "q") out.q_values = as_doubles(val, "sweep.q");
    else if (key == "p_global")
      out.p_globals = as_doubles(val, "sweep.p_global");
    else if (key == "burst") out.bursts = as_doubles(val, "sweep.burst");
    else if (key == "overhead")
      out.overheads = as_doubles(val, "sweep.overhead");
    else if (key == "delay_spread")
      out.delay_spreads = as_doubles(val, "sweep.delay_spread");
    else return false;
    return true;
  });
}

void parse_net(const Json& v, NetSpec& out) {
  walk_object(v, "net", [&](const std::string& key, const Json& val) {
    if (key == "transport") out.transport = val.as_string("net.transport");
    else if (key == "payload_bytes")
      out.payload_bytes = as_uint32(val, "net.payload_bytes");
    else if (key == "report_interval")
      out.report_interval = as_uint32(val, "net.report_interval");
    else if (key == "recv_timeout_ms")
      out.recv_timeout_ms = as_uint32(val, "net.recv_timeout_ms");
    else if (key == "parity") out.parity = val.as_bool("net.parity");
    else if (key == "dump") out.dump = val.as_string("net.dump");
    else return false;
    return true;
  });
}

void parse_obs(const Json& v, ObsSpec& out) {
  walk_object(v, "obs", [&](const std::string& key, const Json& val) {
    if (key == "metrics") out.metrics = val.as_bool("obs.metrics");
    else if (key == "profile") out.profile = val.as_bool("obs.profile");
    else if (key == "trace") out.trace = val.as_string("obs.trace");
    else if (key == "trace_sample")
      out.trace_sample = as_uint32(val, "obs.trace_sample");
    else if (key == "timeline") out.timeline = val.as_string("obs.timeline");
    else if (key == "counters") out.counters = val.as_bool("obs.counters");
    else return false;
    return true;
  });
}

}  // namespace

ChannelPoint ChannelSpec::point() const {
  if (p_global || mean_burst)
    return gilbert_point(p_global.value_or(0.02), mean_burst.value_or(1.0));
  return {p, q};
}

std::string ScenarioSpec::to_json() const {
  return spec_to_json_value(*this).dump(2);
}

ScenarioSpec ScenarioSpec::from_json(std::string_view text) {
  const Json root = Json::parse(text);
  ScenarioSpec spec;
  walk_object(root, "", [&](const std::string& key, const Json& val) {
    if (key == "engine") spec.engine = val.as_string("engine");
    else if (key == "code") parse_code(val, spec.code);
    else if (key == "channel") parse_channel(val, spec.channel);
    else if (key == "tx") parse_tx(val, spec.tx);
    else if (key == "paths") parse_paths(val, spec.paths);
    else if (key == "adapt") parse_adapt(val, spec.adapt);
    else if (key == "run") parse_run(val, spec.run);
    else if (key == "sweep") parse_sweep(val, spec.sweep);
    else if (key == "net") parse_net(val, spec.net);
    else if (key == "obs") parse_obs(val, spec.obs);
    else return false;
    return true;
  });
  spec.validate();
  return spec;
}

void ScenarioSpec::validate() const {
  const Registry& reg = registry();
  if (engine != "grid" && engine != "stream" && engine != "mpath" &&
      engine != "adaptive" && engine != "net")
    spec_error("unknown engine '" + engine +
               "' (grid, stream, mpath, adaptive, net)");

  if (obs.trace_sample == 0)
    spec_error("obs.trace_sample must be >= 1");

  const std::optional<RegistryEntry> model =
      reg.describe(RegistrySection::kChannels, channel.model);
  if (!model) spec_error("unknown channel model '" + channel.model + "'");
  if (std::find(model->engines.begin(), model->engines.end(), engine) ==
      model->engines.end())
    spec_error("channel model '" + channel.model +
               "' is not usable by the " + engine + " engine");
  (void)channel.point();  // gilbert_point throws on bad coordinates

  if (engine == "grid") {
    if (run.trials == 0) spec_error("run.trials must be >= 1");
    (void)reg.code(code.name.empty() ? "ldgm-triangle" : code.name);
    (void)reg.tx_model(tx.model);
    if (!sweep.grid.empty() && sweep.grid != "paper" && sweep.grid != "fig7")
      spec_error("unknown sweep.grid '" + sweep.grid + "' (paper, fig7)");
  }
  if (engine == "stream" || engine == "mpath" || engine == "net") {
    if (!code.name.empty()) (void)reg.stream_scheme(code.name);
    const StreamScheduling sched = reg.stream_scheduling(tx.stream);
    if (engine == "mpath" && sched == StreamScheduling::kCarousel)
      spec_error("--sched must be seq|interleaved");
    if (run.sources == 0 || run.sources > 1000000)
      throw std::invalid_argument("--sources must be in [1, 1000000]");
    if (run.trials == 0 || run.trials > 10000)
      throw std::invalid_argument("--trials must be in [1, 10000]");
    // The sources x trials memory guard lives in run_scenario's
    // single-point engines: only they merge the full delay distribution
    // (the axis sweeps aggregate RunningStats and are unbounded).
  }
  if (engine == "net") {
    (void)reg.transport(net.transport);
    if (net.payload_bytes == 0 || net.payload_bytes > net::kMaxPayload)
      spec_error("net.payload_bytes must be in [1, " +
                 std::to_string(net::kMaxPayload) + "]");
  }
  if (engine == "mpath" && !paths.scheduler.empty())
    (void)reg.path_scheduler(paths.scheduler);
  if (engine == "adaptive") {
    // The adaptive engine measures its whole candidate-tuple space, so a
    // code name does not constrain it — but a name that does not resolve
    // (or names a stream-only scheme) is a spec mistake, not a no-op.
    if (!code.name.empty()) {
      (void)reg.code(code.name);
      if (!reg.known_in_engine(code.name, "adaptive"))
        spec_error("code '" + code.name +
                   "' is not usable by the adaptive engine");
    }
    to_adaptive_config(*this).validate();
  }
}

// ---------------------------------------------------- config resolvers

ExperimentConfig to_experiment_config(const ScenarioSpec& spec) {
  ExperimentConfig cfg;
  cfg.code = registry().code(spec.code.name.empty() ? "ldgm-triangle"
                                                    : spec.code.name);
  cfg.tx = registry().tx_model(spec.tx.model);
  cfg.expansion_ratio = spec.code.ratio;
  cfg.k = spec.code.k;
  return cfg;
}

StreamTrialConfig to_stream_config(const ScenarioSpec& spec) {
  StreamTrialConfig cfg;
  if (!spec.code.name.empty())
    cfg.scheme = registry().stream_scheme(spec.code.name);
  cfg.scheduling = registry().stream_scheduling(spec.tx.stream);
  cfg.source_count = spec.run.sources;
  cfg.overhead = spec.code.overhead;
  cfg.window = spec.code.window;
  cfg.block_k = spec.code.block_k;
  return cfg;
}

net::NetTrialConfig to_net_config(const ScenarioSpec& spec) {
  net::NetTrialConfig cfg;
  cfg.stream = to_stream_config(spec);
  cfg.payload_bytes = spec.net.payload_bytes;
  cfg.transport = registry().transport(spec.net.transport);
  cfg.recv_timeout_ms = spec.net.recv_timeout_ms;
  cfg.report_interval = spec.net.report_interval;
  return cfg;
}

MpathTrialConfig to_mpath_config(const ScenarioSpec& spec) {
  MpathTrialConfig cfg;
  cfg.stream = to_stream_config(spec);
  const ChannelPoint pt = spec.channel.point();
  for (const PathEntry& e : spec.paths.list) {
    if (spec.channel.model == "gilbert") {
      cfg.paths.push_back(PathSpec::gilbert(pt.p, pt.q, e.delay, e.capacity));
    } else {
      PathSpec path;
      path.delay = e.delay;
      path.capacity = e.capacity;
      path.make_channel = [model = spec.channel.model, pt] {
        return registry().make_channel(model, {pt.p, pt.q});
      };
      cfg.paths.push_back(std::move(path));
    }
  }
  if (!spec.paths.scheduler.empty())
    cfg.scheduler = registry().path_scheduler(spec.paths.scheduler);
  cfg.repair_weights = spec.paths.repair_weights;
  return cfg;
}

AdaptiveCompareConfig to_adaptive_config(const ScenarioSpec& spec) {
  AdaptiveCompareConfig cfg;
  cfg.k = spec.code.k;
  cfg.objects = spec.adapt.objects;
  cfg.warmup_objects = spec.adapt.warmup;
  cfg.seed = spec.run.seed;
  return cfg;
}

GridSpec to_grid_spec(const ScenarioSpec& spec) {
  if (spec.sweep.grid == "paper") return GridSpec::paper();
  if (spec.sweep.grid == "fig7") return GridSpec::fig7();
  if (!spec.sweep.grid.empty())
    spec_error("unknown sweep.grid '" + spec.sweep.grid + "' (paper, fig7)");
  if (!spec.sweep.p_values.empty() || !spec.sweep.q_values.empty()) {
    if (spec.sweep.p_values.empty() || spec.sweep.q_values.empty())
      spec_error("sweep.p and sweep.q must both be given");
    return GridSpec{spec.sweep.p_values, spec.sweep.q_values};
  }
  const ChannelPoint pt = spec.channel.point();
  return GridSpec{{pt.p}, {pt.q}};
}

std::vector<ChannelPoint> sweep_channel_points(const ScenarioSpec& spec) {
  std::vector<ChannelPoint> points;
  if (!spec.sweep.p_globals.empty() || !spec.sweep.bursts.empty()) {
    const std::vector<double>& pgs = spec.sweep.p_globals;
    const std::vector<double>& bursts =
        spec.sweep.bursts.empty() ? std::vector<double>{1.0}
                                  : spec.sweep.bursts;
    if (pgs.empty()) spec_error("sweep.burst requires sweep.p_global");
    for (double pg : pgs)
      for (double burst : bursts) points.push_back(gilbert_point(pg, burst));
  } else {
    points.push_back(spec.channel.point());
  }
  return points;
}

}  // namespace fecsched::api
