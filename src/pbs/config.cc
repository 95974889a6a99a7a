#include "pbs/config.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>

namespace pbs {

Status QuorumOptions::Validate() const {
  return ValidateQuorumConfig(ToQuorumConfig());
}

Status WorkloadOptions::Validate() const {
  if (writes < 1) return Status::InvalidArgument("workload.writes must be >= 1");
  if (write_spacing_ms <= 0.0) {
    return Status::InvalidArgument("workload.write_spacing_ms must be > 0");
  }
  if (read_offsets_ms.empty()) {
    return Status::InvalidArgument("workload.read_offsets_ms must be non-empty");
  }
  for (double offset : read_offsets_ms) {
    if (offset < 0.0) {
      return Status::InvalidArgument("workload.read_offsets_ms must be >= 0");
    }
  }
  return Status::Ok();
}

Status ParseFaultSpec(const std::string& spec, double horizon_ms,
                      kvs::FaultSchedule* schedule,
                      int default_gray_replicas) {
  // The keys each kind reads. Every kind but gray also reads start= and
  // end=; gray draws its faults over the whole run.
  static const std::map<std::string, std::string> kKeys = {
      {"slow", "node|factor|add|start|end"},
      {"lossy", "src|dst|g2b|b2g|loss|loss-good|start|end"},
      {"dup", "src|dst|p|start|end"},
      {"flap", "node|up|down|start|end"},
      {"oneway", "src|dst|start|end"},
      {"gray", "replicas|interarrival|duration|seed"},
  };
  const size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const auto keys = kKeys.find(kind);
  if (keys == kKeys.end()) {
    return Status::InvalidArgument(
        "unknown fault kind '" + kind +
        "' (expected slow|lossy|dup|flap|oneway|gray)");
  }
  std::map<std::string, double> kv;
  if (colon != std::string::npos) {
    const std::string rest = spec.substr(colon + 1);
    size_t pos = 0;
    while (pos < rest.size()) {
      size_t comma = rest.find(',', pos);
      if (comma == std::string::npos) comma = rest.size();
      const std::string item = rest.substr(pos, comma - pos);
      const size_t eq = item.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("bad fault parameter '" + item +
                                       "' in spec '" + spec + "'");
      }
      const std::string key = item.substr(0, eq);
      if (("|" + keys->second + "|").find("|" + key + "|") ==
          std::string::npos) {
        return Status::InvalidArgument(
            "fault kind '" + kind + "' reads no parameter '" + key +
            "' in spec '" + spec + "' (expected " + keys->second + ")");
      }
      const char* text = item.c_str() + eq + 1;
      char* parsed_end = nullptr;
      const double value = std::strtod(text, &parsed_end);
      if (*text == '\0' || *parsed_end != '\0' || !std::isfinite(value)) {
        return Status::InvalidArgument("fault parameter '" + item +
                                       "' in spec '" + spec +
                                       "' is not a finite number");
      }
      kv[key] = value;
      pos = comma + 1;
    }
  }
  const auto get = [&kv](const std::string& key, double fallback) {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  };
  const auto whole = [](double value, double limit) {
    return value >= 0.0 && value == std::floor(value) && value <= limit;
  };
  const auto invalid = [&spec](const std::string& why) {
    return Status::InvalidArgument("fault spec '" + spec + "': " + why);
  };
  for (const char* key : {"node", "src", "dst", "replicas"}) {
    if (!whole(get(key, 0.0), std::numeric_limits<NodeId>::max())) {
      return invalid(std::string(key) + " must be a non-negative integer");
    }
  }
  // The largest double below 2^64, so the seed fits a uint64_t.
  if (!whole(get("seed", 0.0), 18446744073709549568.0)) {
    return invalid("seed must be a non-negative integer");
  }
  const double start = get("start", 0.0);
  const double end = get("end", horizon_ms);
  // A dry run does not know the run's end, so only an explicit end= counts.
  if ((schedule != nullptr || kv.count("end") != 0) && !(end > start)) {
    std::ostringstream why;
    why << "must end after it starts (start=" << start << ", end=" << end
        << (kv.count("end") != 0 ? "" : ", the run's end") << ")";
    return invalid(why.str());
  }
  if (kind == "slow" &&
      !(get("factor", 10.0) >= 1.0 || get("add", 0.0) > 0.0)) {
    return invalid("needs factor >= 1 or add > 0");
  }
  if (kind == "flap" && !(get("up", 300.0) > 0.0 && get("down", 200.0) > 0.0)) {
    return invalid("needs up > 0 and down > 0");
  }
  const double replicas =
      get("replicas", static_cast<double>(default_gray_replicas));
  if (kind == "gray" && replicas < 2.0) return invalid("needs replicas >= 2");
  if (kind == "gray" &&
      !(get("interarrival", 4000.0) > 0.0 && get("duration", 1500.0) > 0.0)) {
    return invalid("needs interarrival > 0 and duration > 0");
  }
  if (schedule == nullptr) return Status::Ok();

  if (kind == "slow") {
    schedule->AddSlowNode(start, end, static_cast<NodeId>(get("node", 0)),
                          get("factor", 10.0), get("add", 0.0));
  } else if (kind == "lossy") {
    schedule->AddLossyLink(start, end, static_cast<NodeId>(get("src", 0)),
                           static_cast<NodeId>(get("dst", 0)),
                           get("g2b", 0.02), get("b2g", 0.2),
                           get("loss", 0.8), get("loss-good", 0.0));
  } else if (kind == "dup") {
    schedule->AddDuplicatingLink(start, end,
                                 static_cast<NodeId>(get("src", 0)),
                                 static_cast<NodeId>(get("dst", 0)),
                                 get("p", 1.0));
  } else if (kind == "flap") {
    schedule->AddFlappingNode(start, end, static_cast<NodeId>(get("node", 0)),
                              get("up", 300.0), get("down", 200.0));
  } else if (kind == "oneway") {
    schedule->AddAsymmetricPartition(start, end,
                                     static_cast<NodeId>(get("src", 0)),
                                     static_cast<NodeId>(get("dst", 0)));
  } else {
    const kvs::FaultSchedule random = kvs::FaultSchedule::RandomGrayFailures(
        static_cast<int>(replicas), horizon_ms, get("interarrival", 4000.0),
        get("duration", 1500.0), static_cast<uint64_t>(get("seed", 7.0)));
    for (const kvs::Fault& fault : random.faults()) {
      schedule->Add(fault);
    }
  }
  return Status::Ok();
}

namespace {

Status ParseFaultSpecs(const std::string& specs, double horizon_ms,
                       kvs::FaultSchedule* schedule,
                       int default_gray_replicas) {
  size_t pos = 0;
  while (pos < specs.size()) {
    size_t semi = specs.find(';', pos);
    if (semi == std::string::npos) semi = specs.size();
    const Status status =
        ParseFaultSpec(specs.substr(pos, semi - pos), horizon_ms, schedule,
                       default_gray_replicas);
    if (!status.ok()) return status;
    pos = semi + 1;
  }
  return Status::Ok();
}

}  // namespace

Status FaultOptions::Validate() const {
  return ParseFaultSpecs(specs, /*horizon_ms=*/0.0, /*schedule=*/nullptr,
                         /*default_gray_replicas=*/3);
}

StatusOr<kvs::FaultSchedule> FaultOptions::Build(
    double horizon_ms, int default_gray_replicas) const {
  kvs::FaultSchedule schedule;
  const Status status =
      ParseFaultSpecs(specs, horizon_ms, &schedule, default_gray_replicas);
  if (!status.ok()) return status;
  return schedule;
}

StatusOr<WarsDistributions> ScenarioLegs(const std::string& name) {
  if (name == "lnkd-ssd") return LnkdSsd();
  if (name == "lnkd-disk") return LnkdDisk();
  if (name == "ymmr") return Ymmr();
  if (name == "wan") return WanLocalBase();  // per-replica model: ScenarioModel
  return Status::InvalidArgument(
      "unknown scenario '" + name +
      "' (expected lnkd-ssd|lnkd-disk|ymmr|wan)");
}

StatusOr<ReplicaLatencyModelPtr> ScenarioModel(const std::string& name,
                                               int n) {
  if (n < 1) return Status::InvalidArgument("scenario model needs n >= 1");
  if (name == "wan") return MakeWanModel(WanLocalBase(), n);
  StatusOr<WarsDistributions> legs = ScenarioLegs(name);
  if (!legs.ok()) return legs.status();
  return MakeIidModel(legs.value(), n);
}

Status Config::Validate() const {
  Status status = quorum.Validate();
  if (!status.ok()) return status;
  status = workload.Validate();
  if (!status.ok()) return status;
  const StatusOr<WarsDistributions> legs = ScenarioLegs(scenario);
  if (!legs.ok()) return legs.status();
  if (request_timeout_ms <= 0.0) {
    return Status::InvalidArgument("request_timeout_ms must be > 0");
  }
  if (anti_entropy_interval_ms < 0.0) {
    return Status::InvalidArgument("anti_entropy_interval_ms must be >= 0");
  }
  status = hedge.Validate();
  if (!status.ok()) return status;
  status = retry.Validate();
  if (!status.ok()) return status;
  status = faults.Validate();
  if (!status.ok()) return status;
  status = cluster.Validate();
  if (!status.ok()) return status;
  if (cluster.num_nodes != 0 && cluster.num_nodes < quorum.n) {
    return Status::InvalidArgument(
        "cluster.num_nodes must be 0 (= N) or >= quorum.n");
  }
  status = sla.Validate();
  if (!status.ok()) return status;
  status = controller.Validate();
  if (!status.ok()) return status;
  if (controller.enabled && !sla.enabled()) {
    return Status::InvalidArgument(
        "controller.enabled requires a declared sla (use WithSla / "
        "WithControlLoop)");
  }
  if (obs.monitor_enabled && !sla.enabled()) {
    return Status::InvalidArgument(
        "obs.monitor_enabled requires a declared sla (use WithSla / "
        "WithControlLoop before WithMonitor)");
  }
  return obs.Validate();
}

double Config::HorizonMs() const {
  return kvs::DrainHorizonMs(workload.writes, workload.write_spacing_ms,
                             workload.read_offsets_ms, request_timeout_ms);
}

StatusOr<kvs::KvsConfig> Config::BuildKvsConfig() const {
  const Status status = Validate();
  if (!status.ok()) return status;
  kvs::KvsConfig config;
  config.quorum = quorum.ToQuorumConfig();
  config.legs = ScenarioLegs(scenario).value();
  config.read_fanout = quorum.fanout;
  config.read_repair = read_repair;
  config.anti_entropy_interval_ms = anti_entropy_interval_ms;
  config.request_timeout_ms = request_timeout_ms;
  config.hedge = hedge;
  config.retry = retry;
  config.obs = obs;
  config.num_storage_nodes = cluster.num_nodes;
  config.vnodes_per_node = cluster.vnodes;
  config.rebalance = cluster.rebalance;
  config.seed = seed;
  config.sla = sla;
  config.controller = controller;
  if (phi_detector) {
    config.failure_detector = kvs::KvsConfig::FailureDetectorKind::kPhiAccrual;
  }
  return config;
}

StatusOr<kvs::StalenessExperimentOptions> Config::BuildExperiment() const {
  StatusOr<kvs::KvsConfig> cluster = BuildKvsConfig();
  if (!cluster.ok()) return cluster.status();
  kvs::StalenessExperimentOptions options;
  options.cluster = std::move(cluster.value());
  options.writes = workload.writes;
  options.write_spacing_ms = workload.write_spacing_ms;
  options.read_offsets_ms = workload.read_offsets_ms;
  options.seed = seed;
  return options;
}

StatusOr<kvs::FaultSchedule> Config::BuildFaultSchedule() const {
  return faults.Build(HorizonMs(), quorum.n);
}

}  // namespace pbs
