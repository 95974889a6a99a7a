// pbs::Config public API: Status-returning validation, fault-spec parsing,
// scenario resolution, and the lowering onto the internal KvsConfig /
// StalenessExperimentOptions structs.

#include <string>

#include <gtest/gtest.h>

#include "kvs/failure.h"
#include "pbs/config.h"
#include "util/status.h"

namespace pbs {
namespace {

TEST(QuorumOptionsTest, DefaultValidatesAndBadShapeDoesNot) {
  EXPECT_TRUE(QuorumOptions{}.Validate().ok());
  QuorumOptions bad;
  bad.r = 4;  // R > N
  const Status status = bad.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(WorkloadOptionsTest, RejectsEmptyAndNegativeInputs) {
  EXPECT_TRUE(WorkloadOptions{}.Validate().ok());
  WorkloadOptions w;
  w.writes = 0;
  EXPECT_FALSE(w.Validate().ok());
  w = WorkloadOptions{};
  w.write_spacing_ms = 0.0;
  EXPECT_FALSE(w.Validate().ok());
  w = WorkloadOptions{};
  w.read_offsets_ms.clear();
  EXPECT_FALSE(w.Validate().ok());
  w = WorkloadOptions{};
  w.read_offsets_ms = {1.0, -2.0};
  EXPECT_FALSE(w.Validate().ok());
}

TEST(ScenarioTest, KnownNamesResolveUnknownNamesError) {
  for (const char* name : {"lnkd-ssd", "lnkd-disk", "ymmr", "wan"}) {
    EXPECT_TRUE(ScenarioLegs(name).ok()) << name;
    EXPECT_TRUE(ScenarioModel(name, 3).ok()) << name;
  }
  const auto legs = ScenarioLegs("lnkd-tape");
  ASSERT_FALSE(legs.ok());
  EXPECT_EQ(legs.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(legs.status().message().find("lnkd-tape"), std::string::npos);
  EXPECT_FALSE(ScenarioModel("lnkd-disk", 0).ok());
}

TEST(ParseFaultSpecTest, ParsesEveryKindWithDefaults) {
  kvs::FaultSchedule schedule;
  const double horizon = 1000.0;
  EXPECT_TRUE(
      ParseFaultSpec("slow:node=2,factor=10", horizon, &schedule).ok());
  EXPECT_TRUE(
      ParseFaultSpec("lossy:src=0,dst=4,loss=0.8", horizon, &schedule).ok());
  EXPECT_TRUE(ParseFaultSpec("dup:src=0,dst=4", horizon, &schedule).ok());
  EXPECT_TRUE(
      ParseFaultSpec("flap:node=2,up=300,down=200", horizon, &schedule).ok());
  EXPECT_TRUE(ParseFaultSpec("oneway:src=0,dst=4", horizon, &schedule).ok());
  ASSERT_EQ(schedule.faults().size(), 5u);
  EXPECT_EQ(schedule.faults()[0].kind, kvs::Fault::Kind::kSlowNode);
  EXPECT_EQ(schedule.faults()[0].node, 2);
  // start/end default to the whole run.
  EXPECT_DOUBLE_EQ(schedule.faults()[0].start, 0.0);
  EXPECT_DOUBLE_EQ(schedule.faults()[0].end, horizon);
  EXPECT_EQ(schedule.faults()[4].kind,
            kvs::Fault::Kind::kAsymmetricPartition);
}

TEST(ParseFaultSpecTest, GraySpecSeedsARandomMix) {
  kvs::FaultSchedule schedule;
  ASSERT_TRUE(ParseFaultSpec("gray:seed=7", 20000.0, &schedule,
                             /*default_gray_replicas=*/3)
                  .ok());
  EXPECT_FALSE(schedule.faults().empty());
  // Same seed, same horizon: same schedule size (deterministic generator).
  kvs::FaultSchedule again;
  ASSERT_TRUE(ParseFaultSpec("gray:seed=7", 20000.0, &again, 3).ok());
  EXPECT_EQ(schedule.faults().size(), again.faults().size());
}

TEST(ParseFaultSpecTest, RejectsUnknownKindAndMalformedParams) {
  kvs::FaultSchedule schedule;
  const Status unknown = ParseFaultSpec("meteor:node=1", 100.0, &schedule);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.message().find("unknown fault kind"), std::string::npos);
  const Status malformed = ParseFaultSpec("slow:node", 100.0, &schedule);
  ASSERT_FALSE(malformed.ok());
  EXPECT_NE(malformed.message().find("bad fault parameter"),
            std::string::npos);
}

// Rejects `spec` at parse time with a message naming `needle`.
void ExpectRejected(const std::string& spec, const std::string& needle) {
  kvs::FaultSchedule schedule;
  const Status status = ParseFaultSpec(spec, 1000.0, &schedule);
  ASSERT_FALSE(status.ok()) << spec;
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << spec;
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << spec << ": " << status.message();
  EXPECT_TRUE(schedule.faults().empty()) << spec;
  FaultOptions faults;
  faults.specs = spec;
  EXPECT_FALSE(faults.Validate().ok()) << spec;
}

TEST(ParseFaultSpecTest, RejectsValuesThatAreNotFiniteNumbers) {
  // atof read these as node=0,factor=0: a "slow" fault with zero delay.
  ExpectRejected("slow:node=two,factor=ten", "not a finite number");
  ExpectRejected("slow:node=2,factor=10x", "not a finite number");
  ExpectRejected("slow:node=2,factor=", "not a finite number");
  ExpectRejected("slow:node=2,factor=inf", "not a finite number");
  ExpectRejected("lossy:src=0,dst=1,loss=nan", "not a finite number");
}

TEST(ParseFaultSpecTest, RejectsKeysTheKindDoesNotRead) {
  // Misspelt keys used to fall back to the defaults (node 0, factor 10).
  ExpectRejected("slow:nod=2,factr=10", "reads no parameter 'nod'");
  ExpectRejected("oneway:src=0,dst=1,loss=0.5", "reads no parameter 'loss'");
  // gray draws its faults over the whole run, so start=/end= are not read.
  ExpectRejected("gray:seed=7,start=100", "reads no parameter 'start'");
}

TEST(ParseFaultSpecTest, RejectsNodeIdsThatAreNotNonNegativeIntegers) {
  ExpectRejected("slow:node=-1", "node must be a non-negative integer");
  ExpectRejected("flap:node=1.5", "node must be a non-negative integer");
  ExpectRejected("lossy:src=0.5,dst=1", "src must be a non-negative integer");
  ExpectRejected("oneway:src=0,dst=-2", "dst must be a non-negative integer");
  ExpectRejected("dup:src=0,dst=1e12", "dst must be a non-negative integer");
}

TEST(ParseFaultSpecTest, RejectsFaultsThatEndBeforeTheyStart) {
  ExpectRejected("slow:node=1,start=50,end=50", "must end after it starts");
  ExpectRejected("dup:src=0,dst=1,start=80,end=20",
                 "must end after it starts");
}

TEST(ParseFaultSpecTest, RejectsSlowFaultsThatDoNotSlow) {
  ExpectRejected("slow:node=0,factor=0", "factor >= 1 or add > 0");
  ExpectRejected("slow:node=0,factor=0.5,add=0", "factor >= 1 or add > 0");
  kvs::FaultSchedule schedule;
  EXPECT_TRUE(ParseFaultSpec("slow:node=0,factor=0,add=5", 1000.0, &schedule)
                  .ok());
}

TEST(ParseFaultSpecTest, RejectsFlapPeriodsThatAreNotPositive) {
  ExpectRejected("flap:node=1,up=0", "up > 0 and down > 0");
  ExpectRejected("flap:node=1,up=300,down=-5", "up > 0 and down > 0");
}

TEST(ParseFaultSpecTest, RejectsGrayMixesNoClusterCanRun) {
  ExpectRejected("gray:replicas=1", "replicas >= 2");
  ExpectRejected("gray:replicas=2.5",
                 "replicas must be a non-negative integer");
  ExpectRejected("gray:interarrival=0", "interarrival > 0 and duration > 0");
  ExpectRejected("gray:duration=-1", "interarrival > 0 and duration > 0");
  ExpectRejected("gray:seed=-7", "seed must be a non-negative integer");
  // The replicas= fallback comes from the quorum size.
  FaultOptions faults;
  faults.specs = "gray:seed=7";
  EXPECT_FALSE(faults.Build(1000.0, /*default_gray_replicas=*/1).ok());
}

TEST(FaultOptionsTest, DefaultedEndIsCheckedAgainstTheRealHorizon) {
  // Validate does not know the run's end, so a late start= passes there;
  // Build rejects it when the run ends first.
  FaultOptions faults;
  faults.specs = "slow:node=2,start=5000";
  EXPECT_TRUE(faults.Validate().ok());
  EXPECT_TRUE(faults.Build(20000.0).ok());
  const auto built = faults.Build(1000.0);
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().message().find("the run's end"), std::string::npos);
}

TEST(FaultOptionsTest, EveryDocumentedSpecParses) {
  // The spec strings of the CLI help, README, benches and tests.
  for (const char* spec : {
           "slow:node=2,factor=10",
           "slow:node=2,factor=10,add=0",
           "slow:node=0,factor=10",
           "slow:node=0,factor=20",
           "slow:node=0,factor=5",
           "slow:node=1",
           "slow:node=2,factor=10,start=10000",
           "lossy:src=0,dst=4,loss=0.8",
           "lossy:src=0,dst=4,loss=0.8,g2b=0.02,b2g=0.2",
           "dup:src=0,dst=4",
           "dup:src=0,dst=4,p=1",
           "flap:node=2,up=300,down=200",
           "flap:node=1,up=10,down=10",
           "oneway:src=0,dst=4",
           "oneway:src=1,dst=2",
           "gray:seed=7",
           "gray:seed=7,interarrival=4000,duration=1500",
       }) {
    FaultOptions faults;
    faults.specs = spec;
    EXPECT_TRUE(faults.Validate().ok()) << spec;
    const auto built = faults.Build(/*horizon_ms=*/20000.0);
    ASSERT_TRUE(built.ok()) << spec << ": " << built.status().message();
    EXPECT_FALSE(built.value().faults().empty()) << spec;
  }
}

TEST(FaultOptionsTest, ValidateDryRunsSemicolonSeparatedSpecs) {
  FaultOptions faults;
  EXPECT_FALSE(faults.any());
  EXPECT_TRUE(faults.Validate().ok());
  faults.specs = "slow:node=0,factor=5;oneway:src=1,dst=2";
  EXPECT_TRUE(faults.any());
  EXPECT_TRUE(faults.Validate().ok());
  const auto built = faults.Build(500.0);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().faults().size(), 2u);
  faults.specs = "slow:node=0;bogus:x=1";
  EXPECT_FALSE(faults.Validate().ok());
  EXPECT_FALSE(faults.Build(500.0).ok());
}

TEST(ConfigTest, DefaultConfigValidatesAndFirstFailureWins) {
  EXPECT_TRUE(Config{}.Validate().ok());

  Config config;
  config.quorum.w = 9;  // invalid (W > N)
  config.scenario = "nope";  // also invalid, but quorum is checked first
  const Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message().find("nope"), std::string::npos);
}

TEST(ConfigTest, ValidateCoversEveryGroup) {
  Config config;
  config.scenario = "nope";
  EXPECT_FALSE(config.Validate().ok());

  config = Config{};
  config.request_timeout_ms = 0.0;
  EXPECT_FALSE(config.Validate().ok());

  config = Config{};
  config.anti_entropy_interval_ms = -1.0;
  EXPECT_FALSE(config.Validate().ok());

  config = Config{};
  config.hedge.quantile = 1.5;
  EXPECT_FALSE(config.Validate().ok());

  config = Config{};
  config.retry.max_attempts = 0;
  EXPECT_FALSE(config.Validate().ok());

  config = Config{};
  config.retry.backoff_base_ms = 50.0;
  config.retry.backoff_max_ms = 10.0;
  EXPECT_FALSE(config.Validate().ok());

  config = Config{};
  config.faults.specs = "bogus";
  EXPECT_FALSE(config.Validate().ok());

  config = Config{};
  config.obs.trace_sample_every = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, BuildKvsConfigLowersEveryField) {
  Config config = Config{}
                      .WithSeed(99)
                      .WithScenario("ymmr")
                      .WithQuorum(5, 2, 3)
                      .WithFanout(ReadFanout::kQuorumOnly)
                      .WithTracing(true);
  config.read_repair = true;
  config.anti_entropy_interval_ms = 250.0;
  config.request_timeout_ms = 333.0;
  config.phi_detector = true;
  config.hedge.enabled = true;
  config.hedge.delay_ms = 4.0;
  config.retry.max_attempts = 3;
  config.retry.deadline_ms = 800.0;

  const auto built = config.BuildKvsConfig();
  ASSERT_TRUE(built.ok());
  const kvs::KvsConfig& kvs = built.value();
  EXPECT_EQ(kvs.quorum.n, 5);
  EXPECT_EQ(kvs.quorum.r, 2);
  EXPECT_EQ(kvs.quorum.w, 3);
  EXPECT_EQ(kvs.read_fanout, ReadFanout::kQuorumOnly);
  EXPECT_EQ(kvs.legs.name, Ymmr().name);
  EXPECT_TRUE(kvs.read_repair);
  EXPECT_DOUBLE_EQ(kvs.anti_entropy_interval_ms, 250.0);
  EXPECT_DOUBLE_EQ(kvs.request_timeout_ms, 333.0);
  EXPECT_TRUE(kvs.hedge.enabled);
  EXPECT_DOUBLE_EQ(kvs.hedge.delay_ms, 4.0);
  EXPECT_EQ(kvs.retry.max_attempts, 3);
  EXPECT_DOUBLE_EQ(kvs.retry.deadline_ms, 800.0);
  EXPECT_TRUE(kvs.obs.trace_enabled);
  EXPECT_EQ(kvs.seed, 99u);
  EXPECT_EQ(kvs.failure_detector,
            kvs::KvsConfig::FailureDetectorKind::kPhiAccrual);
}

TEST(ConfigTest, BuildExperimentLowersWorkloadAndSeed) {
  Config config = Config{}.WithSeed(17).WithWorkload(123, 40.0);
  config.workload.read_offsets_ms = {1.0, 9.0};
  const auto built = config.BuildExperiment();
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().writes, 123);
  EXPECT_DOUBLE_EQ(built.value().write_spacing_ms, 40.0);
  EXPECT_EQ(built.value().read_offsets_ms.size(), 2u);
  EXPECT_EQ(built.value().seed, 17u);
  EXPECT_EQ(built.value().cluster.seed, 17u);
}

TEST(ConfigTest, BuildPropagatesValidationFailure) {
  Config config;
  config.scenario = "nope";
  EXPECT_FALSE(config.BuildKvsConfig().ok());
  EXPECT_FALSE(config.BuildExperiment().ok());
}

TEST(ConfigTest, BuildFaultScheduleUsesHorizonAndQuorumSize) {
  Config config = Config{}.WithWorkload(10, 100.0).WithFaults("slow:node=1");
  config.workload.read_offsets_ms = {5.0};
  config.request_timeout_ms = 100.0;
  const auto schedule = config.BuildFaultSchedule();
  ASSERT_TRUE(schedule.ok());
  ASSERT_EQ(schedule.value().faults().size(), 1u);
  // end defaults to the harness horizon: (writes+1)*spacing + max offset +
  // 3 timeouts = 11*100 + 5 + 300.
  EXPECT_DOUBLE_EQ(schedule.value().faults()[0].end, 1405.0);
  EXPECT_DOUBLE_EQ(config.HorizonMs(), 1405.0);
}

TEST(ConfigTest, WithSettersChain) {
  const Config config = Config{}
                            .WithSeed(5)
                            .WithScenario("wan")
                            .WithQuorum(5, 3, 3)
                            .WithFanout(ReadFanout::kQuorumOnly)
                            .WithWorkload(7, 11.0)
                            .WithFaults("flap:node=1,up=10,down=10")
                            .WithTracing(true);
  EXPECT_EQ(config.seed, 5u);
  EXPECT_EQ(config.scenario, "wan");
  EXPECT_EQ(config.quorum.n, 5);
  EXPECT_EQ(config.quorum.fanout, ReadFanout::kQuorumOnly);
  EXPECT_EQ(config.workload.writes, 7);
  EXPECT_TRUE(config.faults.any());
  EXPECT_TRUE(config.obs.trace_enabled);
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigTest, WithControlLoopLowersSlaAndControllerIntoTheKvsConfig) {
  const auto sla = SlaTarget::Parse("p=0.99,t=10,p99<=15");
  ASSERT_TRUE(sla.ok());
  Config config = Config{}.WithControlLoop(sla.value());
  config.controller.epoch_ms = 750.0;
  EXPECT_TRUE(config.sla.enabled());
  EXPECT_TRUE(config.controller.enabled);
  ASSERT_TRUE(config.Validate().ok());
  const auto built = config.BuildKvsConfig();
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().sla, sla.value());
  EXPECT_TRUE(built.value().controller.enabled);
  EXPECT_DOUBLE_EQ(built.value().controller.epoch_ms, 750.0);
}

TEST(ConfigTest, WithSlaAloneDeclaresWithoutEnablingTheController) {
  const Config config =
      Config{}.WithSla(SlaTarget::Parse("p=0.9,t=5,p99<=20").value());
  EXPECT_TRUE(config.sla.enabled());
  EXPECT_FALSE(config.controller.enabled);
  ASSERT_TRUE(config.Validate().ok());
  const auto built = config.BuildKvsConfig();
  ASSERT_TRUE(built.ok());
  EXPECT_TRUE(built.value().sla.enabled());
  EXPECT_FALSE(built.value().controller.enabled);
}

TEST(ConfigTest, ControllerWithoutSlaFailsValidation) {
  Config config;
  config.controller.enabled = true;
  const Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("requires a declared sla"),
            std::string::npos);
  EXPECT_FALSE(config.BuildKvsConfig().ok());
  // Declaring the SLA (the WithControlLoop path) cures it.
  config.sla = SlaTarget::Parse("p=0.9,t=5,p99<=20").value();
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigTest, InvalidSlaAndControllerOptionsAreCaughtByValidate) {
  Config config;
  config.sla.fresh_probability = 1.5;  // out of (0, 1)
  config.sla.read_p99_ms = 10.0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.sla = SlaTarget::Parse("p=0.9,t=5,p99<=20").value();
  config.controller.enabled = true;
  config.controller.epoch_ms = -1.0;
  EXPECT_FALSE(config.Validate().ok());
}

}  // namespace
}  // namespace pbs
