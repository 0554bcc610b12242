// Chaos-search subsystem tests (DESIGN.md §4j): plan/corpus serde
// round-trips, mutator canonicalization properties, coverage-map behavior,
// oracle unit checks, shrinker minimality, the end-to-end search demo over
// the planted liveness bug, and grid bit-identity of the checked-in corpus.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/chaos/corpus.h"
#include "src/chaos/coverage.h"
#include "src/chaos/explorer.h"
#include "src/chaos/mutator.h"
#include "src/chaos/oracles.h"
#include "src/chaos/shrinker.h"
#include "src/chaos/world.h"
#include "src/fault/fault_plan.h"
#include "src/fault/plan_serde.h"

namespace mitt {
namespace {

using chaos::ChaosWorldOptions;
using chaos::CorpusEntry;
using chaos::Violation;
using fault::FaultEpisode;
using fault::FaultKind;
using fault::FaultPlan;
using harness::StrategyKind;

FaultPlan SamplePlan() {
  return fault::FaultPlanBuilder()
      .NodePause(1, Millis(90), Millis(20))
      .NetworkDrop(0, Millis(300), Millis(50), 0.1871020748648054)
      .FailSlowDisk(2, Millis(400), Millis(30), 7.25)
      .Build();
}

// --- Serde -----------------------------------------------------------------

TEST(PlanSerdeTest, RoundTripIsExact) {
  const FaultPlan plan = SamplePlan();
  const std::string text = fault::FaultPlanToText(plan);
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(fault::FaultPlanFromText(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.episodes().size(), plan.episodes().size());
  for (size_t i = 0; i < plan.episodes().size(); ++i) {
    EXPECT_EQ(parsed.episodes()[i], plan.episodes()[i]) << "episode " << i;
  }
  // print(parse(print(p))) stabilizes on the first print (exact round-trip).
  EXPECT_EQ(fault::FaultPlanToText(parsed), text);
}

TEST(PlanSerdeTest, MalformedLinesAreHardErrors) {
  FaultPlan parsed;
  std::string error;
  EXPECT_FALSE(fault::FaultPlanFromText("episode kind=wat node=0 start=0 dur=1 severity=1",
                                        &parsed, &error));
  EXPECT_FALSE(fault::FaultPlanFromText(
      "episode kind=node_pause node=0 start=0 dur=1 severity=1 bogus=3", &parsed, &error));
}

TEST(CorpusSerdeTest, RoundTripPreservesWorldPlanAndExpectations) {
  CorpusEntry entry;
  entry.world.num_nodes = 5;
  entry.world.num_clients = 7;
  entry.world.requests = 123;
  entry.world.warmup = 11;
  entry.world.deadline = Millis(9);
  entry.world.horizon = Millis(321);
  entry.world.num_shards = 1;
  entry.world.seed = 99;
  entry.world.inject_bug = true;
  entry.world.tenants = true;
  entry.plan = SamplePlan();
  entry.expect = {"completion", "breaker_legal"};
  entry.note = "unit-test provenance";

  CorpusEntry parsed;
  std::string error;
  ASSERT_TRUE(chaos::CorpusEntryFromText(chaos::CorpusEntryToText(entry), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.world.num_nodes, 5);
  EXPECT_EQ(parsed.world.num_clients, 7);
  EXPECT_EQ(parsed.world.requests, 123u);
  EXPECT_EQ(parsed.world.warmup, 11u);
  EXPECT_EQ(parsed.world.deadline, Millis(9));
  EXPECT_EQ(parsed.world.horizon, Millis(321));
  EXPECT_EQ(parsed.world.num_shards, 1);
  EXPECT_EQ(parsed.world.seed, 99u);
  EXPECT_TRUE(parsed.world.inject_bug);
  EXPECT_TRUE(parsed.world.tenants);
  EXPECT_EQ(parsed.expect, entry.expect);
  ASSERT_EQ(parsed.plan.episodes().size(), entry.plan.episodes().size());
  for (size_t i = 0; i < entry.plan.episodes().size(); ++i) {
    EXPECT_EQ(parsed.plan.episodes()[i], entry.plan.episodes()[i]);
  }
}

TEST(CorpusSerdeTest, MissingWorldLineAndUnknownKeysFailLoudly) {
  CorpusEntry parsed;
  std::string error;
  EXPECT_FALSE(chaos::CorpusEntryFromText("# mittos chaos corpus v1\nexpect completion\n",
                                          &parsed, &error));
  EXPECT_FALSE(chaos::CorpusEntryFromText(
      "# mittos chaos corpus v1\nworld nodes=3 clients=4 requests=10 warmup=1 "
      "deadline=1 horizon=1000 shards=1 seed=1 bug=0 tenants=0 wat=1\n",
      &parsed, &error));
}

// Parses a corpus whose world line ends with `token` (later keys override
// earlier ones) and returns the parse error, empty if it parsed.
std::string WorldLineError(const std::string& token) {
  CorpusEntry parsed;
  std::string error;
  const std::string text =
      "# mittos chaos corpus v1\nworld nodes=3 clients=4 requests=10 warmup=1 "
      "deadline=1 horizon=1000 shards=1 seed=1 bug=0 tenants=0 " +
      token + "\n";
  if (chaos::CorpusEntryFromText(text, &parsed, &error)) {
    return "";
  }
  EXPECT_EQ(error.rfind("line 2: ", 0), 0u) << error;  // Line-numbered.
  EXPECT_NE(error.find(token), std::string::npos) << error;
  return error;
}

TEST(CorpusSerdeTest, RejectsWorldWithoutNodes) {
  EXPECT_NE(WorldLineError("nodes=0"), "");
  EXPECT_NE(WorldLineError("nodes=-1"), "");
  EXPECT_EQ(WorldLineError("nodes=1"), "");
}

TEST(CorpusSerdeTest, RejectsWorldWithoutClients) {
  EXPECT_NE(WorldLineError("clients=0"), "");
  EXPECT_EQ(WorldLineError("clients=1"), "");
}

TEST(CorpusSerdeTest, RejectsNegativeShards) {
  EXPECT_NE(WorldLineError("shards=-2"), "");
  EXPECT_EQ(WorldLineError("shards=0"), "");  // Auto.
}

TEST(CorpusSerdeTest, RejectsNegativeRequests) {
  EXPECT_NE(WorldLineError("requests=-1"), "");
  EXPECT_EQ(WorldLineError("requests=0"), "");
}

TEST(CorpusSerdeTest, RejectsNegativeWarmup) {
  EXPECT_NE(WorldLineError("warmup=-5"), "");
  EXPECT_EQ(WorldLineError("warmup=0"), "");
}

TEST(CorpusSerdeTest, RejectsNonPositiveDeadline) {
  EXPECT_NE(WorldLineError("deadline=0"), "");
  EXPECT_NE(WorldLineError("deadline=-7"), "");
}

TEST(CorpusSerdeTest, RejectsNonPositiveHorizon) {
  EXPECT_NE(WorldLineError("horizon=0"), "");
  EXPECT_NE(WorldLineError("horizon=-1000"), "");
}

TEST(CorpusSerdeTest, RejectsIntFieldsPastIntRange) {
  EXPECT_NE(WorldLineError("nodes=2147483648"), "");
  EXPECT_NE(WorldLineError("clients=4294967297"), "");
  EXPECT_NE(WorldLineError("shards=2147483648"), "");
  EXPECT_EQ(WorldLineError("shards=2147483647"), "");
}

// --- Mutator ---------------------------------------------------------------

void ExpectCanonical(const FaultPlan& plan, const chaos::MutatorOptions& opt) {
  EXPECT_LE(plan.size(), opt.max_episodes);
  for (const FaultEpisode& e : plan.episodes()) {
    EXPECT_GE(e.start, 0);
    EXPECT_LE(e.end(), opt.horizon) << fault::EpisodeToLine(e);
    EXPECT_GE(e.duration, opt.min_duration);
    EXPECT_GE(e.node, -1);
    EXPECT_LT(e.node, opt.num_nodes);
    if (e.kind == FaultKind::kNetworkDrop) {
      EXPECT_GE(e.severity, 0.05);
      EXPECT_LE(e.severity, 1.0);
    } else if (e.kind == FaultKind::kFailSlowDisk || e.kind == FaultKind::kSsdReadRetry ||
               e.kind == FaultKind::kNetworkDegrade) {
      EXPECT_GE(e.severity, 1.0);
      EXPECT_LE(e.severity, 100.0);
    }
  }
  // No same-target overlaps survive canonicalization.
  EXPECT_TRUE(fault::FindOverlaps(plan.episodes()).empty());
}

TEST(PlanMutatorTest, GeneratedChildrenAreAlwaysCanonical) {
  chaos::MutatorOptions opt;
  chaos::PlanMutator mutator(opt, /*seed=*/17);
  FaultPlan parent = mutator.RandomPlan();
  ExpectCanonical(parent, opt);
  FaultPlan other = mutator.RandomPlan();
  for (int i = 0; i < 200; ++i) {
    const FaultPlan child = i % 3 == 2 ? mutator.Splice(parent, other) : mutator.Mutate(parent);
    ExpectCanonical(child, opt);
    if (!child.empty()) {
      parent = child;
    }
  }
}

TEST(PlanMutatorTest, SameSeedSameChildrenDistinctSeedDistinct) {
  chaos::MutatorOptions opt;
  chaos::PlanMutator a(opt, 5);
  chaos::PlanMutator b(opt, 5);
  chaos::PlanMutator c(opt, 6);
  bool any_diff_from_c = false;
  for (int i = 0; i < 20; ++i) {
    const FaultPlan pa = a.RandomPlan();
    const FaultPlan pb = b.RandomPlan();
    const FaultPlan pc = c.RandomPlan();
    EXPECT_EQ(fault::FaultPlanToText(pa), fault::FaultPlanToText(pb)) << "draw " << i;
    any_diff_from_c = any_diff_from_c ||
                      fault::FaultPlanToText(pa) != fault::FaultPlanToText(pc);
  }
  EXPECT_TRUE(any_diff_from_c);
}

TEST(PlanMutatorTest, CanonicalizeSlidesBackEpisodesPastHorizon) {
  chaos::MutatorOptions opt;
  opt.horizon = Millis(100);
  chaos::PlanMutator mutator(opt, 1);
  FaultEpisode e;
  e.kind = FaultKind::kNodePause;
  e.node = 0;
  e.start = Millis(95);
  e.duration = Millis(40);  // Would end at 135ms.
  const FaultPlan canon = mutator.Canonicalize({e});
  ASSERT_EQ(canon.size(), 1u);
  EXPECT_EQ(canon.episodes()[0].end(), Millis(100));
  EXPECT_EQ(canon.episodes()[0].duration, Millis(40));  // Slid, not truncated.
}

// --- Coverage --------------------------------------------------------------

TEST(CoverageMapTest, SecondIdenticalTrialContributesNothing) {
  const ChaosWorldOptions world;
  const chaos::TrialOutcome outcome = chaos::RunChaosTrial(world, SamplePlan());
  const std::vector<chaos::Feature> features =
      chaos::CollectFeatures(SamplePlan(), outcome.results);
  EXPECT_FALSE(features.empty());

  chaos::CoverageMap map;
  EXPECT_GT(map.CountNovel(features), 0u);
  EXPECT_GT(map.AddAll(features), 0u);
  EXPECT_EQ(map.CountNovel(features), 0u);
  EXPECT_EQ(map.AddAll(features), 0u);

  // A different plan shape contributes at least a plan-namespace feature.
  const std::vector<chaos::Feature> empty_features =
      chaos::CollectFeatures(FaultPlan(), outcome.results);
  EXPECT_GT(map.CountNovel(empty_features), 0u);
}

// --- Oracles ---------------------------------------------------------------

harness::RunResult MakeCleanResult() {
  harness::RunResult r;
  r.name = "unit";
  r.oracle.enabled = true;
  r.oracle.gets_issued = 10;
  r.oracle.gets_done = 10;
  r.oracle.done_ok = 10;
  r.max_sent_deadline = Millis(1);
  return r;
}

std::set<std::string> OracleNames(const std::vector<Violation>& v) {
  std::set<std::string> names;
  for (const Violation& x : v) {
    names.insert(x.oracle);
  }
  return names;
}

TEST(OraclesTest, CleanHarvestIsViolationFree) {
  std::vector<Violation> v;
  chaos::CheckOracles(MakeCleanResult(), /*resilient=*/true, /*tenants=*/false, &v);
  EXPECT_TRUE(v.empty());
}

TEST(OraclesTest, CountersTripTheirOracles) {
  harness::RunResult r = MakeCleanResult();
  r.oracle.gets_done = 9;       // completion
  r.oracle.gets_done_duplicate = 1;  // exactly_once
  r.oracle.done_ok = 7;         // conservation (7 != 9)
  r.oracle.budget_regressions = 2;   // budget_monotone
  r.unbounded_deadline_tries = 1;    // bounded_sends
  std::vector<Violation> v;
  chaos::CheckOracles(r, /*resilient=*/true, /*tenants=*/false, &v);
  const std::set<std::string> names = OracleNames(v);
  EXPECT_TRUE(names.count("completion"));
  EXPECT_TRUE(names.count("exactly_once"));
  EXPECT_TRUE(names.count("conservation"));
  EXPECT_TRUE(names.count("budget_monotone"));
  EXPECT_TRUE(names.count("bounded_sends"));
}

TEST(OraclesTest, BreakerChainResetsAtSegmentBoundaries) {
  using resilience::BreakerState;
  harness::RunResult r = MakeCleanResult();
  // Two trackers (one per shard), each with a legal chain for replica 0 that
  // ends open. Concatenated WITHOUT segment info this would read
  // open -> closed->open: illegal.
  r.oracle.breaker_log = {
      {0, BreakerState::kClosed, BreakerState::kOpen, 100},
      {0, BreakerState::kClosed, BreakerState::kOpen, 150},
  };
  std::vector<Violation> v;
  chaos::CheckOracles(r, /*resilient=*/true, /*tenants=*/false, &v);
  EXPECT_EQ(OracleNames(v).count("breaker_legal"), 1u);

  r.oracle.breaker_segments = {0, 1};
  v.clear();
  chaos::CheckOracles(r, /*resilient=*/true, /*tenants=*/false, &v);
  EXPECT_TRUE(v.empty());

  // Within one segment, an illegal edge still fires.
  r.oracle.breaker_log = {
      {0, BreakerState::kClosed, BreakerState::kOpen, 100},
      {0, BreakerState::kOpen, BreakerState::kClosed, 150},  // open->closed: illegal.
  };
  r.oracle.breaker_segments = {0};
  v.clear();
  chaos::CheckOracles(r, /*resilient=*/true, /*tenants=*/false, &v);
  EXPECT_EQ(OracleNames(v).count("breaker_legal"), 1u);

  // A capped-out log is skipped rather than half-checked.
  r.oracle.breaker_log_dropped = 1;
  v.clear();
  chaos::CheckOracles(r, /*resilient=*/true, /*tenants=*/false, &v);
  EXPECT_TRUE(v.empty());
}

// --- Trials, shrinking, search --------------------------------------------

TEST(ChaosTrialTest, BenignWorldHasNoViolations) {
  const ChaosWorldOptions world;
  const chaos::TrialOutcome outcome = chaos::RunChaosTrial(world, FaultPlan());
  for (const Violation& v : outcome.violations) {
    ADD_FAILURE() << "[" << v.oracle << "] " << v.strategy << ": " << v.detail;
  }
  EXPECT_EQ(outcome.results.size(), world.strategies.size());
  EXPECT_FALSE(outcome.fingerprint.empty());
}

TEST(ChaosTrialTest, FingerprintBitIdenticalAcrossWorkerGrid) {
  const ChaosWorldOptions world;
  const FaultPlan plan = SamplePlan();
  const chaos::TrialOutcome base = chaos::RunChaosTrial(world, plan, 1, 1);
  for (const auto& [tw, iw] : std::vector<std::pair<int, int>>{{4, 1}, {1, 2}, {4, 2}}) {
    const chaos::TrialOutcome other = chaos::RunChaosTrial(world, plan, tw, iw);
    EXPECT_EQ(other.fingerprint, base.fingerprint) << "trial=" << tw << " intra=" << iw;
  }
}

// The oracle battery on the §5 Riak world: the chaos world's recipe with
// LevelDB nodes (kLsm), a node pause and link drops, over every strategy.
TEST(ChaosTrialTest, LsmWorldHasNoViolations) {
  const ChaosWorldOptions world;
  fault::FaultPlanBuilder b;
  b.NodePause(/*node=*/0, Millis(80), Millis(60));
  b.NetworkDrop(/*node=*/1, Millis(150), Millis(250), 0.3);
  b.NetworkDrop(/*node=*/0, Millis(300), Millis(200), 0.2);
  harness::ExperimentOptions opt = chaos::MakeExperimentOptions(world, b.Build());
  opt.access = kv::AccessPath::kLsm;
  for (const StrategyKind kind :
       {StrategyKind::kBase, StrategyKind::kAppTimeout, StrategyKind::kClone,
        StrategyKind::kHedged, StrategyKind::kSnitch, StrategyKind::kC3, StrategyKind::kMittos,
        StrategyKind::kMittosWait, StrategyKind::kMittosResilient}) {
    const harness::RunResult r = harness::Experiment(opt).Run(kind);
    EXPECT_GT(r.fault_episodes, 0u) << r.name;
    std::vector<Violation> violations;
    chaos::CheckOracles(r, kind == StrategyKind::kMittosResilient, /*tenants=*/false,
                        &violations);
    for (const Violation& v : violations) {
      ADD_FAILURE() << "[" << v.oracle << "] " << v.strategy << ": " << v.detail;
    }
  }
}

// The acceptance demo: the planted PR-5 denied-retry hang (behind
// test_swallow_late_reply) is found by the coverage-guided search within a
// small trial budget and shrunk to a <=3-episode reproducer that still
// trips the completion oracle.
TEST(ChaosSearchTest, FindsAndShrinksPlantedLivenessBug) {
  chaos::ExplorerOptions opt;
  opt.world.inject_bug = true;
  opt.max_trials = 60;
  opt.seed = 7;
  opt.max_findings = 1;
  const chaos::SearchReport report = chaos::RunSearch(opt);
  ASSERT_EQ(report.findings.size(), 1u);
  const chaos::Finding& f = report.findings[0];
  EXPECT_EQ(f.oracle, "completion");
  EXPECT_LE(f.shrunk.size(), 3u);
  EXPECT_GT(f.shrunk.size(), 0u);

  // The minimized plan still reproduces, and does NOT fire once the bug
  // flag is dropped (the reproducer tracks the bug, not the schedule).
  chaos::ChaosWorldOptions fixed = opt.world;
  fixed.inject_bug = false;
  const chaos::TrialOutcome with_bug = chaos::RunChaosTrial(opt.world, f.shrunk);
  const chaos::TrialOutcome without = chaos::RunChaosTrial(fixed, f.shrunk);
  EXPECT_EQ(OracleNames(with_bug.violations).count("completion"), 1u);
  EXPECT_EQ(OracleNames(without.violations).count("completion"), 0u);
}

TEST(ChaosSearchTest, SearchIsDeterministic) {
  chaos::ExplorerOptions opt;
  opt.max_trials = 12;
  opt.seed = 3;
  const chaos::SearchReport a = chaos::RunSearch(opt);
  const chaos::SearchReport b = chaos::RunSearch(opt);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  EXPECT_EQ(a.coverage_features, b.coverage_features);
  EXPECT_EQ(a.findings.size(), b.findings.size());
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(ShrinkerTest, ShrunkPlanIsOneMinimal) {
  std::string error;
  CorpusEntry entry;
  ASSERT_TRUE(chaos::LoadCorpusEntry(
      std::string(MITT_TEST_DATA_DIR) + "/chaos_corpus/completion.chaos", &entry, &error))
      << error;
  ASSERT_FALSE(entry.expect.empty());
  const chaos::ShrinkResult result =
      chaos::ShrinkPlan(entry.world, entry.plan, entry.expect.front(), chaos::ShrinkOptions{});
  ASSERT_TRUE(result.reproduced);
  EXPECT_LE(result.plan.size(), entry.plan.size());
  // 1-minimality: removing any single episode stops the oracle firing.
  for (size_t skip = 0; skip < result.plan.size(); ++skip) {
    std::vector<FaultEpisode> eps;
    for (size_t i = 0; i < result.plan.size(); ++i) {
      if (i != skip) {
        eps.push_back(result.plan.episodes()[i]);
      }
    }
    const chaos::TrialOutcome outcome =
        chaos::RunChaosTrial(entry.world, FaultPlan(std::move(eps)));
    EXPECT_EQ(OracleNames(outcome.violations).count(entry.expect.front()), 0u)
        << "still fires without episode " << skip;
  }
}

// The checked-in reproducers replay exactly: expected oracles fire, nothing
// else does, and the fingerprint is grid-stable (the CI replay contract).
TEST(ChaosCorpusTest, CheckedInReproducersReplay) {
  for (const char* name : {"completion.chaos", "benign.chaos"}) {
    SCOPED_TRACE(name);
    std::string error;
    CorpusEntry entry;
    ASSERT_TRUE(chaos::LoadCorpusEntry(
        std::string(MITT_TEST_DATA_DIR) + "/chaos_corpus/" + name, &entry, &error))
        << error;
    const chaos::TrialOutcome base = chaos::RunChaosTrial(entry.world, entry.plan, 1, 1);
    const chaos::TrialOutcome far = chaos::RunChaosTrial(entry.world, entry.plan, 4, 2);
    EXPECT_EQ(base.fingerprint, far.fingerprint);
    EXPECT_EQ(OracleNames(base.violations),
              std::set<std::string>(entry.expect.begin(), entry.expect.end()));
  }
}

}  // namespace
}  // namespace mitt
