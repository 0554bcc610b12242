// ShardedEngine (src/sim/sharded_engine.h): conservative-PDES unit tests
// plus the end-to-end determinism properties the whole PR hangs on —
// scorecards and trace exports must be *byte-identical* at any
// MITT_INTRA_WORKERS x MITT_TRIAL_WORKERS combination.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/chaos/world.h"
#include "src/common/time.h"
#include "src/fault/fault_plan.h"
#include "src/harness/experiment.h"
#include "src/harness/scenario_runner.h"
#include "src/obs/export.h"
#include "src/obs/gate.h"
#include "src/sim/sharded_engine.h"

namespace mitt {
namespace {

using harness::StrategyKind;

// ------------------------------------------------------------- test worlds

// Per-shard event logs: logs[s] is written only by shard s's events.
using ShardLogs = std::vector<std::vector<int>>;

uint64_t LogHash(const ShardLogs& logs) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over (shard, entries...).
  for (size_t s = 0; s < logs.size(); ++s) {
    hash = (hash ^ (s | 0x80000000ULL)) * 0x100000001b3ULL;
    for (const int v : logs[s]) {
      hash = (hash ^ static_cast<uint32_t>(v)) * 0x100000001b3ULL;
    }
  }
  return hash;
}

// Shard s runs s+1 self-rescheduling chains of `links` events, 30 us apart:
// a skewed load whose shard->worker packing the rebalancer can improve.
// Every event logs (chain, links left) on its shard.
ShardLogs RunSkewedChains(sim::ShardedEngine& engine, int links) {
  ShardLogs logs(static_cast<size_t>(engine.num_shards()));
  std::vector<std::shared_ptr<std::function<void(int)>>> chains;
  for (int s = 0; s < engine.num_shards(); ++s) {
    for (int c = 0; c <= s; ++c) {
      auto* sim = engine.shard(s);
      auto* log = &logs[static_cast<size_t>(s)];
      auto chain = std::make_shared<std::function<void(int)>>();
      *chain = [sim, log, c, chain](int left) {
        log->push_back(c * 100000 + left);
        if (left > 0) {
          sim->ScheduleAt(sim->Now() + Micros(30), [chain, left] { (*chain)(left - 1); });
        }
      };
      sim->ScheduleAt(Micros(1) * (c + 1), [chain, links] { (*chain)(links - 1); });
      chains.push_back(std::move(chain));
    }
  }
  engine.Run();
  for (auto& chain : chains) {
    *chain = nullptr;  // Break the self-reference cycle (LSan flags it).
  }
  return logs;
}

// A 4-shard ring built to live in the quiet-frontier regime: a chain
// self-schedules with gaps smaller than the lookahead (so its shard is the
// lone shard below the window horizon for long stretches) and every 40th
// link hops to the next shard. A sparse heartbeat on shard 0 shares some
// windows with the chain, so both one-ready-shard and multi-shard windows
// occur.
ShardLogs RunQuietRing(sim::ShardedEngine& engine) {
  ShardLogs logs(4);
  std::function<void(int)> beat = [&](int left) {
    logs[0].push_back(-left);
    if (left > 0) {
      auto* sim = engine.shard(0);
      sim->ScheduleAt(sim->Now() + Micros(250), [&beat, left] { beat(left - 1); });
    }
  };
  engine.shard(0)->ScheduleAt(Micros(3), [&beat] { beat(40); });
  std::function<void(int, int)> link = [&](int shard, int left) {
    logs[static_cast<size_t>(shard)].push_back(left);
    if (left <= 0) {
      return;
    }
    auto* sim = engine.shard(shard);
    if (left % 40 == 0) {
      const int dst = (shard + 1) % 4;
      engine.Post(dst, sim->Now() + Micros(120), [&link, dst, left] { link(dst, left - 1); });
    } else {
      sim->ScheduleAt(sim->Now() + Micros(30), [&link, shard, left] { link(shard, left - 1); });
    }
  };
  engine.shard(2)->ScheduleAt(Micros(5), [&link] { link(2, 400); });
  engine.Run();
  return logs;
}

sim::ShardedEngine::Options EngineOptions(int num_shards, int workers) {
  sim::ShardedEngine::Options opt;
  opt.num_shards = num_shards;
  opt.lookahead = Micros(100);
  opt.workers = workers;
  return opt;
}

// Every engine counter a scorecard or bench reads, rendered exactly.
std::string CounterCard(uint64_t windows, uint64_t fused, uint64_t events, uint64_t messages,
                        TimeNs now, double epw_p50, double epw_p99,
                        const std::vector<std::pair<int, uint64_t>>& critical_path,
                        const std::vector<std::pair<int, double>>& imbalance) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "windows=%llu fused=%llu events=%llu msgs=%llu now=%lld epw=%.17g/%.17g",
                static_cast<unsigned long long>(windows), static_cast<unsigned long long>(fused),
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(messages), static_cast<long long>(now), epw_p50,
                epw_p99);
  std::string card = buf;
  for (const auto& [w, cp] : critical_path) {
    card += " cp" + std::to_string(w) + "=" + std::to_string(cp);
  }
  for (const auto& [w, ratio] : imbalance) {
    std::snprintf(buf, sizeof(buf), " imb%d=%.17g", w, ratio);
    card += buf;
  }
  return card;
}

std::string EngineCard(const sim::ShardedEngine& engine) {
  std::vector<std::pair<int, uint64_t>> critical_path;
  std::vector<std::pair<int, double>> imbalance;
  for (const int w : {1, 2, 4, 8, 16, 32}) {
    critical_path.emplace_back(w, engine.critical_path_events(w));
    imbalance.emplace_back(w, engine.imbalance_ratio(w));
  }
  return CounterCard(engine.windows_run(), engine.fused_windows(), engine.executed_events(),
                     engine.cross_shard_messages(), engine.Now(),
                     engine.events_per_window_percentile(50),
                     engine.events_per_window_percentile(99), critical_path, imbalance);
}

// The two engine worlds' event-log hashes and counter cards at workers=1
// (RunQuietRing; RunSkewedChains with 1000 links), pinned by EnginePinTest.*.
constexpr uint64_t kQuietRingLogHash = 0xaf39a2263b42e59dULL;
constexpr char kQuietRingCard[] =
    "windows=104 fused=73 events=442 msgs=10 now=12905000 epw=4/5 cp1=442 cp2=421 "
    "cp4=411 cp8=411 cp16=411 cp32=411 imb1=1 imb2=1.0950226244343892 "
    "imb4=1.4570135746606334 imb8=1.4570135746606334 imb16=1.4570135746606334 "
    "imb32=1.4570135746606334";
constexpr uint64_t kSkewedChainLogHash = 0x0965d499538b775dULL;
constexpr char kSkewedChainCard[] =
    "windows=250 fused=0 events=36000 msgs=0 now=29978000 epw=151.5/151.5 cp1=36000 "
    "cp2=18512 cp4=9768 cp8=8000 cp16=8000 cp32=8000 imb1=1 imb2=1.0284444444444445 "
    "imb4=1.0853333333333333 imb8=1.3795555555555556 imb16=1.3795555555555556 "
    "imb32=1.3795555555555556";

// ------------------------------------------------------------ engine basics

TEST(ShardedEngineTest, SingleShardMatchesPlainSimulator) {
  // One shard, no lookahead needed: the engine degenerates to Simulator::Run.
  sim::ShardedEngine::Options opt;
  opt.num_shards = 1;
  sim::ShardedEngine engine(opt);
  std::vector<int> order;
  engine.shard(0)->ScheduleAt(Micros(20), [&] { order.push_back(2); });
  engine.shard(0)->ScheduleAt(Micros(10), [&] { order.push_back(1); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.executed_events(), 2u);
  EXPECT_EQ(engine.cross_shard_messages(), 0u);
}

TEST(ShardedEngineTest, OneShardChecksPredicateAfterEveryEvent) {
  // The one-shard engine must stop exactly where Simulator::RunUntilPredicate
  // stops: after the event that satisfies the predicate, even when another
  // event shares its timestamp, with daemons and tombstones treated alike.
  auto script = [](sim::Simulator* sim, std::vector<int>* order) {
    sim->ScheduleAt(Micros(10), [order] { order->push_back(1); });
    sim->ScheduleAt(Micros(10), [order] { order->push_back(2); });
    sim->ScheduleDaemon(Micros(15), [order] { order->push_back(3); });
    const sim::EventId dead = sim->ScheduleAt(Micros(40), [order] { order->push_back(9); });
    sim->ScheduleAt(Micros(20), [order] { order->push_back(4); });
    sim->Cancel(dead);
  };
  sim::Simulator plain;
  std::vector<int> plain_order;
  script(&plain, &plain_order);
  sim::ShardedEngine::Options opt;
  opt.num_shards = 1;
  sim::ShardedEngine engine(opt);
  std::vector<int> engine_order;
  script(engine.shard(0), &engine_order);

  EXPECT_TRUE(plain.RunUntilPredicate([&] { return plain_order.size() == 1; }));
  EXPECT_TRUE(engine.RunUntilPredicate([&] { return engine_order.size() == 1; }));
  EXPECT_EQ(engine_order, plain_order);
  EXPECT_EQ(engine.executed_events(), 1u);
  EXPECT_FALSE(plain.RunUntilPredicate([] { return false; }));
  EXPECT_FALSE(engine.RunUntilPredicate([] { return false; }));
  EXPECT_EQ(engine_order, plain_order);
  EXPECT_EQ(engine_order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(engine.executed_events(), plain.executed_events());
  EXPECT_EQ(engine.Now(), plain.Now());
  EXPECT_EQ(engine.windows_run(), 0u) << "one shard opens no windows";
}

TEST(ShardedEngineTest, OneShardRunsGlobalsFirstAndNeverForTheirOwnSake) {
  sim::ShardedEngine::Options opt;
  opt.num_shards = 1;
  sim::ShardedEngine engine(opt);
  std::vector<int> order;
  engine.shard(0)->ScheduleAt(Micros(50), [&] { order.push_back(2); });
  engine.ScheduleGlobal(Micros(50), [&] {
    EXPECT_EQ(engine.shard(0)->Now(), Micros(50));
    order.push_back(1);
  });
  engine.ScheduleGlobal(Micros(80), [&] { order.push_back(3); });  // Past the last event.
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.executed_events(), 1u) << "global events are not shard events";
}

TEST(ShardedEngineTest, PostDeliversInDeterministicOrder) {
  // Messages from two source shards to one destination, tied on time: drain
  // order must be (when, src, send-seq) regardless of worker count.
  for (const int workers : {1, 2, 3}) {
    sim::ShardedEngine::Options opt;
    opt.num_shards = 3;
    opt.lookahead = Micros(100);
    opt.workers = workers;
    sim::ShardedEngine e2(opt);
    std::vector<int> arrivals;
    // Shards 1 and 2 each send two messages to shard 0 at the same time;
    // (src, k) is encoded in the arrival log to expose the tie-break.
    for (const int src : {2, 1}) {
      e2.shard(src)->ScheduleAt(Micros(10), [&e2, &arrivals, src] {
        for (int k = 0; k < 2; ++k) {
          e2.Post(0, Micros(500), [&arrivals, src, k] { arrivals.push_back(src * 10 + k); });
        }
      });
    }
    e2.Run();
    // Equal time -> ascending src, then send order within the pair.
    EXPECT_EQ(arrivals, (std::vector<int>{10, 11, 20, 21})) << "workers=" << workers;
    EXPECT_EQ(e2.cross_shard_messages(), 4u);
  }
}

TEST(ShardedEngineTest, GlobalEventsRunQuiescedBeforeEqualTimeShardEvents) {
  sim::ShardedEngine::Options opt;
  opt.num_shards = 2;
  opt.lookahead = Micros(100);
  sim::ShardedEngine engine(opt);
  std::vector<int> order;
  engine.shard(1)->ScheduleAt(Micros(50), [&] { order.push_back(2); });
  engine.ScheduleGlobal(Micros(50), [&] {
    // Quiesced: both shard clocks have been advanced to exactly this time.
    EXPECT_EQ(engine.shard(0)->Now(), Micros(50));
    EXPECT_EQ(engine.shard(1)->Now(), Micros(50));
    order.push_back(1);
  });
  engine.shard(0)->ScheduleAt(Micros(10), [&] { order.push_back(0); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ShardedEngineTest, CriticalPathAccountingIsConsistent) {
  // cp(1) counts every windowed event; cp is monotonically non-increasing in
  // the worker count; cp(w) is a fixed property of the schedule, not of the
  // worker count the engine actually ran with.
  std::vector<uint64_t> cp1, cp8;
  for (const int workers : {1, 4}) {
    sim::ShardedEngine engine(EngineOptions(8, workers));
    RunSkewedChains(engine, /*links=*/50);
    EXPECT_EQ(engine.critical_path_events(1), engine.executed_events());
    EXPECT_GE(engine.critical_path_events(1), engine.critical_path_events(2));
    EXPECT_GE(engine.critical_path_events(2), engine.critical_path_events(4));
    EXPECT_GE(engine.critical_path_events(4), engine.critical_path_events(8));
    EXPECT_GT(engine.critical_path_events(8), 0u);
    EXPECT_EQ(engine.critical_path_events(3), 0u) << "untracked worker count";
    cp1.push_back(engine.critical_path_events(1));
    cp8.push_back(engine.critical_path_events(8));
  }
  EXPECT_EQ(cp1[0], cp1[1]);  // Same schedule -> same accounting at any workers.
  EXPECT_EQ(cp8[0], cp8[1]);
}

TEST(ShardedEngineTest, WorkerCountDoesNotChangeWindowCount) {
  auto run = [](int workers) {
    sim::ShardedEngine::Options opt;
    opt.num_shards = 4;
    opt.lookahead = Micros(100);
    opt.workers = workers;
    sim::ShardedEngine engine(opt);
    uint64_t bounces = 0;
    std::function<void(int)> bounce = [&](int dst) {
      if (++bounces >= 1000) {
        return;
      }
      engine.Post((dst + 1) % 4, engine.shard(dst)->Now() + Micros(120),
                  [&bounce, dst] { bounce((dst + 1) % 4); });
    };
    engine.shard(0)->ScheduleAt(Micros(5), [&bounce] { bounce(0); });
    engine.Run();
    return std::tuple(engine.windows_run(), engine.executed_events(),
                      engine.cross_shard_messages(), engine.Now());
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(4), base);
  EXPECT_EQ(run(8), base);  // Caps at num_shards.
}

TEST(ShardedEngineTest, FusionFastPathPreservesScheduleByteForByte) {
  // In the quiet-ring world most windows hold one ready shard, which runs
  // inline on the coordinator, and the rest hold two. With a worker pool
  // present, the event order and every counter must still be the ones
  // pinned at workers=1.
  sim::ShardedEngine engine(EngineOptions(4, /*workers=*/4));
  const ShardLogs logs = RunQuietRing(engine);
  EXPECT_GT(engine.fused_windows(), 0u);
  EXPECT_LT(engine.fused_windows(), engine.windows_run());
  EXPECT_EQ(LogHash(logs), kQuietRingLogHash) << "event order diverged";
  EXPECT_EQ(EngineCard(engine), kQuietRingCard) << "window decisions depended on worker count";
}

TEST(ShardedEngineTest, AdaptiveRebalanceIsScheduleInvariantAndBalances) {
  // Skewed load (shard s runs s+1 event chains), long enough for several
  // repacks: the adaptive LPT maps must pack the hypothetical 4-worker bins
  // tighter than the static s % 4 map would have — computed here from the
  // per-shard event totals — while every schedule observable stays
  // independent of the worker count that actually ran.
  auto run = [](int workers) {
    sim::ShardedEngine engine(EngineOptions(8, workers));
    const ShardLogs logs = RunSkewedChains(engine, /*links=*/1000);
    std::vector<uint64_t> static_bins(4, 0);
    for (int s = 0; s < engine.num_shards(); ++s) {
      static_bins[static_cast<size_t>(s % 4)] += engine.shard(s)->executed_events();
    }
    const uint64_t max_bin = *std::max_element(static_bins.begin(), static_bins.end());
    const double static_imbalance = static_cast<double>(max_bin) * 4.0 /
                                    static_cast<double>(engine.executed_events());
    return std::tuple(engine.windows_run(), engine.executed_events(), engine.Now(),
                      LogHash(logs), engine.imbalance_ratio(4), static_imbalance);
  };
  const auto one = run(1);
  EXPECT_GE(std::get<0>(one), 3 * sim::ShardedEngine::kRebalancePeriod)
      << "the run must span several repack periods";
  EXPECT_LT(std::get<4>(one), std::get<5>(one)) << "LPT should beat s % w on a skewed world";
  // Accounting (including imbalance) is derived from event counts, so it is
  // itself bit-deterministic across worker counts.
  EXPECT_EQ(run(4), one);
}

// ------------------------------------- 1000-node chaos scorecard property

// The PR's headline property: a 1000-node chaos scenario — auto-sharded onto
// the PDES engine — produces a byte-identical scorecard across every
// MITT_INTRA_WORKERS x MITT_TRIAL_WORKERS combination. Workload is kept
// small (the property is about ordering, not statistics).
harness::ExperimentOptions ChaosWorld() {
  harness::ExperimentOptions base;
  base.num_nodes = 1000;
  base.num_clients = 250;
  base.num_keys_per_node = 64;
  base.cache_pages = 64;
  base.warm_fraction = 0.5;
  base.measure_requests = 1200;
  base.warmup_requests = 100;
  base.noise = harness::NoiseKind::kNone;
  base.deadline = Millis(13);
  base.seed = 20170917;
  return base;
}

std::string ChaosScorecard(int intra_workers, int trial_workers) {
  harness::ScenarioRunner::Options opt;
  opt.base = ChaosWorld();
  opt.base.intra_workers = intra_workers;
  opt.strategies = {StrategyKind::kMittos};
  opt.workers = trial_workers;
  harness::ScenarioRunner runner(opt);

  fault::ChaosOptions chaos;
  chaos.mean_gap = Seconds(2);
  harness::FaultScenario scenario;
  scenario.name = "chaos-1000";
  scenario.plan = fault::GenerateChaosPlan(chaos, opt.base.num_nodes,
                                           /*horizon=*/Seconds(30), /*seed=*/7);
  const auto scores = runner.Run({scenario});
  EXPECT_EQ(runner.results().back().num_shards, 31) << "1000 nodes must auto-shard";
  EXPECT_GT(runner.results().back().fault_episodes, 0u) << "chaos must land";
  return harness::ScorecardJson(scores, runner.slo_deadline());
}

TEST(ShardDeterminismTest, ChaosScorecardIsByteIdenticalAcrossWorkerGrids) {
  const std::string reference = ChaosScorecard(/*intra_workers=*/1, /*trial_workers=*/1);
  ASSERT_FALSE(reference.empty());
  for (const int intra : {2, 8}) {
    for (const int trial : {1, 4}) {
      EXPECT_EQ(ChaosScorecard(intra, trial), reference)
          << "intra_workers=" << intra << " trial_workers=" << trial;
    }
  }
  // intra=1 x trial=4 closes the grid.
  EXPECT_EQ(ChaosScorecard(1, 4), reference);
}

TEST(ShardDeterminismTest, IntraWorkerEnvVarIsHonored) {
  // MITT_INTRA_WORKERS is the env knob CI sets; resolving through it must be
  // the same as setting intra_workers explicitly.
  ASSERT_EQ(setenv("MITT_INTRA_WORKERS", "2", /*overwrite=*/1), 0);
  EXPECT_EQ(sim::DefaultIntraWorkers(), 2);
  const std::string via_env = ChaosScorecard(/*intra_workers=*/0, /*trial_workers=*/1);
  ASSERT_EQ(unsetenv("MITT_INTRA_WORKERS"), 0);
  EXPECT_EQ(sim::DefaultIntraWorkers(), 1);
  EXPECT_EQ(via_env, ChaosScorecard(/*intra_workers=*/2, /*trial_workers=*/1));
}

// ----------------------------------------------------- engine counter pins

// The window loop's schedule — window boundaries, which windows run a lone
// ready shard, when the shard->worker map is repacked — and its load
// accounting are pinned outright: a change to the loop must reproduce every
// counter below. (The tests above check that a worker pool changes none of
// them.)

TEST(EnginePinTest, QuietRingCountersArePinned) {
  sim::ShardedEngine engine(EngineOptions(4, /*workers=*/1));
  const ShardLogs logs = RunQuietRing(engine);
  EXPECT_EQ(LogHash(logs), kQuietRingLogHash);
  EXPECT_EQ(EngineCard(engine), kQuietRingCard);
}

TEST(EnginePinTest, SkewedChainCountersArePinned) {
  sim::ShardedEngine engine(EngineOptions(8, /*workers=*/1));
  const ShardLogs logs = RunSkewedChains(engine, /*links=*/1000);
  EXPECT_EQ(LogHash(logs), kSkewedChainLogHash);
  EXPECT_EQ(EngineCard(engine), kSkewedChainCard);
}

TEST(EnginePinTest, ChaosWorldCountersArePinned) {
  harness::ExperimentOptions opt = ChaosWorld();
  opt.intra_workers = 1;
  fault::ChaosOptions chaos;
  chaos.mean_gap = Seconds(2);
  opt.fault_plan = fault::GenerateChaosPlan(chaos, opt.num_nodes, /*horizon=*/Seconds(30),
                                            /*seed=*/7);
  const harness::RunResult r = harness::Experiment(opt).Run(StrategyKind::kMittos);
  ASSERT_EQ(r.num_shards, 31);
  EXPECT_EQ(CounterCard(r.engine_windows, r.engine_fused_windows, r.sim_events,
                        r.cross_shard_messages, r.sim_duration, r.events_per_window_p50,
                        r.events_per_window_p99, r.critical_path, r.imbalance),
            "windows=138 fused=8 events=7098 msgs=2532 now=21589619 epw=33.5/199.5 cp1=7098 "
            "cp2=4118 cp4=2529 cp8=1708 cp16=1243 cp32=913 imb1=1 imb2=1.018596787827557 "
            "imb4=1.0904480135249366 imb8=1.0662158354466047 imb16=1.1879402648633417 "
            "imb32=1.2665539588616512");
}

// ----------------------- one-shard world: faults + SLO-aware controller

// A paper-scale world (auto-resolved to one shard) with every global-event
// source on: fault episodes and PlacementController ticks. Oracle harvest
// must show conservation and exactly-once delivery, the controller must
// leave a valid placement, and the scorecard must not depend on the worker
// count the engine is given.
harness::RunResult OneShardFaultControllerRun(int intra_workers) {
  harness::ExperimentOptions opt;
  opt.num_nodes = 6;
  opt.num_clients = 0;
  opt.backend = os::BackendKind::kSsd;
  opt.num_keys_per_node = 1 << 14;
  opt.cache_pages = 1 << 8;
  opt.noise = harness::NoiseKind::kContinuous;  // Node 0: the hot node to drain.
  opt.continuous_intensity = 60;
  opt.noise_horizon = Seconds(2);
  opt.tenants.enabled = true;
  opt.tenants.mix.num_tenants = 120;
  opt.tenants.mix.total_rate_hz = 6000;
  opt.tenants.slo_aware = true;
  opt.tenants.controller.period = Millis(50);
  opt.tenants.warmup = Millis(50);
  opt.tenants.duration = Millis(500);
  fault::FaultPlanBuilder b;
  b.SsdReadRetry(/*node=*/1, Millis(100), Millis(150), 20.0);
  b.NodePause(/*node=*/2, Millis(200), Millis(40));
  b.NetworkDrop(/*node=*/3, Millis(60), Millis(200), 0.2);
  opt.fault_plan = b.Build();
  opt.harvest_oracles = true;
  opt.intra_workers = intra_workers;
  opt.seed = 4242;
  EXPECT_EQ(harness::ResolveShards(opt), 1);
  return harness::Experiment(opt).Run(StrategyKind::kMittos);
}

TEST(ShardDeterminismTest, OneShardFaultAndControllerWorldIsExactlyOnceAndWorkerInvariant) {
  const harness::RunResult r = OneShardFaultControllerRun(/*intra_workers=*/1);
  EXPECT_EQ(r.num_shards, 1);
  EXPECT_EQ(r.fault_episodes, 3u);
  EXPECT_GT(r.controller_ticks, 0u);
  EXPECT_GT(r.tenant_migrations, 0u) << "the controller must act on the hot node";
  const harness::OracleHarvest& o = r.oracle;
  ASSERT_TRUE(o.enabled);
  EXPECT_GT(o.gets_issued, 0u);
  EXPECT_EQ(o.gets_done, o.gets_issued) << "every issued get completes";
  EXPECT_EQ(o.gets_done_duplicate, 0u) << "no get completes twice";
  EXPECT_EQ(o.done_ok + o.done_busy + o.done_exhausted + o.done_error, o.gets_done);
  EXPECT_TRUE(o.placement_ok) << o.placement_detail;

  const auto card = [](const harness::RunResult& x) {
    return chaos::ResultFingerprint(x) + " events=" + std::to_string(x.sim_events) +
           " duration=" + std::to_string(x.sim_duration) +
           " ticks=" + std::to_string(x.controller_ticks) +
           " hot=" + std::to_string(x.controller_hot_ticks);
  };
  EXPECT_EQ(card(OneShardFaultControllerRun(/*intra_workers=*/2)), card(r));
}

// -------------------------------------------- trace export byte-identity

TEST(ShardDeterminismTest, TraceExportIsByteIdenticalAcrossWorkerCounts) {
  // Traced sharded run with a deliberately tiny ring, so the drop-oldest
  // path truncates: per-shard truncation plus the (begin, end, shard-order)
  // merge must still export byte-identical JSON at any worker count.
  auto run = [](int intra_workers) {
    harness::ExperimentOptions opt;
    opt.num_nodes = 128;
    opt.num_clients = 64;
    opt.num_keys_per_node = 256;
    opt.cache_pages = 128;
    opt.warm_fraction = 0.5;
    opt.measure_requests = 1500;
    opt.warmup_requests = 100;
    opt.noise = harness::NoiseKind::kNone;
    opt.deadline = Millis(13);
    opt.trace = true;
    opt.trace_capacity = 512;  // Small enough that every shard ring wraps.
    opt.num_shards = 8;
    opt.intra_workers = intra_workers;
    opt.seed = 20170918;
    harness::Experiment experiment(opt);
    return experiment.Run(StrategyKind::kMittos);
  };
  const harness::RunResult ref = run(1);
  ASSERT_EQ(ref.num_shards, 8);
#if MITT_OBS_ENABLED
  // Spans are recorded only when observability is compiled in.
  ASSERT_GT(ref.trace_dropped, 0u) << "ring must wrap to exercise drop-oldest";
  const std::string ref_json = obs::ChromeTraceJson(ref.trace_spans, "scale");
#endif
  for (const int workers : {2, 8}) {
    const harness::RunResult r = run(workers);
    EXPECT_EQ(r.requests, ref.requests) << "workers=" << workers;
    EXPECT_EQ(r.sim_events, ref.sim_events) << "workers=" << workers;
#if MITT_OBS_ENABLED
    EXPECT_EQ(r.trace_dropped, ref.trace_dropped) << "workers=" << workers;
    EXPECT_EQ(obs::ChromeTraceJson(r.trace_spans, "scale"), ref_json)
        << "workers=" << workers;
#endif
  }
}

}  // namespace
}  // namespace mitt
