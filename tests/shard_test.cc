// ShardedEngine (src/sim/sharded_engine.h): conservative-PDES unit tests
// plus the end-to-end determinism properties the whole PR hangs on —
// scorecards and trace exports must be *byte-identical* at any
// MITT_INTRA_WORKERS x MITT_TRIAL_WORKERS combination.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/chaos/world.h"
#include "src/common/time.h"
#include "src/fault/fault_plan.h"
#include "src/harness/experiment.h"
#include "src/harness/scenario_runner.h"
#include "src/obs/export.h"
#include "src/sim/sharded_engine.h"

namespace mitt {
namespace {

using harness::StrategyKind;

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
    sim::ShardedEngine::Options opt;
    opt.num_shards = 8;
    opt.lookahead = Micros(100);
    opt.workers = workers;
    sim::ShardedEngine engine(opt);
    std::vector<std::shared_ptr<std::function<void(int)>>> chains;
    for (int s = 0; s < 8; ++s) {
      // Uneven load: shard s runs s+1 chains of 50 self-rescheduling events.
      for (int c = 0; c <= s; ++c) {
        auto* sim = engine.shard(s);
        auto chain = std::make_shared<std::function<void(int)>>();
        *chain = [sim, chain](int left) {
          if (left > 0) {
            sim->ScheduleAt(sim->Now() + Micros(30), [chain, left] { (*chain)(left - 1); });
          }
        };
        sim->ScheduleAt(Micros(1) * (c + 1), [chain] { (*chain)(49); });
        chains.push_back(std::move(chain));
      }
    }
    engine.Run();
    for (auto& chain : chains) {
      *chain = nullptr;  // Break the self-reference cycle (LSan flags it).
    }
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
  // A world built to live in the quiet-frontier regime: shard 2 self-chains
  // with gaps smaller than the lookahead (so it is the lone shard below the
  // window horizon for long stretches) and every 40th link posts across the
  // ring (forcing fallbacks to the full barrier path). With fusion on, the
  // fast path must engage — and every observable, including the per-shard
  // event order and the *window count*, must be byte-identical to the
  // unfused engine at any worker count.
  auto run = [](int fusion, int workers) {
    sim::ShardedEngine::Options opt;
    opt.num_shards = 4;
    opt.lookahead = Micros(100);
    opt.workers = workers;
    opt.fusion = fusion;
    opt.rebalance_period = 0;
    sim::ShardedEngine engine(opt);
    std::vector<std::vector<int>> logs(4);  // Per-shard: written only by its owner.
    std::function<void(int, int)> link = [&](int shard, int left) {
      logs[static_cast<size_t>(shard)].push_back(left);
      if (left <= 0) {
        return;
      }
      auto* sim = engine.shard(shard);
      if (left % 40 == 0) {
        const int dst = (shard + 1) % 4;
        engine.Post(dst, sim->Now() + Micros(120),
                    [&link, dst, left] { link(dst, left - 1); });
      } else {
        sim->ScheduleAt(sim->Now() + Micros(30), [&link, shard, left] { link(shard, left - 1); });
      }
    };
    engine.shard(2)->ScheduleAt(Micros(5), [&link] { link(2, 400); });
    engine.Run();
    return std::tuple(engine.windows_run(), engine.fused_windows(), engine.executed_events(),
                      engine.cross_shard_messages(), engine.Now(), logs);
  };
  const auto fused = run(1, 1);
  const auto unfused = run(0, 1);
  EXPECT_GT(std::get<1>(fused), 0u) << "fast path never engaged";
  EXPECT_EQ(std::get<1>(unfused), 0u);
  EXPECT_EQ(std::get<0>(fused), std::get<0>(unfused)) << "fusion changed the window count";
  EXPECT_EQ(std::get<2>(fused), std::get<2>(unfused));
  EXPECT_EQ(std::get<3>(fused), std::get<3>(unfused));
  EXPECT_EQ(std::get<4>(fused), std::get<4>(unfused));
  EXPECT_EQ(std::get<5>(fused), std::get<5>(unfused)) << "event order diverged";
  EXPECT_EQ(run(1, 4), fused) << "fusion decisions depended on worker count";
}

TEST(ShardedEngineTest, AdaptiveRebalanceIsScheduleInvariantAndBalances) {
  // Skewed load (shard s runs s+1 event chains): the adaptive LPT repack
  // must leave every schedule observable untouched — it only moves shards
  // between threads — while packing the hypothetical 4-worker bins tighter
  // than the static s % 4 map. Period 0 keeps the static map, in which case
  // the adaptive and static imbalance ratios coincide by construction.
  auto run = [](int period, int workers) {
    sim::ShardedEngine::Options opt;
    opt.num_shards = 8;
    opt.lookahead = Micros(100);
    opt.workers = workers;
    opt.rebalance_period = period;
    opt.fusion = 0;
    sim::ShardedEngine engine(opt);
    std::vector<std::shared_ptr<std::function<void(int)>>> chains;
    for (int s = 0; s < 8; ++s) {
      for (int c = 0; c <= s; ++c) {
        auto* sim = engine.shard(s);
        auto chain = std::make_shared<std::function<void(int)>>();
        *chain = [sim, chain](int left) {
          if (left > 0) {
            sim->ScheduleAt(sim->Now() + Micros(30), [chain, left] { (*chain)(left - 1); });
          }
        };
        sim->ScheduleAt(Micros(1) * (c + 1), [chain] { (*chain)(199); });
        chains.push_back(std::move(chain));
      }
    }
    engine.Run();
    for (auto& chain : chains) {
      *chain = nullptr;  // Break the self-reference cycle (LSan flags it).
    }
    return std::tuple(engine.windows_run(), engine.executed_events(), engine.Now(),
                      engine.imbalance_ratio(4), engine.imbalance_ratio_static(4));
  };
  const auto statc = run(0, 1);
  const auto adaptive = run(8, 1);
  EXPECT_EQ(std::get<0>(statc), std::get<0>(adaptive));
  EXPECT_EQ(std::get<1>(statc), std::get<1>(adaptive));
  EXPECT_EQ(std::get<2>(statc), std::get<2>(adaptive));
  EXPECT_EQ(std::get<3>(statc), std::get<4>(statc)) << "period 0 must keep the static map";
  EXPECT_LT(std::get<3>(adaptive), std::get<4>(adaptive))
      << "LPT should beat s % w on a skewed world";
  // Accounting (including imbalance) is derived from event counts, so it is
  // itself bit-deterministic across worker counts.
  EXPECT_EQ(run(8, 4), adaptive);
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

std::string ChaosScorecard(int intra_workers, int trial_workers, int engine_fusion = -1,
                           int engine_rebalance = -1) {
  harness::ScenarioRunner::Options opt;
  opt.base = ChaosWorld();
  opt.base.intra_workers = intra_workers;
  opt.base.engine_fusion = engine_fusion;
  opt.base.engine_rebalance = engine_rebalance;
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

TEST(ShardDeterminismTest, FusionAndRebalanceKeepChaosScorecardByteIdentical) {
  // The scale-out machinery is schedule-preserving: the chaos scorecard with
  // window fusion disabled, or with the static shard map (rebalance period
  // 0), must be byte-identical to the default engine's (fusion on, adaptive
  // LPT repacks every 64 windows) — at every {intra} x {trial} grid corner.
  const std::string reference = ChaosScorecard(/*intra_workers=*/1, /*trial_workers=*/1);
  ASSERT_FALSE(reference.empty());
  // Unfused engine across the grid.
  EXPECT_EQ(ChaosScorecard(1, 1, /*engine_fusion=*/0), reference);
  EXPECT_EQ(ChaosScorecard(2, 4, /*engine_fusion=*/0), reference);
  EXPECT_EQ(ChaosScorecard(8, 1, /*engine_fusion=*/0), reference);
  // Static-map engine across the grid.
  EXPECT_EQ(ChaosScorecard(1, 4, -1, /*engine_rebalance=*/0), reference);
  EXPECT_EQ(ChaosScorecard(2, 1, -1, /*engine_rebalance=*/0), reference);
  EXPECT_EQ(ChaosScorecard(8, 4, -1, /*engine_rebalance=*/0), reference);
  // Both off at the far grid corner, and an aggressive repack cadence.
  EXPECT_EQ(ChaosScorecard(8, 4, 0, 0), reference);
  EXPECT_EQ(ChaosScorecard(2, 4, -1, /*engine_rebalance=*/4), reference);
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
  ASSERT_GT(ref.trace_dropped, 0u) << "ring must wrap to exercise drop-oldest";
  const std::string ref_json = obs::ChromeTraceJson(ref.trace_spans, "scale");
  for (const int workers : {2, 8}) {
    const harness::RunResult r = run(workers);
    EXPECT_EQ(r.trace_dropped, ref.trace_dropped) << "workers=" << workers;
    EXPECT_EQ(obs::ChromeTraceJson(r.trace_spans, "scale"), ref_json)
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace mitt
