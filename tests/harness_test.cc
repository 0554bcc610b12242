#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/study/nosql_study.h"

namespace mitt::harness {
namespace {

// A small but end-to-end experiment: 3 nodes, continuous noise on node 0,
// all keys pinned to node 0's primary ownership (the §7.1 microbenchmark
// shape). Small request counts keep the suite fast.
ExperimentOptions MicroOptions() {
  ExperimentOptions opt;
  opt.num_nodes = 3;
  opt.num_clients = 2;
  opt.measure_requests = 600;
  opt.warmup_requests = 50;
  opt.pin_primary_node = 0;
  opt.noise = NoiseKind::kContinuous;
  opt.continuous_intensity = 2;
  opt.deadline = Millis(20);
  opt.hedge_delay = Millis(20);
  opt.app_timeout = Millis(20);
  opt.num_keys_per_node = 1 << 19;
  opt.seed = 2024;
  return opt;
}

TEST(ExperimentTest, MittosBeatsBaseUnderContinuousNoise) {
  Experiment experiment(MicroOptions());
  const RunResult base = experiment.Run(StrategyKind::kBase);
  const RunResult mitt = experiment.Run(StrategyKind::kMittos);
  ASSERT_EQ(base.requests, 650u);
  ASSERT_EQ(mitt.requests, 650u);
  EXPECT_GT(mitt.ebusy_failovers, 0u);
  // The noisy primary dominates Base's distribution; MittOS fails over fast.
  EXPECT_LT(mitt.get_latencies.Percentile(90), base.get_latencies.Percentile(90));
  EXPECT_LT(mitt.get_latencies.Percentile(90), Millis(20));
}

TEST(ExperimentTest, MittosBeatsHedgedAtTail) {
  Experiment experiment(MicroOptions());
  const RunResult hedged = experiment.Run(StrategyKind::kHedged);
  const RunResult mitt = experiment.Run(StrategyKind::kMittos);
  EXPECT_GT(hedged.hedges_sent, 0u);
  // Hedged waits 20ms before reacting; MittOS does not wait.
  EXPECT_LT(mitt.get_latencies.Percentile(90), hedged.get_latencies.Percentile(90));
}

TEST(ExperimentTest, RunAllDerivesP95Values) {
  ExperimentOptions opt = MicroOptions();
  opt.deadline = -1;
  opt.hedge_delay = -1;
  opt.app_timeout = -1;
  opt.measure_requests = 300;
  Experiment experiment(opt);
  const auto results =
      experiment.RunAll({StrategyKind::kBase, StrategyKind::kMittos});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "Base");
  EXPECT_EQ(results[1].name, "MittOS");
  EXPECT_GT(experiment.derived_p95(), 0);
  EXPECT_EQ(experiment.options().deadline, experiment.derived_p95());
}

TEST(ExperimentTest, ScaleFactorAmplifiesUserLatency) {
  ExperimentOptions opt = MicroOptions();
  opt.noise = NoiseKind::kNone;
  opt.pin_primary_node = -1;
  opt.scale_factor = 5;
  opt.measure_requests = 300;
  Experiment experiment(opt);
  const RunResult result = experiment.Run(StrategyKind::kBase);
  // A user request waits for all 5 gets: its median exceeds the get median.
  EXPECT_GT(result.user_latencies.Percentile(50), result.get_latencies.Percentile(50));
  EXPECT_EQ(result.user_latencies.count() * 5, result.get_latencies.count());
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  Experiment a(MicroOptions());
  Experiment b(MicroOptions());
  const RunResult ra = a.Run(StrategyKind::kMittos);
  const RunResult rb = b.Run(StrategyKind::kMittos);
  EXPECT_EQ(ra.get_latencies.Percentile(95), rb.get_latencies.Percentile(95));
  EXPECT_EQ(ra.ebusy_failovers, rb.ebusy_failovers);
  EXPECT_EQ(ra.sim_duration, rb.sim_duration);
}

TEST(ExperimentTest, Ec2NoiseProducesTailsNotMedians) {
  ExperimentOptions opt = MicroOptions();
  opt.num_nodes = 9;
  opt.num_clients = 6;
  opt.pin_primary_node = -1;
  opt.noise = NoiseKind::kEc2;
  opt.ec2 = CompressedEc2Noise();
  opt.measure_requests = 1200;
  Experiment experiment(opt);
  const RunResult base = experiment.Run(StrategyKind::kBase);
  // Medians stay mechanical; the tail shows the noise.
  EXPECT_LT(base.get_latencies.Percentile(50), Millis(15));
  EXPECT_GT(base.get_latencies.Percentile(99),
            2 * base.get_latencies.Percentile(50));
}

// The parallel trial runner's determinism contract: merged results must be
// bit-identical regardless of worker count (ISSUE acceptance criterion).
TEST(RunTrialsTest, ParallelMergeBitIdenticalToSerial) {
  ExperimentOptions opt = MicroOptions();
  opt.measure_requests = 300;
  std::vector<Trial> trials;
  trials.push_back({opt, StrategyKind::kBase, ""});
  trials.push_back({opt, StrategyKind::kMittos, ""});
  opt.seed = 777;  // A second world with different randomness.
  trials.push_back({opt, StrategyKind::kHedged, ""});
  trials.push_back({opt, StrategyKind::kMittos, "Renamed"});

  const auto serial = RunTrialsParallel(trials, /*workers=*/1);
  const auto parallel = RunTrialsParallel(trials, /*workers=*/4);

  ASSERT_EQ(serial.size(), trials.size());
  ASSERT_EQ(parallel.size(), trials.size());
  EXPECT_EQ(serial[3].name, "Renamed");
  for (size_t i = 0; i < trials.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].name, parallel[i].name);
    // Exact sample vectors, not just summary stats: bit-identical means the
    // full latency trace matches element by element.
    EXPECT_EQ(serial[i].get_latencies.samples(), parallel[i].get_latencies.samples());
    EXPECT_EQ(serial[i].user_latencies.samples(), parallel[i].user_latencies.samples());
    EXPECT_EQ(serial[i].requests, parallel[i].requests);
    EXPECT_EQ(serial[i].ebusy_failovers, parallel[i].ebusy_failovers);
    EXPECT_EQ(serial[i].hedges_sent, parallel[i].hedges_sent);
    EXPECT_EQ(serial[i].timeouts_fired, parallel[i].timeouts_fired);
    EXPECT_EQ(serial[i].noise_ios, parallel[i].noise_ios);
    EXPECT_EQ(serial[i].sim_duration, parallel[i].sim_duration);
  }
}

TEST(RunTrialsTest, GenericRunnerPreservesTrialOrder) {
  const auto results = RunTrials<size_t>(
      64, [](size_t i) { return i * i; }, /*workers=*/4);
  ASSERT_EQ(results.size(), 64u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(RunTrialsTest, PropagatesTrialExceptions) {
  EXPECT_THROW(RunTrials<int>(
                   8,
                   [](size_t i) {
                     if (i == 5) {
                       throw std::runtime_error("trial 5 failed");
                     }
                     return static_cast<int>(i);
                   },
                   /*workers=*/3),
               std::runtime_error);
}

TEST(NosqlStudyTest, ReproducesTableOneFindings) {
  study::NosqlStudyOptions opt;
  opt.requests = 400;
  const auto rows = study::RunNosqlStudy(opt);
  ASSERT_EQ(rows.size(), 6u);

  std::map<std::string, study::NosqlStudyRow> by_name;
  for (const auto& row : rows) {
    by_name[row.name] = row;
  }
  // Finding 1: no system fails over in its default configuration.
  for (const auto& row : rows) {
    EXPECT_FALSE(row.default_tt) << row.name;
    EXPECT_GE(row.default_timeout, Seconds(5)) << row.name;
    // And the rotating contention produces a long default tail.
    EXPECT_GT(row.default_p99, Millis(20)) << row.name;
  }
  // Finding 2: with a 100ms timeout, three systems fail over, three surface
  // read errors to the user.
  int failover = 0;
  int erroring = 0;
  for (const auto& row : rows) {
    if (row.failover_at_100ms) {
      ++failover;
      EXPECT_EQ(row.errors_at_100ms, 0u) << row.name;
    } else if (row.errors_at_100ms > 0) {
      ++erroring;
    }
  }
  EXPECT_EQ(failover, 3);
  EXPECT_EQ(erroring, 3);
  // Finding 3: only two systems support cloning; none support hedged.
  int clones = 0;
  for (const auto& row : rows) {
    clones += row.supports_clone ? 1 : 0;
    EXPECT_FALSE(row.supports_hedged) << row.name;
  }
  EXPECT_EQ(clones, 2);
}

// --- One-shard stream pin ---
//
// Paper-scale worlds (ResolveShards() == 1) run on a one-shard
// sim::ShardedEngine and must reproduce the standalone-simulator stream the
// paper-scale figures were produced on. The expected scorecards below were
// captured from a standalone-simulator world builder; any drift in issue
// accounting, predicate timing, shared CPU pools or span order shows up as a
// changed string.

ExperimentOptions PinOptions() {
  ExperimentOptions opt;
  opt.num_nodes = 4;
  opt.num_clients = 3;
  opt.measure_requests = 250;  // 281 requests in all: not a multiple of 3.
  opt.warmup_requests = 31;
  opt.num_keys_per_node = 1 << 14;
  opt.cache_pages = 1 << 12;
  opt.deadline = Millis(13);
  opt.seed = 31337;
  return opt;
}

std::string PinScorecard(const RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "requests=%llu p50=%lld p99=%lld max=%lld failovers=%llu sim_events=%llu "
                "sim_duration=%lld",
                static_cast<unsigned long long>(r.requests),
                static_cast<long long>(r.get_latencies.Percentile(50)),
                static_cast<long long>(r.get_latencies.Percentile(99)),
                static_cast<long long>(r.get_latencies.Max()),
                static_cast<unsigned long long>(r.ebusy_failovers),
                static_cast<unsigned long long>(r.sim_events),
                static_cast<long long>(r.sim_duration));
  return buf;
}

RunResult RunPinned(const ExperimentOptions& opt, StrategyKind kind) {
  EXPECT_EQ(ResolveShards(opt), 1);
  return Experiment(opt).Run(kind);
}

TEST(OneShardPinTest, ClosedLoopMacroMixMatchesPinnedStream) {
  ExperimentOptions opt = PinOptions();
  opt.noise = NoiseKind::kMacroMix;
  EXPECT_EQ(PinScorecard(RunPinned(opt, StrategyKind::kMittos)),
            "requests=281 p50=26162778 p99=263271970 max=288727191 failovers=455 "
            "sim_events=12497 sim_duration=3337726926");
}

TEST(OneShardPinTest, SharedCpuPoolMatchesPinnedStream) {
  ExperimentOptions opt = PinOptions();
  opt.shared_cpu_cores = 2;
  opt.scale_factor = 2;
  opt.noise = NoiseKind::kContinuous;
  opt.pin_primary_node = 0;
  EXPECT_EQ(PinScorecard(RunPinned(opt, StrategyKind::kMittos)),
            "requests=281 p50=11063488 p99=36583659 max=39356655 failovers=607 "
            "sim_events=6719 sim_duration=1711405773");
}

TEST(OneShardPinTest, TenantReplayMatchesPinnedStream) {
  ExperimentOptions opt = PinOptions();
  opt.backend = os::BackendKind::kSsd;
  opt.noise = NoiseKind::kContinuous;
  opt.replay.synthetic_profile = 0;
  opt.replay.synthetic_duration = Seconds(2);
  opt.replay.max_events = 400;
  opt.replay.warmup_events = 40;
  opt.tenants.enabled = true;
  opt.tenants.mix.num_tenants = 40;
  opt.tenants.slo_aware = false;
  const RunResult r = RunPinned(opt, StrategyKind::kMittos);
  EXPECT_EQ(r.replay_events, 400u);
  EXPECT_EQ(PinScorecard(r),
            "requests=400 p50=430198 p99=457906 max=460798 failovers=0 "
            "sim_events=645698 sim_duration=1198574104");
}

TEST(OneShardPinTest, TracedRunKeepsPinnedSpanOrder) {
  ExperimentOptions opt = PinOptions();
  opt.noise = NoiseKind::kContinuous;
  opt.pin_primary_node = 0;
  opt.measure_requests = 120;
  opt.trace = true;
  const RunResult r = RunPinned(opt, StrategyKind::kMittos);
  EXPECT_EQ(PinScorecard(r),
            "requests=151 p50=8795984 p99=27817346 max=37081328 failovers=151 "
            "sim_events=1765 sim_duration=525683986");
#if MITT_OBS_ENABLED
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over the span sequence.
  for (const obs::SpanRecord& s : r.trace_spans) {
    for (const uint64_t v : {s.request_id, static_cast<uint64_t>(s.begin),
                             static_cast<uint64_t>(s.end), static_cast<uint64_t>(s.node),
                             static_cast<uint64_t>(s.kind)}) {
      hash = (hash ^ v) * 0x100000001b3ULL;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "spans=%zu span_hash=%016llx", r.trace_spans.size(),
                static_cast<unsigned long long>(hash));
  EXPECT_STREQ(buf, "spans=1607 span_hash=ea572c258da72105");
#endif
}

// --- Every strategy's stream ---
//
// One pinned scorecard per StrategyKind on two small worlds: a one-shard
// closed-loop world where every node is noisy (failover, hedging, timeouts
// and the degraded path all fire), and a two-shard tenant-replay world whose
// gets carry a GetContext (tenant + class SLO) through the strategy. The
// per-get latency sequence is folded into an FNV-1a hash, so any change to
// routing, deadlines or event order shows up as a changed string.

constexpr StrategyKind kAllStrategies[] = {
    StrategyKind::kBase,   StrategyKind::kAppTimeout, StrategyKind::kClone,
    StrategyKind::kHedged, StrategyKind::kSnitch,     StrategyKind::kC3,
    StrategyKind::kMittos, StrategyKind::kMittosWait, StrategyKind::kMittosResilient,
};

std::string StrategyScorecard(const RunResult& r) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const DurationNs v : r.get_latencies.samples()) {
    hash = (hash ^ static_cast<uint64_t>(v)) * 0x100000001b3ULL;
  }
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "gets=%zu lat_hash=%016llx p99=%lld failovers=%llu hedges=%llu timeouts=%llu "
      "errors=%llu degraded=%llu sheds=%llu tenant=%llu migrations=%llu hot_ticks=%llu "
      "sim_events=%llu sim_duration=%lld",
      r.get_latencies.count(), static_cast<unsigned long long>(hash),
      static_cast<long long>(r.get_latencies.Percentile(99)),
      static_cast<unsigned long long>(r.ebusy_failovers),
      static_cast<unsigned long long>(r.hedges_sent),
      static_cast<unsigned long long>(r.timeouts_fired),
      static_cast<unsigned long long>(r.user_errors),
      static_cast<unsigned long long>(r.degraded_gets),
      static_cast<unsigned long long>(r.degraded_sheds),
      static_cast<unsigned long long>(r.tenant_requests),
      static_cast<unsigned long long>(r.tenant_migrations),
      static_cast<unsigned long long>(r.controller_hot_ticks),
      static_cast<unsigned long long>(r.sim_events), static_cast<long long>(r.sim_duration));
  return buf;
}

TEST(StrategyPinTest, ClosedLoopOneShardMatchesPinnedStreams) {
  ExperimentOptions opt = PinOptions();
  opt.measure_requests = 120;
  opt.noise = NoiseKind::kContinuous;
  opt.continuous_all_nodes = true;
  opt.hedge_delay = Millis(13);
  opt.app_timeout = Millis(13);
  const char* const kPins[] = {
      "gets=120 lat_hash=6e322daf327509a0 p99=53422898 failovers=0 hedges=0 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=0 migrations=0 hot_ticks=0 sim_events=2558 "
      "sim_duration=2279985161",
      "gets=120 lat_hash=13873a7427b45323 p99=80733501 failovers=0 hedges=0 timeouts=300 "
      "errors=0 degraded=0 sheds=0 tenant=0 migrations=0 hot_ticks=0 sim_events=5422 "
      "sim_duration=3594430813",
      "gets=120 lat_hash=a265b6a9a5decf53 p99=52505076 failovers=0 hedges=0 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=0 migrations=0 hot_ticks=0 sim_events=3348 "
      "sim_duration=2295397869",
      "gets=120 lat_hash=e86a4626a1b508bc p99=57849191 failovers=0 hedges=150 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=0 migrations=0 hot_ticks=0 sim_events=3569 "
      "sim_duration=2396749542",
      "gets=120 lat_hash=58d0d98911b95b13 p99=54328421 failovers=0 hedges=0 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=0 migrations=0 hot_ticks=0 sim_events=2584 "
      "sim_duration=2281492605",
      "gets=120 lat_hash=6494ee427d72b805 p99=52729718 failovers=0 hedges=0 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=0 migrations=0 hot_ticks=0 sim_events=2496 "
      "sim_duration=2208744252",
      "gets=120 lat_hash=ac29f795ef342f8f p99=56387730 failovers=302 hedges=0 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=0 migrations=0 hot_ticks=0 sim_events=4034 "
      "sim_duration=2234148133",
      "gets=120 lat_hash=da5b6148bbc9520c p99=55255205 failovers=453 hedges=0 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=0 migrations=0 hot_ticks=0 sim_events=4773 "
      "sim_duration=2216826384",
      "gets=120 lat_hash=da5b6148bbc9520c p99=55255205 failovers=453 hedges=0 timeouts=0 "
      "errors=0 degraded=151 sheds=0 tenant=0 migrations=0 hot_ticks=0 sim_events=4773 "
      "sim_duration=2216826384",
  };
  for (size_t i = 0; i < std::size(kAllStrategies); ++i) {
    EXPECT_EQ(StrategyScorecard(RunPinned(opt, kAllStrategies[i])), kPins[i])
        << StrategyKindName(kAllStrategies[i]);
  }
}

TEST(StrategyPinTest, TenantReplayTwoShardsMatchesPinnedStreams) {
  ExperimentOptions opt = PinOptions();
  opt.num_shards = 2;
  opt.noise = NoiseKind::kContinuous;
  opt.hedge_delay = Millis(13);
  opt.app_timeout = Millis(13);
  opt.replay.synthetic_profile = 0;
  opt.replay.synthetic_duration = Seconds(2);
  opt.replay.max_events = 300;
  opt.replay.warmup_events = 30;
  opt.tenants.enabled = true;
  opt.tenants.mix.num_tenants = 40;
  opt.tenants.slo_aware = true;
  const char* const kPins[] = {
      "gets=270 lat_hash=4efb4914cda79aee p99=137229864 failovers=0 hedges=0 timeouts=124 "
      "errors=0 degraded=0 sheds=0 tenant=270 migrations=34 hot_ticks=4 sim_events=2720 "
      "sim_duration=951217284",
      "gets=270 lat_hash=4efb4914cda79aee p99=137229864 failovers=0 hedges=0 timeouts=124 "
      "errors=0 degraded=0 sheds=0 tenant=270 migrations=34 hot_ticks=4 sim_events=2720 "
      "sim_duration=951217284",
      "gets=270 lat_hash=4e2a807e3454e75e p99=17837823 failovers=0 hedges=0 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=270 migrations=0 hot_ticks=4 sim_events=3934 "
      "sim_duration=934197177",
      "gets=270 lat_hash=bfba70fe7061e856 p99=26589353 failovers=0 hedges=75 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=270 migrations=0 hot_ticks=0 sim_events=2969 "
      "sim_duration=934363296",
      "gets=270 lat_hash=615f1bc861bc0434 p99=34933368 failovers=0 hedges=0 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=270 migrations=0 hot_ticks=0 sim_events=2298 "
      "sim_duration=934238820",
      "gets=270 lat_hash=7d344793337222a8 p99=8068493 failovers=0 hedges=0 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=270 migrations=0 hot_ticks=0 sim_events=2284 "
      "sim_duration=934367785",
      "gets=270 lat_hash=c9de3790329e89a2 p99=530219026 failovers=114 hedges=0 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=270 migrations=34 hot_ticks=4 sim_events=2803 "
      "sim_duration=951211533",
      "gets=270 lat_hash=c9de3790329e89a2 p99=530219026 failovers=114 hedges=0 timeouts=0 "
      "errors=0 degraded=0 sheds=0 tenant=270 migrations=34 hot_ticks=4 sim_events=2803 "
      "sim_duration=951211533",
      "gets=270 lat_hash=d5d65ce8ebb21e0a p99=25545783 failovers=13 hedges=0 timeouts=2 "
      "errors=0 degraded=2 sheds=0 tenant=270 migrations=0 hot_ticks=0 sim_events=2365 "
      "sim_duration=933505381",
  };
  for (size_t i = 0; i < std::size(kAllStrategies); ++i) {
    const RunResult r = Experiment(opt).Run(kAllStrategies[i]);
    EXPECT_EQ(r.num_shards, 2);
    EXPECT_EQ(StrategyScorecard(r), kPins[i]) << StrategyKindName(kAllStrategies[i]);
  }
}

}  // namespace
}  // namespace mitt::harness
