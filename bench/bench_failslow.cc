// Fail-slow / chaos scenarios (src/fault/): do fast rejects still help when
// the hardware misbehaves underneath the predictor?
//
// Three parts:
//   1. Disk cluster scorecard — fail-slow disk, stop-the-world node pauses,
//      a degraded network link, and crash+cold-cache-restart, each swept
//      against Base / AppTO / Clone / Hedged / MittOS with the SLO deadline
//      derived from a healthy Base run (the paper's p95 rule).
//   2. SSD cluster scorecard — a read-retry latency storm across one node's
//      chips, same strategy sweep.
//   3. Organic prediction accuracy — the Fig. 9 replay methodology, but the
//      device degrades mid-replay while MittCFQ / MittSSD keep the profile
//      they learned on healthy hardware. False negatives grow with the
//      fail-slow multiplier: the model is stale, nothing is injected into
//      the predictor itself (contrast Fig. 10).
//
// Usage: bench_failslow [scorecard.json] [chrome_trace.json]

#include <cstdio>
#include <string>

#include "bench/accuracy_replay.h"
#include "src/harness/scenario_runner.h"
#include "src/obs/export.h"

namespace {

using namespace mitt;
using harness::StrategyKind;

// A 3-node micro world with every get() initially directed at node 0 — the
// node the faults strike — so the scorecard isolates the victim path.
harness::ExperimentOptions MicroWorld(os::BackendKind backend, uint64_t seed) {
  harness::ExperimentOptions opt;
  opt.num_nodes = 3;
  opt.num_clients = 4;
  opt.measure_requests = 2500;
  opt.warmup_requests = 200;
  opt.pin_primary_node = 0;
  opt.backend = backend;
  // Light background contention on the victim node (the Fig. 4a tenant: 4 KB
  // best-effort reads). Faults land on top of it, as they would in
  // production — and a busy device is what the wait-time check can see: on a
  // perfectly idle fail-slow disk the first IO is always admitted, because a
  // zero-queue wait estimate is below any deadline.
  opt.noise = harness::NoiseKind::kContinuous;
  opt.continuous_intensity = 2;
  opt.noise_io_size = 4096;
  opt.noise_priority = 7;
  opt.seed = seed;
  return opt;
}

// Episodes repeat far past any plausible run length; episodes the run never
// reaches simply don't fire (daemon events).
constexpr TimeNs kHorizon = Seconds(60);

std::vector<harness::FaultScenario> DiskScenarios() {
  std::vector<harness::FaultScenario> scenarios;
  {
    fault::FaultPlanBuilder b;
    // One long degradation: a failing disk misbehaves for seconds-to-minutes,
    // not milliseconds. The 8-step ramp across the first quarter gives the
    // predictor's online calibration a realistic curve to chase; the plateau
    // is where stale-profile rejects must carry the SLO.
    b.FailSlowDisk(/*node=*/0, /*start=*/Millis(400), /*duration=*/Seconds(30),
                   /*multiplier=*/12.0);
    scenarios.push_back({"failslow-disk", b.Build(), {}});
  }
  {
    fault::FaultPlanBuilder b;
    b.RepeatEpisodes(fault::FaultKind::kNodePause, /*node=*/0, kHorizon,
                     /*mean_gap=*/Millis(700), /*min_on=*/Millis(80), /*max_on=*/Millis(160),
                     /*severity=*/1.0, /*seed=*/102);
    scenarios.push_back({"node-pause", b.Build(), {}});
  }
  {
    fault::FaultPlanBuilder b;
    b.RepeatEpisodes(fault::FaultKind::kNetworkDegrade, /*node=*/0, kHorizon,
                     /*mean_gap=*/Millis(900), /*min_on=*/Millis(300), /*max_on=*/Millis(700),
                     /*severity=*/40.0, /*seed=*/103);
    scenarios.push_back({"net-degrade", b.Build(), {}});
  }
  {
    fault::FaultPlanBuilder b;
    for (TimeNs t = Seconds(1); t < kHorizon; t += Seconds(4)) {
      b.NodeCrashRestart(/*node=*/0, t, /*restart_time=*/Millis(300));
    }
    scenarios.push_back({"crash-restart", b.Build(), {}});
  }
  return scenarios;
}

std::vector<harness::FaultScenario> SsdScenarios() {
  std::vector<harness::FaultScenario> scenarios;
  // SSD gets finish in hundreds of microseconds, so the whole run spans well
  // under a second of simulated time — episodes are pinned densely from t=30ms
  // (60% duty cycle) instead of drawn from second-scale gaps.
  fault::FaultPlanBuilder b;
  for (TimeNs t = Millis(30); t < Seconds(10); t += Millis(250)) {
    b.SsdReadRetry(/*node=*/0, t, /*duration=*/Millis(150), /*multiplier=*/25.0, /*chip=*/-1);
  }
  scenarios.push_back({"ssd-read-retry", b.Build(), {}});
  return scenarios;
}

void PrintAccuracyRow(const char* label, const bench::AccuracyResult& r) {
  std::printf("  %-28s FP %6.2f%%  FN %6.2f%%  inacc %6.2f%%  wrong-by %7.2f ms  (SLO %.2f ms)\n",
              label, r.false_positive_pct, r.false_negative_pct, r.inaccuracy_pct,
              r.mean_wrong_diff_ms, ToMillis(r.deadline));
}

void WriteAccuracy(obs::JsonWriter& w, const char* backend, double multiplier,
                   const bench::AccuracyResult& r) {
  w.BeginObject().Field("backend", backend).Field("fail_slow_multiplier", multiplier);
  w.Field("false_positive_pct", r.false_positive_pct);
  w.Field("false_negative_pct", r.false_negative_pct);
  w.Field("inaccuracy_pct", r.inaccuracy_pct);
  w.Field("mean_wrong_diff_ms", r.mean_wrong_diff_ms).EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== bench_failslow: fault scenarios x client strategies ===\n");

  const std::vector<StrategyKind> strategies = {StrategyKind::kBase, StrategyKind::kAppTimeout,
                                                StrategyKind::kClone, StrategyKind::kHedged,
                                                StrategyKind::kMittos};

  // --- Part 1: disk-backed cluster ---
  harness::ScenarioRunner::Options disk_opt;
  disk_opt.base = MicroWorld(os::BackendKind::kDiskCfq, 20170917);
  disk_opt.base.trace = true;  // fault_active + per-layer spans for export.
  // A degrading device is exactly the regime the multiplicative gain
  // calibration exists for: the additive next-free correction absorbs a
  // one-off misprediction, the gain follows a persistent service-time shift.
  disk_opt.base.mitt_cfq.gain_calibration = true;
  disk_opt.base.mitt_cfq.gain_ewma_alpha = 0.2;
  disk_opt.strategies = strategies;
  harness::ScenarioRunner disk_runner(disk_opt);
  const auto disk_scenarios = DiskScenarios();
  const auto disk_scores = disk_runner.Run(disk_scenarios);

  std::printf("\n--- Disk cluster (MittCFQ), SLO = healthy Base p95 = %.2f ms ---\n",
              ToMillis(disk_runner.slo_deadline()));
  harness::PrintScorecard(disk_scores, disk_runner.slo_deadline());

  // --- Part 2: SSD-backed cluster ---
  harness::ScenarioRunner::Options ssd_opt;
  ssd_opt.base = MicroWorld(os::BackendKind::kSsd, 20170918);
  ssd_opt.strategies = strategies;
  harness::ScenarioRunner ssd_runner(ssd_opt);
  const auto ssd_scores = ssd_runner.Run(SsdScenarios());

  std::printf("\n--- SSD cluster (MittSSD), SLO = healthy Base p95 = %.2f ms ---\n",
              ToMillis(ssd_runner.slo_deadline()));
  harness::PrintScorecard(ssd_scores, ssd_runner.slo_deadline());

  // --- Part 3: organic prediction error under degradation ---
  std::printf("\n--- Predictor accuracy on a degrading device (profile stays healthy) ---\n");
  workload::TraceProfile profile = workload::PaperTraceProfiles()[0];
  // The artifact: both scorecards, then one accuracy row per replay below.
  obs::JsonWriter w;
  obs::BeginBenchArtifact(w, "failslow");
  w.Key("disk");
  harness::WriteScorecard(w, disk_scores, disk_runner.slo_deadline());
  w.Key("ssd");
  harness::WriteScorecard(w, ssd_scores, ssd_runner.slo_deadline());
  w.Key("accuracy").BeginArray();
  for (const os::BackendKind backend : {os::BackendKind::kDiskCfq, os::BackendKind::kSsd}) {
    const char* name = backend == os::BackendKind::kDiskCfq ? "MittCFQ" : "MittSSD";
    std::printf("%s:\n", name);
    for (const double multiplier : {1.0, 4.0, 16.0}) {
      bench::AccuracyOptions aopt;
      aopt.backend = backend;
      aopt.rate_scale = backend == os::BackendKind::kSsd ? 128.0 : 0.25;
      aopt.max_ios = 4000;
      aopt.fail_slow_multiplier = multiplier;
      // The 128x-compressed SSD replay spans ~60ms of simulated time; the
      // ramp must fit inside it or the device never actually degrades.
      aopt.fail_slow_ramp = backend == os::BackendKind::kSsd ? Millis(10) : Millis(500);
      const auto r = bench::RunAccuracyReplay(profile, aopt);
      char label[64];
      std::snprintf(label, sizeof(label), "%s x%.0f", multiplier == 1.0 ? "healthy" : "fail-slow",
                    multiplier);
      PrintAccuracyRow(label, r);
      WriteAccuracy(w, name, multiplier, r);
    }
  }
  w.EndArray().EndObject();

  // --- Artifacts ---
  if (argc > 1) {
    if (std::string error; !obs::WriteTextFile(argv[1], w.str(), &error)) {
      std::fprintf(stderr, "bench_failslow: cannot write %s\n", error.c_str());
      return 1;
    }
    std::printf("\nwrote scorecard JSON to %s\n", argv[1]);
  }
  if (argc > 2) {
    // Chrome trace of the failslow-disk / MittOS pair: fault_active spans
    // frame the windows where EBUSY failovers cluster.
    const size_t mitt_index = strategies.size() - 1;  // failslow-disk is scenario 0.
    const harness::RunResult& traced = disk_runner.results()[mitt_index];
    const std::string trace = obs::ChromeTraceJson(traced.trace_spans, "failslow-disk/MittOS");
    if (std::string error; !obs::WriteTextFile(argv[2], trace, &error)) {
      std::fprintf(stderr, "bench_failslow: cannot write %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote Chrome trace (%zu spans) to %s\n", traced.trace_spans.size(), argv[2]);
  }
  return 0;
}
