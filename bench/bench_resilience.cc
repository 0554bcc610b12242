// Resilience evaluation (src/resilience/): does the budgeted, health-ordered,
// gracefully-degrading client beat the paper's naive failover walk when the
// world misbehaves — without giving anything up when it doesn't?
//
// Four worlds, naive MittOS vs MittOS+res (plus Base for context):
//   healthy          — light one-node contention only. Acceptance: MittOS+res
//                      p99 within ~2% of MittOS (the resilience layer must be
//                      free when nothing is wrong).
//   failslow-primary — node 0's disk degrades 12x for 30 s while the
//                      predictor keeps its healthy profile. Acceptance:
//                      MittOS+res p99 < MittOS p99 (the circuit breaker stops
//                      re-probing the sick primary on every get).
//   drop-pause       — packet loss + stop-the-world pauses on node 0: the
//                      failures EBUSY cannot signal; timeout strikes + the
//                      retry budget carry the SLO.
//   all-busy         — every replica under continuous contention. Acceptance:
//                      MittOS+res finishes with 0 user errors and every sent
//                      deadline bounded (no deadline-disabled blasts), where
//                      naive MittOS falls back to unbounded last tries.
//
// `--chaos N` appends a seeded chaos sweep: GenerateChaosPlan over N seeds,
// each replayed against both strategies (report-only; the CI job uploads the
// JSON + traces).
//
// Usage: bench_resilience [scorecard.json] [chrome_trace.json] [--chaos N]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/harness/scenario_runner.h"
#include "src/obs/export.h"

namespace {

using namespace mitt;
using harness::StrategyKind;

harness::ExperimentOptions MicroWorld(uint64_t seed) {
  harness::ExperimentOptions opt;
  opt.num_nodes = 3;
  opt.num_clients = 4;
  opt.measure_requests = 2500;
  opt.warmup_requests = 200;
  opt.pin_primary_node = 0;
  opt.backend = os::BackendKind::kDiskCfq;
  // Light background contention on the victim node; a busy device is what
  // the wait-time check can see (same rationale as bench_failslow).
  opt.noise = harness::NoiseKind::kContinuous;
  opt.continuous_intensity = 2;
  opt.noise_io_size = 4096;
  opt.noise_priority = 7;
  opt.seed = seed;
  return opt;
}

constexpr TimeNs kHorizon = Seconds(60);

std::vector<harness::FaultScenario> Scenarios() {
  std::vector<harness::FaultScenario> scenarios;
  // Healthy: no faults at all — the within-2% regression guard.
  scenarios.push_back({"healthy", fault::FaultPlan(), nullptr});
  {
    fault::FaultPlanBuilder b;
    b.FailSlowDisk(/*node=*/0, /*start=*/Millis(400), /*duration=*/Seconds(30),
                   /*multiplier=*/12.0);
    scenarios.push_back({"failslow-primary", b.Build(), nullptr});
  }
  {
    // Drops + pauses on the primary: no EBUSY is ever sent for these, so
    // only the timeout-strike breaker and retry governance can help.
    fault::FaultPlanBuilder b;
    b.RepeatEpisodes(fault::FaultKind::kNetworkDrop, /*node=*/0, kHorizon,
                     /*mean_gap=*/Millis(800), /*min_on=*/Millis(100), /*max_on=*/Millis(300),
                     /*severity=*/0.4, /*seed=*/301);
    b.RepeatEpisodes(fault::FaultKind::kNodePause, /*node=*/0, kHorizon,
                     /*mean_gap=*/Millis(900), /*min_on=*/Millis(60), /*max_on=*/Millis(140),
                     /*severity=*/1.0, /*seed=*/302);
    scenarios.push_back({"drop-pause", b.Build(), nullptr});
  }
  {
    // All-busy: flood *every* node, not just the pinned primary. The naive
    // walk's only exit is the deadline-disabled last try; the resilient walk
    // exits through the bounded degraded path.
    harness::FaultScenario s;
    s.name = "all-busy";
    s.customize = [](harness::ExperimentOptions& opt) {
      opt.continuous_all_nodes = true;
      opt.continuous_intensity = 3;
    };
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

double P99Of(const std::vector<harness::StrategyScore>& scores, const std::string& scenario,
             const std::string& strategy) {
  for (const auto& s : scores) {
    if (s.scenario == scenario && s.strategy == strategy) {
      return s.p99_ms;
    }
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== bench_resilience: deadline budgets, breakers, graceful degradation ===\n");

  int chaos_seeds = 0;
  const char* scorecard_path = nullptr;
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0 && i + 1 < argc) {
      chaos_seeds = std::atoi(argv[++i]);
    } else if (scorecard_path == nullptr) {
      scorecard_path = argv[i];
    } else {
      trace_path = argv[i];
    }
  }

  const std::vector<StrategyKind> strategies = {StrategyKind::kBase, StrategyKind::kMittos,
                                                StrategyKind::kMittosResilient};

  harness::ScenarioRunner::Options opt;
  opt.base = MicroWorld(20170919);
  opt.base.trace = true;
  opt.base.mitt_cfq.gain_calibration = true;
  opt.base.mitt_cfq.gain_ewma_alpha = 0.2;
  opt.strategies = strategies;
  harness::ScenarioRunner runner(opt);
  const auto scenarios = Scenarios();
  const auto scores = runner.Run(scenarios);

  std::printf("\n--- Resilience scorecard, SLO = healthy Base p95 = %.2f ms ---\n",
              ToMillis(runner.slo_deadline()));
  harness::PrintScorecard(scores, runner.slo_deadline());

  // Acceptance summary (informational; CI treats the run as report-only).
  const double healthy_naive = P99Of(scores, "healthy", "MittOS");
  const double healthy_res = P99Of(scores, "healthy", "MittOS+res");
  const double failslow_naive = P99Of(scores, "failslow-primary", "MittOS");
  const double failslow_res = P99Of(scores, "failslow-primary", "MittOS+res");
  std::printf("\nhealthy   p99: MittOS %.2f ms vs MittOS+res %.2f ms (overhead %+.1f%%)\n",
              healthy_naive, healthy_res,
              healthy_naive > 0 ? 100.0 * (healthy_res - healthy_naive) / healthy_naive : 0.0);
  std::printf("fail-slow p99: MittOS %.2f ms vs MittOS+res %.2f ms (reduction %.1f%%)\n",
              failslow_naive, failslow_res,
              failslow_naive > 0 ? 100.0 * (failslow_naive - failslow_res) / failslow_naive
                                 : 0.0);

  // --- Optional chaos sweep ---
  std::vector<harness::StrategyScore> chaos_scores;
  if (chaos_seeds > 0) {
    std::printf("\n--- Chaos sweep: %d seeded plans x {MittOS, MittOS+res} ---\n", chaos_seeds);
    fault::ChaosOptions copt;
    copt.mean_gap = Seconds(4);
    std::vector<harness::FaultScenario> chaos;
    for (int s = 0; s < chaos_seeds; ++s) {
      harness::FaultScenario scenario;
      scenario.name = "chaos-seed-" + std::to_string(s);
      scenario.plan = fault::GenerateChaosPlan(copt, opt.base.num_nodes, kHorizon,
                                               static_cast<uint64_t>(1000 + s));
      chaos.push_back(std::move(scenario));
    }
    harness::ScenarioRunner::Options chaos_opt;
    chaos_opt.base = MicroWorld(20170920);
    chaos_opt.strategies = {StrategyKind::kMittos, StrategyKind::kMittosResilient};
    harness::ScenarioRunner chaos_runner(chaos_opt);
    chaos_scores = chaos_runner.Run(chaos);
    harness::PrintScorecard(chaos_scores, chaos_runner.slo_deadline());
  }

  // --- Artifacts ---
  if (scorecard_path != nullptr) {
    obs::JsonWriter w;
    obs::BeginBenchArtifact(w, "resilience");
    w.Key("resilience");
    harness::WriteScorecard(w, scores, runner.slo_deadline());
    if (!chaos_scores.empty()) {
      w.Key("chaos");
      harness::WriteScorecard(w, chaos_scores, runner.slo_deadline());
    }
    if (std::string error; !obs::WriteTextFile(scorecard_path, w.EndObject().str(), &error)) {
      std::fprintf(stderr, "bench_resilience: cannot write %s\n", error.c_str());
      return 1;
    }
    std::printf("\nwrote scorecard JSON to %s\n", scorecard_path);
  }
  if (trace_path != nullptr) {
    // Chrome trace of the failslow-primary MittOS+res run: breaker open /
    // half-open / close instants frame the windows where the walk reordered.
    const size_t index = 1 * strategies.size() + 2;  // scenario 1, strategy 2.
    const harness::RunResult& traced = runner.results()[index];
    const std::string trace =
        obs::ChromeTraceJson(traced.trace_spans, "failslow-primary/MittOS+res");
    if (std::string error; !obs::WriteTextFile(trace_path, trace, &error)) {
      std::fprintf(stderr, "bench_resilience: cannot write %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote Chrome trace (%zu spans) to %s\n", traced.trace_spans.size(), trace_path);
  }
  return 0;
}
