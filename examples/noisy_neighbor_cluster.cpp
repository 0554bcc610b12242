// A replicated NoSQL store on a multi-tenant cluster, the paper's core use
// case (§3.1): 3 MongoDB-like replicas, a noisy neighbor saturating one
// machine's disk in bursts, and two clients — one using the classic
// wait-then-retry timeout, one using MittOS instant failover.
//
// The three strategy runs execute as parallel trials with span tracing on;
// afterwards the MittOS run's trace is broken down per layer (queue wait vs
// device service vs syscall overhead, split by request outcome) and all
// three traces are exported as one Chrome trace_event JSON
// (noisy_neighbor_trace.json) with one process group per strategy.
//
// Run:  ./build/examples/noisy_neighbor_cluster

#include <cstdio>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"

int main() {
  using namespace mitt;
  using harness::StrategyKind;

  harness::ExperimentOptions opt;
  opt.num_nodes = 3;
  opt.num_clients = 2;
  opt.measure_requests = 2000;
  opt.warmup_requests = 100;
  opt.pin_primary_node = 0;                       // Every get first hits node 0...
  opt.noise = harness::NoiseKind::kContinuous;    // ...which a tenant keeps busy.
  opt.continuous_intensity = 2;
  opt.deadline = Millis(20);
  opt.app_timeout = Millis(20);
  opt.trace = true;
  opt.seed = 7;

  std::printf("A 3-replica DocStore; node 0 hosts a disk-hungry neighbor.\n");
  std::printf("Every get() is first routed to node 0 and takes ~6ms when quiet.\n\n");

  // One fresh world per strategy, run as parallel trials (merged in trial
  // order: results and traces are bit-identical for any MITT_TRIAL_WORKERS).
  const std::vector<harness::Trial> trials = {
      {opt, StrategyKind::kBase, ""},
      {opt, StrategyKind::kAppTimeout, ""},
      {opt, StrategyKind::kMittos, ""},
  };
  const std::vector<harness::RunResult> results = harness::RunTrialsParallel(trials);
  const harness::RunResult& mitt_run = results.back();

  harness::PrintPercentileTable(results, {50, 90, 95, 99}, /*user_level=*/false);

  std::printf("\nBase   : waits out the contention (no tail tolerance).\n");
  std::printf("AppTO  : retries after a 20ms timeout — pays the wait, then the retry.\n");
  std::printf("MittOS : %lu instant EBUSY failovers; the deadline was never waited out.\n",
              static_cast<unsigned long>(mitt_run.ebusy_failovers));

  if (mitt_run.trace_spans.empty()) {
    std::printf("\n(observability compiled out: no trace emitted)\n");
    return 0;
  }

  // Where did each MittOS request's time go?
  std::printf("\nMittOS run, per-layer latency breakdown:\n");
  obs::PrintLatencyBreakdown(obs::ComputeLatencyBreakdown(mitt_run.trace_spans));

  std::printf("\nMittOS run, OS/scheduler metrics:\n");
  obs::PrintMetricsTable(mitt_run.metrics);

  std::vector<obs::TraceGroup> groups;
  groups.reserve(results.size());
  for (const harness::RunResult& r : results) {
    groups.push_back({r.name, r.trace_spans});
  }
  const std::string json = obs::ChromeTraceJson(groups);
  if (!obs::ValidateJsonSyntax(json)) {
    std::fprintf(stderr, "exported trace is not valid JSON\n");
    return 1;
  }
  const char* path = "noisy_neighbor_trace.json";
  if (std::string error; !obs::WriteTextFile(path, json, &error)) {
    std::fprintf(stderr, "could not write %s\n", error.c_str());
    return 1;
  }
  std::printf("\nWrote %s (%zu spans across %zu strategy runs) — open it in\n"
              "chrome://tracing; each strategy shows as its own process group.\n",
              path, mitt_run.trace_spans.size(), results.size());
  return 0;
}
