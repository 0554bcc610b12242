// bench_tenant: multi-tenant SLO classes + SLO-aware placement
// (src/tenant/, DESIGN.md §4i, ROADMAP item 4).
//
// Thousands of tenants (a Zipf rate mix over gold/silver/bronze SLO
// classes) drive a small SSD cluster open-loop while one node sits under
// continuous IO contention. Three parts:
//
//   1. Melt vs hold — four runs over identical seeds:
//        healthy     no noise, naive uniform placement (reference tail)
//        Base        noisy node, uniform placement, timeout client: every
//                    get whose tenant lands on the hot node waits out its
//                    class SLO before failing over — the per-class p99
//                    melts to SLO+retry territory.
//        MittOS      noisy node, uniform placement, fast-reject failover:
//                    gold dodges the hot node per request (its 15 ms SLO is
//                    tighter than the contended wait, so the predictor
//                    rejects), but silver/bronze SLOs tolerate the wait —
//                    no reject fires and their tails still melt.
//        MittOS+plc  noisy node, SLO-aware PlacementController: drains the
//                    hot node tenant-by-tenant (strictest class first) and
//                    holds per-class p99 near the healthy baseline.
//      Reported as a per-class p50/p95/p99/miss% table plus controller
//      counters (migrations, hot ticks, breaker opens).
//   2. Scale note — tenant count, directory/placement footprint, measured
//      completions per second of wall time.
//   3. Determinism — the uniform + slo-aware pair re-run at every point of
//      the {trial workers 1,4} x {intra workers 1,2} grid with num_shards=2
//      (controller ticks become quiesced ScheduleGlobal events); the JSON
//      scorecards must be byte-identical or the bench exits nonzero.
//
// Usage: bench_tenant [--small] [out.json]   (default out: BENCH_tenant.json)
//   --small  CI mode: 1000 tenants, shorter measured window, same grid.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/obs/export.h"

namespace {

using namespace mitt;
using harness::StrategyKind;

harness::ExperimentOptions TenantWorld(uint32_t tenants, double rate_hz, bool noisy,
                                       bool slo_aware, DurationNs duration, uint64_t seed) {
  harness::ExperimentOptions opt;
  opt.num_nodes = 6;
  opt.num_clients = 0;  // The tenant drivers replace the closed-loop population.
  opt.backend = os::BackendKind::kSsd;
  opt.num_keys_per_node = 1 << 16;
  opt.cache_pages = 1 << 10;  // 4 MB cache over 256 MB/node: gets hit the SSD queues.
  opt.deadline = Millis(20);  // Per-get deadlines come from the class SLO instead.
  opt.seed = seed;
  opt.tenants.enabled = true;
  opt.tenants.mix.num_tenants = tenants;
  opt.tenants.mix.total_rate_hz = rate_hz;
  opt.tenants.mix.rate_zipf_theta = 1.0;
  opt.tenants.slo_aware = slo_aware;
  opt.tenants.warmup = Millis(300);
  opt.tenants.duration = duration;
  opt.noise = noisy ? harness::NoiseKind::kContinuous : harness::NoiseKind::kNone;
  opt.continuous_intensity = 60;  // Node 0 under constant 1 MB-read contention.
  opt.noise_horizon = Seconds(30);
  return opt;
}

// Deterministic scorecard over a result set: integers only (latencies in
// ns), so byte-compares across worker grids never hinge on float printing.
void WriteTenantScorecard(obs::JsonWriter& w, const std::vector<harness::RunResult>& results) {
  w.BeginArray();
  for (const harness::RunResult& r : results) {
    w.BeginObject().Field("name", r.name).Field("tenant_requests", r.tenant_requests);
    w.Field("ebusy_failovers", r.ebusy_failovers).Field("migrations", r.tenant_migrations);
    w.Field("controller_ticks", r.controller_ticks).Field("hot_ticks", r.controller_hot_ticks);
    w.Field("breaker_opens", r.breaker_opens).Key("classes").BeginArray();
    for (const harness::TenantClassStats& cls : r.tenant_classes) {
      const auto ps = cls.latencies.Percentiles(std::vector<double>{50, 95, 99});
      w.BeginObject().Field("name", cls.name).Field("slo_ms", cls.slo / 1'000'000);
      w.Field("tenants", cls.tenants).Field("requests", cls.requests);
      w.Field("deadline_miss", cls.deadline_miss).Field("failovers", cls.failovers);
      w.Field("errors", cls.errors).Field("p50_ns", ps[0]).Field("p95_ns", ps[1]);
      w.Field("p99_ns", ps[2]).Field("max_ns", cls.latencies.Max()).EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray();
}

void PrintClassTable(const std::vector<harness::RunResult>& results) {
  std::printf("%-12s %-8s %8s %10s %10s %10s %8s %10s\n", "run", "class", "reqs", "p50 ms",
              "p95 ms", "p99 ms", "miss %", "failovers");
  for (const harness::RunResult& r : results) {
    for (const harness::TenantClassStats& cls : r.tenant_classes) {
      const auto ps = cls.latencies.Percentiles(std::vector<double>{50, 95, 99});
      const double miss_pct =
          cls.requests == 0 ? 0.0
                            : 100.0 * static_cast<double>(cls.deadline_miss) /
                                  static_cast<double>(cls.requests);
      std::printf("%-12s %-8s %8llu %10.2f %10.2f %10.2f %8.2f %10llu\n", r.name.c_str(),
                  cls.name.c_str(), static_cast<unsigned long long>(cls.requests),
                  ToMillis(ps[0]), ToMillis(ps[1]), ToMillis(ps[2]), miss_pct,
                  static_cast<unsigned long long>(cls.failovers));
    }
  }
}

DurationNs ClassP99(const harness::RunResult& r, const char* cls_name) {
  for (const harness::TenantClassStats& cls : r.tenant_classes) {
    if (cls.name == cls_name) {
      return cls.latencies.Percentile(99);
    }
  }
  return 0;
}

// The determinism grid re-runs the noisy uniform/slo-aware pair as two
// parallel trials: num_shards=2 puts the controller on the quiesced
// ScheduleGlobal path and splits the tenant drivers across shards.
std::string GridScorecard(uint32_t tenants, double rate_hz, DurationNs duration,
                          int trial_workers, int intra_workers) {
  std::vector<harness::Trial> trials;
  for (const bool slo_aware : {false, true}) {
    harness::Trial t;
    t.options = TenantWorld(tenants, rate_hz, /*noisy=*/true, slo_aware, duration,
                            /*seed=*/20170919);
    t.options.num_shards = 2;
    t.options.intra_workers = intra_workers;
    t.kind = StrategyKind::kMittos;
    t.rename = slo_aware ? "slo-aware" : "uniform";
    trials.push_back(t);
  }
  obs::JsonWriter w;
  WriteTenantScorecard(w, harness::RunTrialsParallel(trials, trial_workers));
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  const char* json_path = "BENCH_tenant.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else {
      json_path = argv[i];
    }
  }

  const uint32_t tenants = small ? 1000 : 2000;
  const double rate_hz = small ? 12000 : 20000;
  const DurationNs duration = small ? Millis(1200) : Seconds(2);

  std::printf("=== bench_tenant: %u tenants, SLO classes, placement control ===\n", tenants);

  // --- Part 1: melt vs hold ---
  std::vector<harness::Trial> trials;
  {
    harness::Trial healthy;
    healthy.options =
        TenantWorld(tenants, rate_hz, /*noisy=*/false, /*slo_aware=*/false, duration, 42);
    healthy.kind = StrategyKind::kMittos;
    healthy.rename = "healthy";
    trials.push_back(healthy);

    harness::Trial base;
    base.options =
        TenantWorld(tenants, rate_hz, /*noisy=*/true, /*slo_aware=*/false, duration, 42);
    base.kind = StrategyKind::kBase;
    base.rename = "Base";
    trials.push_back(base);

    harness::Trial mitt;
    mitt.options = base.options;
    mitt.kind = StrategyKind::kMittos;
    mitt.rename = "MittOS";
    trials.push_back(mitt);

    harness::Trial plc;
    plc.options =
        TenantWorld(tenants, rate_hz, /*noisy=*/true, /*slo_aware=*/true, duration, 42);
    plc.kind = StrategyKind::kMittos;
    plc.rename = "MittOS+plc";
    trials.push_back(plc);
  }
  const auto start = std::chrono::steady_clock::now();
  const std::vector<harness::RunResult> results = harness::RunTrialsParallel(trials);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::printf("\n--- Per-class tails: node 0 under contention, gold SLO 15 ms ---\n");
  PrintClassTable(results);

  const harness::RunResult& healthy = results[0];
  const harness::RunResult& naive = results[2];
  const harness::RunResult& aware = results[3];
  // Silver is the placement story in one number: its 40 ms SLO tolerates the
  // contended wait, so fast reject never fires for it — only moving the
  // tenants off the hot node can fix its tail.
  auto p99_ratio = [&](const harness::RunResult& r, const char* cls) {
    return static_cast<double>(ClassP99(r, cls)) /
           static_cast<double>(std::max<DurationNs>(ClassP99(healthy, cls), 1));
  };
  const double melt = p99_ratio(naive, "silver");
  const double hold = p99_ratio(aware, "silver");
  std::printf("\nsilver p99 vs healthy: uniform %.2fx (melt), slo-aware %.2fx (hold)\n", melt,
              hold);
  std::printf("gold   p99 vs healthy: uniform %.2fx, slo-aware %.2fx\n",
              p99_ratio(naive, "gold"), p99_ratio(aware, "gold"));
  std::printf("controller: %llu migrations over %llu ticks (%llu hot), %llu breaker opens\n",
              static_cast<unsigned long long>(aware.tenant_migrations),
              static_cast<unsigned long long>(aware.controller_ticks),
              static_cast<unsigned long long>(aware.controller_hot_ticks),
              static_cast<unsigned long long>(aware.breaker_opens));

  // --- Part 2: scale note ---
  uint64_t measured = 0;
  for (const harness::RunResult& r : results) {
    measured += r.tenant_requests;
  }
  std::printf("\n--- Scale: %u tenants/run, %llu measured completions in %.1fs wall ---\n",
              tenants, static_cast<unsigned long long>(measured), wall_s);

  // --- Part 3: determinism grid ---
  const uint32_t grid_tenants = small ? 600 : 1000;
  const double grid_rate = small ? 6000 : 10000;
  const DurationNs grid_duration = Millis(800);
  std::printf("\n--- Determinism: scorecard at {trial 1,4} x {intra 1,2}, %u tenants ---\n",
              grid_tenants);
  std::string reference;
  bool identical = true;
  int variants = 0;
  for (const int trial_workers : {1, 4}) {
    for (const int intra_workers : {1, 2}) {
      const std::string scorecard =
          GridScorecard(grid_tenants, grid_rate, grid_duration, trial_workers, intra_workers);
      ++variants;
      if (reference.empty()) {
        reference = scorecard;
      } else if (scorecard != reference) {
        identical = false;
        std::fprintf(stderr, "DETERMINISM FAILURE at trial=%d intra=%d: scorecard differs\n",
                     trial_workers, intra_workers);
      }
      std::printf("  trial=%d intra=%d: %zu scorecard bytes %s\n", trial_workers, intra_workers,
                  scorecard.size(), scorecard == reference ? "(identical)" : "(DIFFERS)");
    }
  }

  // --- Artifact ---
  obs::JsonWriter w;
  obs::BeginBenchArtifact(w, "tenant");
  w.Key("config").BeginObject().Field("tenants", tenants);
  w.Field("rate_hz", static_cast<uint64_t>(rate_hz)).Field("small", small).EndObject();
  w.Key("runs");
  WriteTenantScorecard(w, results);
  w.Key("silver_p99_ratio").BeginObject().Field("uniform", melt).Field("slo_aware", hold);
  w.EndObject().Key("determinism").BeginObject().Field("identical", identical);
  w.Field("variants", variants).Field("scorecard_bytes", reference.size());
  w.EndObject().EndObject();
  if (std::string error; !obs::WriteTextFile(json_path, w.str(), &error)) {
    std::fprintf(stderr, "bench_tenant: cannot write %s\n", error.c_str());
    return 1;
  }
  std::printf("\nwrote tenant report to %s\n", json_path);

  return identical ? 0 : 1;
}
