// mittbench: runs one named workload of the benchmark and prints its metrics.
//
// Usage: mittbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
//   --trace 0  end-to-end metrics, from untraced Experiment::Run repetitions
//              that fill S seconds and set-ups timed on their own, all in
//              process CPU seconds.
//   --trace 1  per-layer metrics: exact counts from an untraced run, the
//              traced ladder (ladder.h), direct class timings and the obs
//              latency breakdown of an obs-traced run.
//
// Both modes check the simulated outputs: every repetition's scorecard must
// be byte-identical, and on a sharded engine identical again at two
// intra-trial workers; the traced mode also checks the oracle harvest (every
// issued get completes exactly once). The last stdout line is one JSON object
// with `correct`, `attempted`, `failed` and `metrics`, plus the scorecard and
// the base counts behind every ratio. Exit code 0; 1 when a check failed (the
// result still printed, with `correct: false`); 2 for bad arguments.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "perfbench/src/ladder.h"
#include "perfbench/src/workloads.h"
#include "src/obs/export.h"

namespace {

using namespace mitt;
using perfbench::Workload;

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host CPU seconds of the process. The end-to-end timings use it: the timed
// runs are single-threaded, so on an idle host it equals wall time, but it
// leaves out the time the process waited while the OS or the hypervisor ran
// something else (steal time on a shared VM host).
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

double Min(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

struct Timed {
  harness::RunResult result;
  double wall_s = 0;
  double cpu_s = 0;
};

Timed RunTimed(const harness::ExperimentOptions& options, harness::StrategyKind kind) {
  harness::Experiment experiment(options);
  const double t0 = WallSeconds();
  const double c0 = CpuSeconds();
  Timed out;
  out.result = experiment.Run(kind);
  out.cpu_s = CpuSeconds() - c0;
  out.wall_s = WallSeconds() - t0;
  return out;
}

// Set-up times, one entry per set-up: writing the workload's inputs, then
// building the world with no measured arrivals (see SetupOnly), in CPU
// seconds, and the world build in wall seconds too.
struct Setup {
  std::vector<double> inputs_s;
  std::vector<double> world_s;
  std::vector<double> world_wall_s;

  // The reported set-up time: median of the whole set-ups.
  double Reported() const {
    std::vector<double> total;
    for (size_t i = 0; i < world_s.size(); ++i) {
      total.push_back(inputs_s[i] + world_s[i]);
    }
    return Median(total);
  }
  // What a measured run pays before its load: it builds the world but reads
  // the inputs already written. Median, as is the run time it comes off.
  double World() const { return Median(world_s); }
  // The same in wall time, fastest, for the ladder's fastest-round rule.
  double FastestWorldWall() const { return Min(world_wall_s); }
};

// Sets up `reps` times, timing each part on its own.
bool MeasureSetup(const Workload& w, bool warmup, int reps, Setup* out, std::string* error) {
  for (int i = 0; i < reps; ++i) {
    const double c0 = CpuSeconds();
    if (!perfbench::WriteInputs(w, error)) {
      return false;
    }
    const double c1 = CpuSeconds();
    const double t1 = WallSeconds();
    harness::Experiment experiment(perfbench::SetupOnly(w, warmup));
    (void)experiment.Run(w.strategy);
    out->world_s.push_back(CpuSeconds() - c1);
    out->world_wall_s.push_back(WallSeconds() - t1);
    out->inputs_s.push_back(c1 - c0);
  }
  return true;
}

// The simulated outputs a perf-only change must leave byte-identical.
std::string Scorecard(const harness::RunResult& r) {
  const LatencyRecorder& lat = r.get_latencies;
  std::string s;
  auto add = [&s](const char* key, long long value) {
    s += std::string(s.empty() ? "" : " ") + key + "=" + std::to_string(value);
  };
  add("requests", static_cast<long long>(r.requests));
  add("gets", static_cast<long long>(lat.count()));
  add("p50_ns", lat.Percentile(50));
  add("p99_ns", lat.Percentile(99));
  add("p999_ns", lat.Percentile(99.9));
  add("max_ns", lat.Max());
  add("user_errors", static_cast<long long>(r.user_errors));
  add("failovers", static_cast<long long>(r.ebusy_failovers));
  add("timeouts", static_cast<long long>(r.timeouts_fired));
  add("degraded", static_cast<long long>(r.degraded_gets));
  add("sheds", static_cast<long long>(r.degraded_sheds));
  add("exhausted", static_cast<long long>(r.deadline_exhausted));
  add("noise_ios", static_cast<long long>(r.noise_ios));
  add("migrations", static_cast<long long>(r.tenant_migrations));
  add("fault_episodes", static_cast<long long>(r.fault_episodes));
  add("sim_events", static_cast<long long>(r.sim_events));
  add("sim_duration_ns", r.sim_duration);
  uint64_t misses = 0;
  for (const harness::TenantClassStats& c : r.tenant_classes) {
    misses += c.deadline_miss;
  }
  add("class_misses", static_cast<long long>(misses));
  return s;
}

// Measured gets slower than their deadline (closed loop) or their tenant
// class SLO (tenant runs), plus failed gets; capped at the measured count.
uint64_t SloMisses(const Workload& w, const harness::RunResult& r) {
  uint64_t slow = 0;
  if (!r.tenant_classes.empty()) {
    for (const harness::TenantClassStats& c : r.tenant_classes) {
      slow += c.deadline_miss;
    }
  } else {
    for (const DurationNs latency : r.get_latencies.samples()) {
      slow += latency > w.options.deadline ? 1 : 0;
    }
  }
  return std::min<uint64_t>(slow + r.user_errors, r.get_latencies.count());
}

struct Json {
  std::string body;
  void Metric(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    body += std::string(body.empty() ? "" : ", ") + "\"" + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + unit + "\"}";
  }
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Json metrics;
  Json detail;  // Base counts behind the ratios (printed, not compared).
  std::string scorecard;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
  void Account(const harness::RunResult& r) {
    attempted += r.requests;
    failed += r.user_errors;
  }
};

// Checks one measured repetition's counts against the workload's shape.
void CheckRun(const Workload& w, const harness::RunResult& r, const std::string& expected,
              const std::string& label, Outcome* out) {
  out->Check(r.requests == w.warmup_gets + w.measured_gets,
             label + ": completed " + std::to_string(r.requests) + " of " +
                 std::to_string(w.warmup_gets + w.measured_gets) + " gets");
  out->Check(r.get_latencies.count() == w.measured_gets,
             label + ": measured " + std::to_string(r.get_latencies.count()) + " of " +
                 std::to_string(w.measured_gets) + " gets");
  out->Check(Scorecard(r) == expected, label + ": scorecard differs: " + Scorecard(r));
}

void CheckOracle(const harness::RunResult& r, const std::string& label, Outcome* out) {
  const harness::OracleHarvest& o = r.oracle;
  out->Check(o.enabled, label + ": oracle harvest off");
  out->Check(o.gets_issued == o.gets_done,
             label + ": issued " + std::to_string(o.gets_issued) + " gets, " +
                 std::to_string(o.gets_done) + " completed");
  out->Check(o.gets_done_duplicate == 0,
             label + ": " + std::to_string(o.gets_done_duplicate) + " duplicate completions");
  out->Check(o.done_ok + o.done_busy + o.done_exhausted + o.done_error == o.gets_done,
             label + ": completions by status do not sum to completions");
}

// The first measured run: its scorecard is the one every later run of the
// process must reproduce, and its RunResult gives the exact counts.
Timed ReferenceRun(const Workload& w, Outcome* out) {
  Timed first = RunTimed(w.options, w.strategy);
  out->Account(first.result);
  out->scorecard = Scorecard(first.result);
  CheckRun(w, first.result, out->scorecard, "run 1", out);
  return first;
}

// Every workload is timed at one intra-trial worker and checked at two too.
// The count only reaches a sharded engine; on a single engine a second count
// would rerun the identical path.
constexpr int kCheckWorkers = 2;
bool CheckWorkers(const Workload& w) { return harness::ResolveShards(w.options) > 1; }

void EndToEnd(const Workload& w, double seconds, Outcome* out) {
  // Set-ups and measured repetitions alternate until the time is used, at
  // least five of each, so both sample the same stretch of host time (host
  // speed on a shared machine drifts over seconds). The load time is the
  // median repetition's CPU time less the median world build's: over seeds
  // it spreads less than the fastest of each (host speed is bimodal over
  // seconds, and the fastest of a dozen samples is an outlier statistic that
  // a subtraction amplifies).
  std::string error;
  Setup setup;
  Timed first;
  std::vector<double> cpus;
  std::vector<double> walls;
  const double start = WallSeconds();
  while (walls.size() < 5 || WallSeconds() - start < seconds) {
    if (!MeasureSetup(w, /*warmup=*/true, 1, &setup, &error)) {
      out->Check(false, "set-up failed: " + error);
      return;
    }
    if (walls.empty()) {
      first = ReferenceRun(w, out);
      cpus.push_back(first.cpu_s);
      walls.push_back(first.wall_s);
      continue;
    }
    const Timed t = RunTimed(w.options, w.strategy);
    out->Account(t.result);
    CheckRun(w, t.result, out->scorecard, "run " + std::to_string(walls.size() + 1), out);
    cpus.push_back(t.cpu_s);
    walls.push_back(t.wall_s);
  }
  const double setup_s = setup.Reported();
  const double load_s = Median(cpus) - setup.World();
  const double gets_per_s = static_cast<double>(w.measured_gets) / std::max(1e-9, load_s);
  if (CheckWorkers(w)) {
    harness::ExperimentOptions other = w.options;
    other.intra_workers = kCheckWorkers;
    const Timed check = RunTimed(other, w.strategy);
    out->Account(check.result);
    CheckRun(w, check.result, out->scorecard,
             "intra_workers=" + std::to_string(other.intra_workers), out);
  }

  const harness::RunResult& r = first.result;
  const LatencyRecorder& lat = r.get_latencies;
  const uint64_t measured = lat.count();
  const DurationNs p999 = lat.Percentile(99.9);
  uint64_t beyond_p999 = 0;
  for (const DurationNs latency : lat.samples()) {
    beyond_p999 += latency > p999 ? 1 : 0;
  }
  out->Check(measured >= 10000, "fewer than ten samples beyond p99.9");
  const uint64_t misses = SloMisses(w, r);
  std::printf("setup_s %.4f (median of %zu, CPU s; inputs + world):", setup_s,
              setup.world_s.size());
  for (size_t i = 0; i < setup.world_s.size(); ++i) {
    std::printf(" %.4f+%.4f", setup.inputs_s[i], setup.world_s[i]);
  }
  std::printf("\ngets_per_s %.0f (median of %zu runs, less the median world %.4f s), CPU s:",
              gets_per_s, cpus.size(), setup.World());
  for (const double cpu : cpus) {
    std::printf(" %.4f", cpu);
  }
  std::printf("\n  wall s:");
  for (const double wall : walls) {
    std::printf(" %.4f", wall);
  }
  std::printf("\n");
  std::printf("worker-count check: %s\n",
              CheckWorkers(w) ? "ran" : "not applicable (single engine)");
  std::printf("measured gets %llu; samples beyond p99.9: %llu; SLO misses %llu; failed %llu\n",
              static_cast<unsigned long long>(measured),
              static_cast<unsigned long long>(beyond_p999),
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(r.user_errors));

  out->metrics.Metric("setup_s", setup_s, "s");
  out->metrics.Metric("gets_per_s", gets_per_s, "1/s");
  out->metrics.Metric("peak_rss_mb", PeakRssMb(), "MB");
  out->metrics.Metric("sim_get_p50_ms", ToMillis(lat.Percentile(50)), "ms");
  out->metrics.Metric("sim_get_p99_ms", ToMillis(lat.Percentile(99)), "ms");
  out->metrics.Metric("sim_get_p999_ms", ToMillis(lat.Percentile(99.9)), "ms");
  out->metrics.Metric("slo_met_pct",
                      100.0 * Ratio(static_cast<double>(measured - misses), measured), "%");
  out->metrics.Metric("ok_pct",
                      100.0 * Ratio(static_cast<double>(r.requests - r.user_errors), r.requests),
                      "%");
  out->detail.Metric("measured_gets", static_cast<double>(measured), "count");
  out->detail.Metric("samples_beyond_p999", static_cast<double>(beyond_p999), "count");
  out->detail.Metric("slo_misses", static_cast<double>(misses), "count");
  out->detail.Metric("failed_gets", static_cast<double>(r.user_errors), "count");
  out->detail.Metric("issued_gets", static_cast<double>(r.requests), "count");
  out->detail.Metric("runs", static_cast<double>(walls.size()), "count");
}

double ImbalanceAt(const harness::RunResult& r, int workers) {
  for (const auto& [w, ratio] : r.imbalance) {
    if (w == workers) {
      return ratio;
    }
  }
  return 0;  // Unsharded engine: no per-worker split.
}

void PerLayer(const Workload& w, double seconds, const std::string& work_dir, Outcome* out) {
  std::string error;
  // The ladder times whole loads, warm-up included, so the harness rung
  // subtracts the bare world build.
  Setup setup;
  if (!MeasureSetup(w, /*warmup=*/false, 5, &setup, &error)) {
    out->Check(false, "set-up failed: " + error);
    return;
  }
  const double world_s = setup.FastestWorldWall();

  const Timed first = ReferenceRun(w, out);
  const harness::RunResult& r = first.result;
  const double gets = static_cast<double>(r.requests);
  auto ns_per_get = [&](const Timed& t) {
    return 1e9 * std::max(0.0, t.wall_s - world_s) / std::max(1.0, gets);
  };

  // Conservation and exactly-once through the oracle harvest, at both
  // worker counts on a sharded engine (correctness only: the per-get latch
  // it allocates is not part of the timed harness rung).
  std::vector<int> worker_counts = {w.options.intra_workers};
  if (CheckWorkers(w)) {
    worker_counts.push_back(kCheckWorkers);
  }
  for (const int workers : worker_counts) {
    harness::ExperimentOptions oracle = w.options;
    oracle.harvest_oracles = true;
    oracle.intra_workers = workers;
    const Timed checked = RunTimed(oracle, w.strategy);
    out->Account(checked.result);
    const std::string label = "oracle run, intra_workers=" + std::to_string(workers);
    CheckRun(w, checked.result, out->scorecard, label, out);
    CheckOracle(checked.result, label, out);
  }

  // Simulated waits from the obs latency breakdown of an obs-traced run.
  // Closed-loop workloads replay no trace file, so this run also records
  // their arrivals as one: the file trace.ns_per_record is timed on.
  harness::ExperimentOptions traced = w.options;
  traced.trace = true;
  traced.trace_capacity = std::max<size_t>(obs::Tracer::kDefaultCapacity, r.requests * 16);
  const std::string trace_file =
      w.trace_path.empty() ? work_dir + "/arrivals-" + w.name + ".mitttrace" : w.trace_path;
  if (w.trace_path.empty()) {
    traced.record_trace_path = trace_file;
  }
  const Timed obs_run = RunTimed(traced, w.strategy);
  out->Account(obs_run.result);
  CheckRun(w, obs_run.result, out->scorecard, "obs-traced run", out);
  const obs::LatencyBreakdown breakdown = obs::ComputeLatencyBreakdown(obs_run.result.trace_spans);
  LatencyRecorder queue_wait;
  LatencyRecorder service;
  for (const obs::BreakdownRow& row : breakdown.rows) {
    queue_wait.MergeFrom(row.queue_wait);
    service.MergeFrom(row.device_service);
  }

  // Ladder rounds fill the time after the checks above, at least three.
  // Each round times the harness rung (Experiment::Run, untraced: the
  // harness exposes no public boundary below it, so one span around the call
  // is its trace) and the four rungs below, once each. Host interference on
  // a shared machine only ever slows a run down, so every rung's host time is
  // the fastest of its rounds; every rung gets the same number of samples, so
  // none is favoured.
  perfbench::HarnessShape shape;
  shape.gets = r.requests;
  shape.sim_events = r.sim_events;
  shape.sim_duration = r.sim_duration;
  const std::string span_path = work_dir + "/spans-" + w.name + ".bin";
  perfbench::LadderResult ladder;
  std::vector<double> harness_samples;
  int rounds = 0;
  const double start = WallSeconds();
  while (rounds < 3 || WallSeconds() - start < seconds) {
    const Timed t = RunTimed(w.options, w.strategy);
    out->Account(t.result);
    CheckRun(w, t.result, out->scorecard, "harness rung " + std::to_string(rounds + 1), out);
    harness_samples.push_back(ns_per_get(t));
    perfbench::LadderResult round;
    // Spans of the first round are written out; later rounds only time.
    if (!perfbench::RunLadder(w, shape, rounds == 0 ? span_path : "", &round, &error)) {
      out->Check(false, "ladder: " + error);
      break;
    }
    if (rounds == 0) {
      ladder = round;
    } else {
      perfbench::KeepFastest(round, &ladder);
    }
    ++rounds;
  }
  // Every rung's time is its fastest round; the untraced per-get wall time
  // is the median harness sample.
  const double harness_ns = *std::min_element(harness_samples.begin(), harness_samples.end());
  const double untraced_ns = Median(harness_samples);
  std::printf("harness rung samples (ns/get):");
  for (const double ns : harness_samples) {
    std::printf(" %.0f", ns);
  }
  std::printf("\n");
  // The harness at two intra-trial workers, untraced: the window barriers'
  // cost on a sharded engine (the same path as one worker on a single one).
  harness::ExperimentOptions two = w.options;
  two.intra_workers = kCheckWorkers;
  std::vector<double> w2_samples;
  for (int i = 0; i < 3; ++i) {
    const Timed t = RunTimed(two, w.strategy);
    out->Account(t.result);
    CheckRun(w, t.result, out->scorecard, "intra_workers=2 run " + std::to_string(i + 1), out);
    w2_samples.push_back(ns_per_get(t));
  }
  const double w2_ns = *std::min_element(w2_samples.begin(), w2_samples.end());
  const perfbench::DirectResult direct = perfbench::RunDirect(w, ladder.queue_depth, trace_file);
  out->Check(direct.trace_records > 0, "trace file " + trace_file + " could not be read");

  const obs::MetricsRegistry& m = r.metrics;
  const double hits = static_cast<double>(m.CounterTotal("cache_hit_total"));
  const double lookups = hits + static_cast<double>(m.CounterTotal("cache_miss_total"));
  const double rejects = static_cast<double>(m.CounterTotal("predictor_reject_total"));
  const double predicts = rejects + static_cast<double>(m.CounterTotal("predictor_accept_total"));
  const double dl_miss = static_cast<double>(m.CounterTotal("deadline_miss_total"));
  const double dl_reads = dl_miss + static_cast<double>(m.CounterTotal("deadline_hit_total"));
  const double ebusy = static_cast<double>(m.CounterTotal("ebusy_total"));

  Json& x = out->metrics;
  x.Metric("sim.events_per_get", Ratio(static_cast<double>(r.sim_events), gets), "ratio");
  x.Metric("sim.windows", static_cast<double>(r.engine_windows), "count");
  x.Metric("sim.fused_windows", static_cast<double>(r.engine_fused_windows), "count");
  x.Metric("sim.cross_shard_msgs_per_get",
           Ratio(static_cast<double>(r.cross_shard_messages), gets), "ratio");
  x.Metric("sim.imbalance_w2", ImbalanceAt(r, 2), "ratio");
  x.Metric("sim.w2_ns_per_get", w2_ns, "ns");
  x.Metric("os.cache_hit_ratio", Ratio(hits, lookups), "ratio");
  x.Metric("os.ebusy_per_get", Ratio(ebusy, gets), "ratio");
  x.Metric("os.predict_reject_ratio", Ratio(rejects, predicts), "ratio");
  x.Metric("os.deadline_miss_ratio", Ratio(dl_miss, dl_reads), "ratio");
  x.Metric("noise.ios_per_get", Ratio(static_cast<double>(ladder.noise_ios), gets), "ratio");
  x.Metric("client.failovers_per_get", Ratio(static_cast<double>(r.ebusy_failovers), gets),
           "ratio");
  x.Metric("client.timeouts_per_get", Ratio(static_cast<double>(r.timeouts_fired), gets),
           "ratio");
  x.Metric("resilience.breaker_opens",
           static_cast<double>(m.CounterTotal("resilience_breaker_open_total")), "count");
  x.Metric("resilience.degraded_gets", static_cast<double>(r.degraded_gets), "count");
  x.Metric("resilience.sheds", static_cast<double>(r.degraded_sheds), "count");
  x.Metric("tenant.migrations", static_cast<double>(r.tenant_migrations), "count");
  x.Metric("tenant.hot_ticks", static_cast<double>(r.controller_hot_ticks), "count");
  x.Metric("fault.episodes", static_cast<double>(r.fault_episodes), "count");

  const double self_sim = ladder.sim_ns;
  const double self_os = ladder.os_ns - ladder.sim_ns;
  const double self_kv = ladder.kv_ns - ladder.os_ns;
  // The rungs up to the client are traced; the harness rung is not, so its
  // self time is taken against the untraced client rung. The self times then
  // sum to the fastest harness sample plus the spans' cost, and the
  // unattributed rest (median less that sum) goes negative when tracing
  // costs more than a typical run's slowdown over the fastest.
  const double self_client = ladder.client_ns - ladder.kv_ns;
  const double self_harness = harness_ns - ladder.client_untraced_ns;
  const double unattributed =
      untraced_ns - (self_sim + self_os + self_kv + self_client + self_harness);
  x.Metric("sim.self_ns_per_get", self_sim, "ns");
  x.Metric("os.self_ns_per_get", self_os, "ns");
  x.Metric("kv.self_ns_per_get", self_kv, "ns");
  x.Metric("client.self_ns_per_get", self_client, "ns");
  x.Metric("harness.self_ns_per_get", self_harness, "ns");
  x.Metric("unattributed_ns_per_get", unattributed, "ns");
  x.Metric("os.page_cache.ns_per_lookup", direct.page_cache_ns_per_lookup, "ns");
  x.Metric("os.predict.ns_per_call", direct.predict_ns_per_call, "ns");
  x.Metric("device.ns_per_io", direct.device_ns_per_io, "ns");
  x.Metric("trace.ns_per_record", direct.trace_ns_per_record, "ns");
  x.Metric("tracing_overhead_pct",
           100.0 * Ratio(ladder.client_ns - ladder.client_untraced_ns, ladder.client_untraced_ns),
           "%");
  x.Metric("sched.queue_wait_ms_p99", ToMillis(queue_wait.Percentile(99)), "ms");
  x.Metric("device.service_ms_p99", ToMillis(service.Percentile(99)), "ms");

  Json& d = out->detail;
  d.Metric("gets", gets, "count");
  d.Metric("sim_events", static_cast<double>(r.sim_events), "count");
  d.Metric("cross_shard_msgs", static_cast<double>(r.cross_shard_messages), "count");
  d.Metric("cache_hits", hits, "count");
  d.Metric("cache_lookups", lookups, "count");
  d.Metric("ebusy", ebusy, "count");
  d.Metric("predictor_rejects", rejects, "count");
  d.Metric("predictor_calls", predicts, "count");
  d.Metric("deadline_misses", dl_miss, "count");
  d.Metric("deadline_reads", dl_reads, "count");
  d.Metric("noise_ios", static_cast<double>(ladder.noise_ios), "count");
  d.Metric("failovers", static_cast<double>(r.ebusy_failovers), "count");
  d.Metric("timeouts", static_cast<double>(r.timeouts_fired), "count");
  d.Metric("untraced_ns_per_get", untraced_ns, "ns");
  d.Metric("harness_rung_ns_per_get", harness_ns, "ns");
  d.Metric("client_rung_untraced_ns_per_get", ladder.client_untraced_ns, "ns");
  d.Metric("ladder_spans", static_cast<double>(ladder.spans), "count");
  d.Metric("pending_depth", ladder.pending_depth, "count");
  d.Metric("queue_depth", ladder.queue_depth, "count");
  d.Metric("page_cache_lookups", static_cast<double>(direct.lookups), "count");
  d.Metric("predict_calls", static_cast<double>(direct.predict_calls), "count");
  d.Metric("device_ios", static_cast<double>(direct.device_ios), "count");
  d.Metric("trace_records", static_cast<double>(direct.trace_records), "count");
  d.Metric("queue_wait_samples", static_cast<double>(queue_wait.count()), "count");
  d.Metric("service_samples", static_cast<double>(service.count()), "count");
  d.Metric("ladder_rounds", static_cast<double>(rounds), "count");

  std::printf("ladder (host ns/get): sim %.0f | os %.0f | kv %.0f | client %.0f (untraced %.0f)"
              " | harness %.0f (fastest) | untraced %.0f (median)\n",
              ladder.sim_ns, ladder.os_ns, ladder.kv_ns, ladder.client_ns,
              ladder.client_untraced_ns, harness_ns, untraced_ns);
  std::printf("self ns/get: sim %.0f os %.0f kv %.0f client %.0f harness %.0f unattributed %.0f"
              " (sum %.0f = untraced %.0f)\n",
              self_sim, self_os, self_kv, self_client, self_harness, unattributed,
              self_sim + self_os + self_kv + self_client + self_harness + unattributed,
              untraced_ns);
  std::printf("spans: %llu written to %s\n", static_cast<unsigned long long>(ladder.spans),
              span_path.c_str());
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int Usage() {
  std::fprintf(stderr,
               "usage: mittbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string work_dir;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 2;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--seed") {
      have_seed = ParseU64(value, &seed);
      if (!have_seed) {
        return Usage();
      }
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &seconds) || seconds == 0 || seconds > 3600) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (!ParseU64(value, &trace) || trace > 1) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || name.empty() || work_dir.empty() || !have_seed || seconds == 0 ||
      trace > 1) {
    return Usage();
  }
  Workload w;
  if (!perfbench::MakeWorkload(name, seed, work_dir, &w)) {
    std::fprintf(stderr, "mittbench: unknown workload '%s'\n", name.c_str());
    return Usage();
  }
  struct stat st {};
  if (stat(work_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    std::fprintf(stderr, "mittbench: work dir '%s' does not exist\n", work_dir.c_str());
    return 2;
  }

  // A fixed mmap threshold turns off glibc's adaptive one, which otherwise
  // moves large tables (page caches, event pools) between mmap and the heap
  // depending on what earlier worlds freed: every world then pays the same
  // page faults for its tables, and set-up time does not depend on history.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  std::printf("workload %s seed %llu seconds %llu trace %llu\n", name.c_str(),
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(seconds),
              static_cast<unsigned long long>(trace));
  Outcome out;
  if (trace == 0) {
    EndToEnd(w, static_cast<double>(seconds), &out);
  } else {
    PerLayer(w, static_cast<double>(seconds), work_dir, &out);
  }
  std::printf("scorecard %s\n", out.scorecard.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}, "
              "\"detail\": {%s}, \"scorecard\": \"%s\", \"build_type\": \"%s\", "
              "\"compiler\": \"%s\"}\n",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), out.metrics.body.c_str(),
              out.detail.body.c_str(), out.scorecard.c_str(), MITTBENCH_BUILD_TYPE,
              obs::JsonEscape(kCompiler).c_str());
  return out.correct ? 0 : 1;
}
