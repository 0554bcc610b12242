#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/trace/writer.h"
#include "src/workload/synthetic_trace.h"

namespace perfbench {

using namespace mitt;
using harness::ExperimentOptions;
using harness::StrategyKind;

namespace {

// Tenants the replay's arrivals are dealt onto, and the trace compression.
constexpr uint32_t kReplayTenants = 2000;
constexpr double kReplayRateScale = 20.0;
// Mean trace-time gap between arrivals, fixed per segment (see WriteInputs):
// about what the TPCC profile's bursts average to.
constexpr DurationNs kReplayMeanGap = Micros(500);

void MacroDisk(uint64_t seed, Workload* w) {
  ExperimentOptions& o = w->options;
  o.num_nodes = 20;
  o.num_clients = 20;
  o.backend = os::BackendKind::kDiskCfq;
  o.num_keys_per_node = 1 << 21;  // 8 GB of 4 KB slots per node ...
  o.cache_pages = 1 << 17;        // ... against a 512 MB page cache.
  o.noise = harness::NoiseKind::kMacroMix;
  o.noise_horizon = Seconds(3600);
  o.deadline = Millis(13);  // The paper's p95 value.
  o.num_shards = 1;         // Single-engine path.
  w->strategy = StrategyKind::kMittos;
  w->warmup_gets = 1000;
  w->measured_gets = 30000;
  o.intra_workers = 1;
  o.seed = seed;
}

void TenantReplaySsd(uint64_t seed, const std::string& work_dir, Workload* w) {
  ExperimentOptions& o = w->options;
  o.num_nodes = 6;
  o.num_clients = 0;  // Open loop: the replay drives arrivals.
  o.backend = os::BackendKind::kSsd;
  o.num_keys_per_node = 1 << 16;  // 256 MB per node, inside the cache.
  o.deadline = Millis(20);        // Per-get deadlines come from the class SLO.
  // Two shards of three nodes on sim::ShardedEngine, tenants partitioned
  // by tenant % 2: the engine's windows, mailboxes and cross-shard messages
  // run here, and the scorecard is checked at one and two intra-trial
  // workers. Timed on one worker: at two, a run's wall time on a shared host
  // follows how the OS schedules the two threads around each window barrier
  // more than the code; the traced run times two as sim.w2_ns_per_get.
  o.num_shards = 2;
  o.noise = harness::NoiseKind::kContinuous;  // Node 0: 1 MB-read contention.
  o.continuous_intensity = 60;
  o.noise_horizon = Seconds(3600);
  fault::FaultPlanBuilder faults;
  for (TimeNs t = Millis(50); t < Seconds(600); t += Millis(400)) {
    faults.SsdReadRetry(/*node=*/1, t, Millis(250), /*multiplier=*/25.0);
  }
  o.fault_plan = faults.Build();
  o.tenants.enabled = true;
  o.tenants.mix.num_tenants = kReplayTenants;
  o.tenants.slo_aware = true;
  w->trace_path = work_dir + "/tenant-replay-ssd.mitttrace";
  o.replay.trace_path = w->trace_path;
  o.replay.rate_scale = kReplayRateScale;
  w->strategy = StrategyKind::kMittosResilient;
  // The long warm-up settles the world (page caches, breakers, placement)
  // before measuring: after 10000 warm-up arrivals the measured tail still
  // depended on the seed (p99 spread 0.16 over seeds), after 120000 it does
  // not (0.002).
  w->warmup_gets = 120000;
  w->measured_gets = 300000;
  o.replay.warmup_events = w->warmup_gets;
  o.replay.max_events = w->warmup_gets + w->measured_gets;
  o.intra_workers = 1;
  o.seed = seed;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"macro-disk", "tenant-replay-ssd"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, const std::string& work_dir,
                  Workload* out) {
  *out = Workload{};
  out->name = name;
  if (name == "macro-disk") {
    MacroDisk(seed, out);
  } else if (name == "tenant-replay-ssd") {
    TenantReplaySsd(seed, work_dir, out);
  } else {
    return false;
  }
  out->options.warmup_requests = out->warmup_gets;
  out->options.measure_requests = out->measured_gets;
  return true;
}

bool WriteInputs(const Workload& workload, std::string* error) {
  if (workload.trace_path.empty()) {
    return true;
  }
  // Synthetic TPCC profile; each record is dealt onto one of the tenants
  // (replay overlays stream % num_tenants) by a seeded generator.
  const workload::TraceProfile* tpcc = nullptr;
  for (const auto& p : workload::PaperTraceProfiles()) {
    if (p.name == "TPCC") {
      tpcc = &p;
    }
  }
  if (tpcc == nullptr) {
    *error = "TPCC trace profile missing";
    return false;
  }
  const uint64_t records = workload.options.replay.max_events;
  // 1 ms mean inter-arrival: twice the needed span leaves slack for bursts.
  workload::SyntheticTraceCursor cursor(*tpcc, Millis(2) * static_cast<int64_t>(records),
                                        workload.options.seed ^ 0x7ACE);
  auto writer = trace::TraceWriter::Open(workload.trace_path, {}, error);
  if (writer == nullptr) {
    return false;
  }
  Rng streams(workload.options.seed ^ 0x57AE);
  std::vector<trace::TraceEvent> events;
  events.reserve(records);
  trace::TraceEvent event;
  while (events.size() < records && cursor.Next(&event)) {
    event.stream = static_cast<uint32_t>(streams.UniformInt(0, kReplayTenants - 1));
    events.push_back(event);
  }
  // The profile's ON/OFF burst phases make a trace's span vary by seed (the
  // measured part's simulated time by +-15% over 300000 arrivals), and the
  // contention and read-retry work with it, so a run's host cost followed
  // the seed more than the code. Each segment, warm-up and measured, keeps
  // its burst shape but is stretched to kReplayMeanGap per arrival.
  const size_t bounds[] = {0, std::min<size_t>(workload.warmup_gets, events.size()),
                           events.size()};
  TimeNs raw_prev = 0;
  TimeNs at = 0;
  for (int seg = 0; seg < 2; ++seg) {
    const size_t lo = bounds[seg];
    const size_t hi = bounds[seg + 1];
    if (lo == hi) {
      continue;
    }
    const double span = static_cast<double>(events[hi - 1].at - raw_prev);
    const double scale = static_cast<double>(kReplayMeanGap) * static_cast<double>(hi - lo) /
                         std::max(1.0, span);
    for (size_t i = lo; i < hi; ++i) {
      const TimeNs raw = events[i].at;
      at += static_cast<TimeNs>(std::llround(static_cast<double>(raw - raw_prev) * scale));
      raw_prev = raw;
      events[i].at = at;
    }
  }
  for (const trace::TraceEvent& e : events) {
    if (!writer->Append(e)) {
      *error = writer->error();
      return false;
    }
  }
  if (writer->records_written() != records) {
    *error = "synthetic trace ended early";
    return false;
  }
  if (!writer->Finish()) {
    *error = writer->error();
    return false;
  }
  return true;
}

ExperimentOptions SetupOnly(const Workload& workload, bool warmup) {
  ExperimentOptions o = workload.options;
  o.warmup_requests = warmup ? workload.warmup_gets : 0;
  o.measure_requests = 0;
  if (o.replay.enabled()) {
    // max_events 0 means "the whole trace", so the bare world replays one
    // unmeasured arrival.
    o.replay.max_events = warmup ? workload.warmup_gets : 1;
    o.replay.warmup_events = o.replay.max_events;
  }
  return o;
}

}  // namespace perfbench
