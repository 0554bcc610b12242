#include "src/harness/experiment.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/client/adaptive.h"
#include "src/client/clone.h"
#include "src/client/hedged.h"
#include "src/client/mittos_client.h"
#include "src/client/timeout.h"
#include "src/common/table.h"
#include "src/fault/injector.h"
#include "src/noise/noise_injector.h"
#include "src/sched/sched_obs.h"
#include "src/sim/sharded_engine.h"
#include "src/tenant/workload.h"
#include "src/trace/recorder.h"
#include "src/trace/replay.h"
#include "src/workload/macro_workload.h"
#include "src/workload/synthetic_trace.h"

namespace mitt::harness {
namespace {

constexpr DurationNs kFallbackDeadline = Millis(13);

DurationNs Resolve(DurationNs value, DurationNs fallback) {
  return value >= 0 ? value : fallback;
}

// Decorrelates per-shard seed streams (strategy instances, id namespaces).
constexpr uint64_t kShardSeedStride = 0x9E37'79B9'7F4A'7C15ULL;

// Per-SLO-class accumulation for tenant-enabled runs; one vector per shard,
// merged in shard order at harvest (the determinism contract).
struct ClassAgg {
  uint64_t requests = 0;
  uint64_t deadline_miss = 0;
  uint64_t failovers = 0;
  uint64_t errors = 0;
  LatencyRecorder latencies;
};

void RecordTenantCompletion(const tenant::TenantDirectory& directory,
                            std::vector<ClassAgg>& aggs, tenant::TenantId t,
                            DurationNs latency, const client::GetResult& r) {
  ClassAgg& agg = aggs[directory.class_of(t)];
  ++agg.requests;
  agg.latencies.Record(latency);
  if (latency > directory.slo_of(t)) {
    ++agg.deadline_miss;
  }
  agg.failovers += static_cast<uint64_t>(r.tries - 1);
  if (!r.status.ok() && !r.status.busy()) {
    ++agg.errors;
  }
}

// The controller's view of one node: the scheduler's O(1) predictor
// aggregates (wait sums / dispatches / rejects maintained by sched::SchedObs)
// plus the node's get/EBUSY totals and per-tenant arrival counters. Reads
// cross-shard state, so it must only run while the world is quiesced — the
// controller guarantees that (ticks are ScheduleGlobal events).
tenant::PlacementController::ProbeFn MakeNodeProbe(cluster::Cluster* cluster) {
  return [cluster](int node) {
    tenant::NodeProbe p;
    kv::DocStoreNode& n = cluster->node(node);
    if (const sched::SchedObs* o = n.os().scheduler().observer()) {
      p.wait_sum_ns = o->wait_sum_ns();
      p.dispatches = o->dispatches();
      p.rejects = o->rejects();
    }
    p.gets = n.gets_served();
    p.ebusy = n.ebusy_returned();
    p.tenant_gets = n.tenant_gets_data();
    p.tenant_count = n.tenant_slots();
    return p;
  };
}

// Folds the (already shard-order-merged) class aggregates and controller
// counters into the result.
void HarvestTenants(const tenant::TenantDirectory& directory, std::vector<ClassAgg>& aggs,
                    tenant::PlacementController* controller, RunResult* out) {
  std::vector<uint32_t> members(directory.num_classes(), 0);
  for (tenant::TenantId t = 0; t < directory.num_tenants(); ++t) {
    ++members[directory.class_of(t)];
  }
  for (uint32_t c = 0; c < directory.num_classes(); ++c) {
    TenantClassStats stats;
    stats.name = directory.cls(c).name;
    stats.slo = directory.cls(c).slo;
    stats.tenants = members[c];
    ClassAgg& agg = aggs[c];
    stats.requests = agg.requests;
    stats.deadline_miss = agg.deadline_miss;
    stats.failovers = agg.failovers;
    stats.errors = agg.errors;
    stats.latencies = std::move(agg.latencies);
    out->tenant_requests += stats.requests;
    out->tenant_classes.push_back(std::move(stats));
  }
  if (controller != nullptr) {
    out->tenant_migrations = controller->migrations();
    out->controller_ticks = controller->ticks();
    out->controller_hot_ticks = controller->hot_ticks();
    out->breaker_opens = controller->health().breaker_opens();
  }
}

// Wraps a get's completion callback for the oracle harvest: counts the issue
// here, the first completion (split by status) and any duplicate completion
// in the wrapper. Null harvest = oracles off = the callback passes through
// untouched (no per-get latch allocation on the hot benches).
client::GetDoneFn WrapOracleDone(OracleHarvest* h, client::GetDoneFn done) {
  if (h == nullptr) {
    return done;
  }
  ++h->gets_issued;
  auto calls = std::make_shared<int>(0);
  return [h, calls, done = std::move(done)](const client::GetResult& r) {
    if (++*calls > 1) {
      ++h->gets_done_duplicate;
    } else {
      ++h->gets_done;
      if (r.status.ok()) {
        ++h->done_ok;
      } else if (r.status.busy()) {
        ++h->done_busy;
      } else if (r.status.code() == StatusCode::kDeadlineExhausted) {
        ++h->done_exhausted;
      } else {
        ++h->done_error;
      }
    }
    done(r);
  };
}

// Placement-map validity oracle: every group node in [0, num_nodes), no
// duplicate node within a group. Run after the workload (the controller only
// mutates the map at quiesced ticks, so post-run state is the final word).
void ValidatePlacement(const tenant::PlacementMap& map, int num_nodes, OracleHarvest* h) {
  if (h == nullptr) {
    return;
  }
  for (tenant::TenantId t = 0; t < map.num_tenants(); ++t) {
    const tenant::ReplicaGroup g = map.group(t);
    for (int r = 0; r < g.size; ++r) {
      if (g.node[r] < 0 || g.node[r] >= num_nodes) {
        h->placement_ok = false;
        h->placement_detail = "tenant " + std::to_string(t) + " replica " + std::to_string(r) +
                              " out of range: " + std::to_string(g.node[r]);
        return;
      }
      for (int k = 0; k < r; ++k) {
        if (g.node[k] == g.node[r]) {
          h->placement_ok = false;
          h->placement_detail = "tenant " + std::to_string(t) + " duplicate replica node " +
                                std::to_string(g.node[r]);
          return;
        }
      }
    }
  }
}

}  // namespace

void OracleHarvest::MergeFrom(const OracleHarvest& other) {
  enabled = enabled || other.enabled;
  gets_issued += other.gets_issued;
  gets_done += other.gets_done;
  gets_done_duplicate += other.gets_done_duplicate;
  done_ok += other.done_ok;
  done_busy += other.done_busy;
  done_exhausted += other.done_exhausted;
  done_error += other.done_error;
  budget_regressions += other.budget_regressions;
  for (const size_t seg : other.breaker_segments) {
    breaker_segments.push_back(breaker_log.size() + seg);
  }
  breaker_log.insert(breaker_log.end(), other.breaker_log.begin(), other.breaker_log.end());
  breaker_log_dropped += other.breaker_log_dropped;
  if (!other.placement_ok && placement_ok) {
    placement_ok = false;
    placement_detail = other.placement_detail;
  }
}

int ResolveShards(const ExperimentOptions& options) {
  if (options.shared_cpu_cores > 0) {
    return 1;  // A shared CPU pool is inherently cross-shard state.
  }
  if (options.num_shards > 0) {
    return std::min(options.num_shards, options.num_nodes);
  }
  // Auto: small paper-scale topologies run on one shard (no windows, no
  // barriers); fleet-scale worlds get ~32 nodes/shard.
  if (options.num_nodes < 64) {
    return 1;
  }
  return std::min(32, options.num_nodes / 32);
}

int DefaultTrialWorkers() {
  if (const char* env = std::getenv("MITT_TRIAL_WORKERS")) {
    const int v = std::atoi(env);
    if (v > 0) {
      return v;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void internal::RunTrialsIndexed(size_t n, int workers,
                                const std::function<void(size_t)>& body) {
  if (workers <= 0) {
    workers = DefaultTrialWorkers();
  }
  const size_t pool = std::min(static_cast<size_t>(workers), n);
  if (pool <= 1) {
    for (size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr first_error;
  auto drain = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) {
        return;
      }
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) {
          first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(pool - 1);
  for (size_t t = 1; t < pool; ++t) {
    threads.emplace_back(drain);
  }
  drain();  // The calling thread is a worker too.
  for (std::thread& t : threads) {
    t.join();
  }
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

std::vector<RunResult> RunTrialsParallel(const std::vector<Trial>& trials, int workers) {
  return RunTrials<RunResult>(
      trials.size(),
      [&trials](size_t i) {
        const Trial& t = trials[i];
        Experiment experiment(t.options);
        RunResult result = experiment.Run(t.kind);
        if (!t.rename.empty()) {
          result.name = t.rename;
        }
        return result;
      },
      workers);
}

std::string_view StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kBase:
      return "Base";
    case StrategyKind::kAppTimeout:
      return "AppTO";
    case StrategyKind::kClone:
      return "Clone";
    case StrategyKind::kHedged:
      return "Hedged";
    case StrategyKind::kSnitch:
      return "Snitch";
    case StrategyKind::kC3:
      return "C3";
    case StrategyKind::kMittos:
      return "MittOS";
    case StrategyKind::kMittosWait:
      return "MittOS+wait";
    case StrategyKind::kMittosResilient:
      return "MittOS+res";
  }
  return "?";
}

noise::Ec2NoiseParams CompressedEc2Noise() {
  noise::Ec2NoiseParams p;
  p.mean_off = Millis(3500);
  p.off_sigma = 1.1;
  p.min_on = Millis(80);
  p.max_on = Millis(600);
  p.on_alpha = 1.3;
  p.max_intensity = 4;
  p.extra_stream_prob = 0.35;
  p.hot_node_fraction = 0.15;
  p.hot_node_off_scale = 0.5;
  return p;
}

std::unique_ptr<client::GetStrategy> Experiment::MakeStrategy(StrategyKind kind,
                                                              sim::Simulator* sim,
                                                              cluster::Cluster* cluster,
                                                              uint64_t seed_salt) {
  const uint64_t seed = (options_.seed ^ 0xC11E'47F0) + kShardSeedStride * seed_salt;
  const DurationNs deadline = Resolve(options_.deadline, kFallbackDeadline);
  switch (kind) {
    case StrategyKind::kBase: {
      client::TimeoutStrategy::Options opt;
      opt.name = "Base";
      opt.timeout = Seconds(30);  // The NoSQL-default coarse timeout (§2).
      return std::make_unique<client::TimeoutStrategy>(sim, cluster, seed, opt);
    }
    case StrategyKind::kAppTimeout: {
      client::TimeoutStrategy::Options opt;
      opt.name = "AppTO";
      opt.timeout = Resolve(options_.app_timeout, deadline);
      opt.failover_on_timeout = options_.app_timeout_failover;
      return std::make_unique<client::TimeoutStrategy>(sim, cluster, seed, opt);
    }
    case StrategyKind::kClone:
      return std::make_unique<client::CloneStrategy>(sim, cluster, seed);
    case StrategyKind::kHedged: {
      client::HedgedStrategy::Options opt;
      opt.hedge_delay = Resolve(options_.hedge_delay, deadline);
      return std::make_unique<client::HedgedStrategy>(sim, cluster, seed, opt);
    }
    case StrategyKind::kSnitch:
      return std::make_unique<client::SnitchStrategy>(sim, cluster, seed,
                                                      client::SnitchStrategy::Options{});
    case StrategyKind::kC3:
      return std::make_unique<client::C3Strategy>(sim, cluster, seed,
                                                  client::C3Strategy::Options{});
    case StrategyKind::kMittos: {
      client::MittosStrategy::Options opt;
      opt.deadline = deadline;
      return std::make_unique<client::MittosStrategy>(sim, cluster, seed, opt);
    }
    case StrategyKind::kMittosWait: {
      client::MittosWaitStrategy::Options opt;
      opt.deadline = deadline;
      return std::make_unique<client::MittosWaitStrategy>(sim, cluster, seed, opt);
    }
    case StrategyKind::kMittosResilient: {
      client::ResilientOptions opt = options_.resilience;
      opt.name = "MittOS+res";
      opt.deadline = deadline;
      // The breaker-legality oracle needs the in-order transition log.
      opt.health.record_transitions = opt.health.record_transitions || options_.harvest_oracles;
      return std::make_unique<client::ResilientMittosStrategy>(sim, cluster, seed, opt);
    }
  }
  return nullptr;
}

void Experiment::CollectCounters(StrategyKind kind, const client::GetStrategy& strategy,
                                 RunResult* out) {
  switch (kind) {
    case StrategyKind::kBase:
    case StrategyKind::kAppTimeout:
      out->timeouts_fired +=
          static_cast<const client::TimeoutStrategy&>(strategy).timeouts_fired();
      break;
    case StrategyKind::kHedged:
      out->hedges_sent += static_cast<const client::HedgedStrategy&>(strategy).hedges_sent();
      break;
    case StrategyKind::kMittos: {
      const auto& s = static_cast<const client::MittosStrategy&>(strategy);
      out->ebusy_failovers += s.ebusy_failovers();
      out->unbounded_deadline_tries += s.unbounded_tries();
      break;
    }
    case StrategyKind::kMittosWait: {
      const auto& s = static_cast<const client::MittosWaitStrategy&>(strategy);
      out->ebusy_failovers += s.ebusy_failovers();
      out->unbounded_deadline_tries += s.informed_last_tries();
      break;
    }
    case StrategyKind::kMittosResilient: {
      const auto& s = static_cast<const client::ResilientMittosStrategy&>(strategy);
      out->ebusy_failovers += s.ebusy_failovers();
      out->timeouts_fired += s.timeouts_fired();
      out->degraded_gets += s.degraded_gets();
      out->degraded_sheds += s.degraded_sheds_seen();
      out->deadline_exhausted += s.deadline_exhausted();
      out->retry_denied += s.retry_denied();
      out->max_sent_deadline = std::max(out->max_sent_deadline, s.max_sent_deadline());
      out->oracle.budget_regressions += s.budget_regressions();
      const auto& transitions = s.health().transitions();
      if (!transitions.empty()) {
        // One tracker instance = one legality segment (sharded runs collect
        // once per shard, and every tracker starts its replicas at closed).
        out->oracle.breaker_segments.push_back(out->oracle.breaker_log.size());
      }
      out->oracle.breaker_log.insert(out->oracle.breaker_log.end(), transitions.begin(),
                                     transitions.end());
      out->oracle.breaker_log_dropped += s.health().transitions_dropped();
      break;
    }
    default:
      break;
  }
}

uint64_t Experiment::ReplayKeyFor(int64_t offset, uint32_t stream, uint64_t keyspace) {
  const uint64_t block = static_cast<uint64_t>(offset) >> 12;  // 4 KB slots.
  return (block + static_cast<uint64_t>(stream) * kShardSeedStride) % keyspace;
}

std::unique_ptr<trace::TraceCursor> Experiment::MakeReplayCursor() const {
  if (!options_.replay.trace_path.empty()) {
    std::string error;
    auto cursor = trace::FileTraceCursor::Open(options_.replay.trace_path, &error);
    if (cursor == nullptr) {
      throw std::runtime_error("replay trace: " + error);
    }
    return cursor;
  }
  const auto& profiles = workload::PaperTraceProfiles();
  const size_t index = static_cast<size_t>(options_.replay.synthetic_profile);
  if (index >= profiles.size()) {
    throw std::runtime_error("replay: synthetic_profile out of range");
  }
  // Same seed stream the accuracy benches use for their synthetic replays.
  return std::make_unique<workload::SyntheticTraceCursor>(
      profiles[index], options_.replay.synthetic_duration, options_.seed ^ 0x7ACE,
      static_cast<uint32_t>(index));
}

cluster::Cluster::Options Experiment::BuildClusterOptions(StrategyKind kind) const {
  cluster::Cluster::Options copt;
  copt.num_nodes = options_.num_nodes;
  copt.replication = std::min(3, options_.num_nodes);
  copt.seed = options_.seed;
  copt.shared_cpu_cores = options_.shared_cpu_cores;
  copt.node.num_keys = options_.num_keys_per_node;
  copt.node.access = options_.access;
  copt.node.cpu_cores = options_.cpu_cores;
  copt.node.handler_cpu = options_.handler_cpu;
  copt.node.os.backend = options_.backend;
  copt.node.os.cache.capacity_pages = options_.cache_pages;
  copt.node.os.mitt_enabled = kind == StrategyKind::kMittos ||
                              kind == StrategyKind::kMittosWait ||
                              kind == StrategyKind::kMittosResilient;
  copt.node.os.predictor = options_.predictor;
  copt.node.os.mitt_cfq = options_.mitt_cfq;
  copt.node.os.mitt_ssd = options_.mitt_ssd;
  copt.node.os.seed = options_.seed;
  if (options_.tenants.enabled) {
    // Per-tenant get/EBUSY counters on every node (the controller's probe
    // input); sized to the directory BuildMix will produce.
    copt.node.tenant_slots = options_.tenants.mix.num_tenants;
  }
  return copt;
}

void Experiment::BuildNoise(cluster::Cluster& cluster,
                            std::vector<std::unique_ptr<noise::IoNoiseInjector>>& io_noise,
                            std::vector<std::unique_ptr<noise::CacheNoiseInjector>>& cache_noise,
                            std::vector<std::unique_ptr<workload::MacroWorkload>>& macro_noise) {
  // Every injector runs on its node's own shard — noise is node-local by
  // construction, so it never crosses a shard boundary.
  const noise::Ec2NoiseModel ec2(options_.ec2, options_.seed ^ 0xEC2);

  auto make_io_injector = [&](int node, std::vector<noise::NoiseEpisode> schedule) {
    kv::DocStoreNode& n = cluster.node(node);
    const int64_t noise_file_size = 200LL << 30;
    const uint64_t noise_file = n.os().CreateFile(noise_file_size);
    noise::IoNoiseInjector::Options opt;
    opt.io_size = options_.noise_io_size;
    opt.streams_per_intensity = options_.noise_streams;
    opt.op = options_.noise_op;
    opt.pid = 9000 + node;
    opt.io_class = options_.noise_class;
    opt.priority = options_.noise_priority;
    io_noise.push_back(std::make_unique<noise::IoNoiseInjector>(
        n.sim(), &n.os(), noise_file, noise_file_size, std::move(schedule), opt,
        options_.seed ^ (0x4015EULL + static_cast<uint64_t>(node))));
    io_noise.back()->Start();
  };

  switch (options_.noise) {
    case NoiseKind::kNone:
      break;
    case NoiseKind::kEc2:
      for (int node = 0; node < options_.num_nodes; ++node) {
        if (options_.noise_only_node >= 0 && node != options_.noise_only_node) {
          continue;
        }
        make_io_injector(node, ec2.GenerateSchedule(node, options_.noise_horizon));
      }
      break;
    case NoiseKind::kContinuous: {
      if (options_.continuous_all_nodes) {
        // Every replica under constant contention: the all-busy world where
        // every hop returns EBUSY and only the degraded path completes gets.
        for (int node = 0; node < options_.num_nodes; ++node) {
          make_io_injector(node, {noise::NoiseEpisode{0, options_.noise_horizon,
                                                      options_.continuous_intensity}});
        }
        break;
      }
      const int node = options_.pin_primary_node >= 0 ? options_.pin_primary_node : 0;
      make_io_injector(node, {noise::NoiseEpisode{0, options_.noise_horizon,
                                                  options_.continuous_intensity}});
      break;
    }
    case NoiseKind::kCacheDrop:
    case NoiseKind::kStaticCacheDrop:
      for (int node = 0; node < options_.num_nodes; ++node) {
        if (options_.noise_only_node >= 0 && node != options_.noise_only_node) {
          continue;
        }
        kv::DocStoreNode& n = cluster.node(node);
        noise::CacheNoiseInjector::Options opt;
        opt.file = n.data_file();
        opt.file_size = n.data_file_size();
        std::vector<noise::NoiseEpisode> schedule;
        if (options_.noise == NoiseKind::kStaticCacheDrop) {
          // One permanent swap-out whose size varies per node, mimicking the
          // per-node cache-miss-rate spread of Fig. 3c.
          opt.drop_fraction_per_intensity =
              options_.cache_drop_fraction * (0.5 + 0.25 * (node % 5));
          opt.restore = false;
          schedule.push_back({0, options_.noise_horizon, 1});
        } else {
          opt.drop_fraction_per_intensity = options_.cache_drop_fraction;
          schedule = ec2.GenerateSchedule(node, options_.noise_horizon);
        }
        cache_noise.push_back(std::make_unique<noise::CacheNoiseInjector>(
            n.sim(), &n.os(), std::move(schedule), opt,
            options_.seed ^ (0xCACEULL + static_cast<uint64_t>(node))));
        cache_noise.back()->Start();
      }
      break;
    case NoiseKind::kRotating:
      for (int node = 0; node < options_.num_nodes; ++node) {
        std::vector<noise::NoiseEpisode> schedule;
        for (TimeNs t = 0; t < options_.noise_horizon;
             t += options_.rotate_period * options_.num_nodes) {
          schedule.push_back({t + node * options_.rotate_period, options_.rotate_period, 4});
        }
        make_io_injector(node, std::move(schedule));
      }
      break;
    case NoiseKind::kMacroMix:
      for (int node = 0; node < options_.num_nodes; ++node) {
        kv::DocStoreNode& n = cluster.node(node);
        const int64_t file_size = 100LL << 30;
        const uint64_t file = n.os().CreateFile(file_size);
        workload::MacroWorkload::Options opt;
        opt.profile = static_cast<workload::MacroProfile>(node % 3);
        opt.threads = 3;
        opt.pid = 8000 + node;
        macro_noise.push_back(std::make_unique<workload::MacroWorkload>(
            n.sim(), &n.os(), file, file_size, opt,
            options_.seed ^ (0x3ACULL + static_cast<uint64_t>(node))));
        macro_noise.back()->Start(options_.noise_horizon);
        if (node % 4 == 0) {
          workload::MacroWorkload::Options hopt;
          hopt.profile = workload::MacroProfile::kHadoop;
          hopt.threads = 2;
          hopt.pid = 8500 + node;
          macro_noise.push_back(std::make_unique<workload::MacroWorkload>(
              n.sim(), &n.os(), file, file_size, hopt,
              options_.seed ^ (0x4ADULL + static_cast<uint64_t>(node))));
          macro_noise.back()->Start(options_.noise_horizon);
        }
      }
      break;
  }
}

RunResult Experiment::Run(StrategyKind kind) {
  if (options_.access == kv::AccessPath::kLsm) {
    // These act on the flat data file, which a kLsm node does not create:
    // they would prefault or evict file id 0, the LSM's write-ahead log.
    if (options_.warm_fraction > 0) {
      throw std::invalid_argument("kLsm nodes have no data file to warm (warm_fraction)");
    }
    if (options_.noise == NoiseKind::kCacheDrop || options_.noise == NoiseKind::kStaticCacheDrop) {
      throw std::invalid_argument("kLsm nodes have no data file to drop from the cache");
    }
  }
  // Every world runs on a ShardedEngine; paper-scale worlds resolve to one
  // shard, which steps its events exactly like a standalone Simulator.
  const int num_shards = ResolveShards(options_);

  // Per-shard observability sinks, declared before the engine so every world
  // component is torn down before what it writes into. Merged in shard order
  // at harvest — the merge order is part of the determinism contract.
  std::vector<obs::MetricsRegistry> metrics(static_cast<size_t>(num_shards));
  std::vector<std::unique_ptr<obs::Tracer>> tracers(static_cast<size_t>(num_shards));

  const cluster::Cluster::Options copt = BuildClusterOptions(kind);

  sim::ShardedEngine::Options eopt;
  eopt.num_shards = num_shards;
  eopt.lookahead = cluster::MinOneWayHop(copt.network);
  eopt.workers = options_.intra_workers;
  sim::ShardedEngine engine(eopt);

  for (int s = 0; s < num_shards; ++s) {
    engine.shard(s)->set_metrics(&metrics[static_cast<size_t>(s)]);
    if (options_.trace) {
      auto& tracer = tracers[static_cast<size_t>(s)];
      tracer = std::make_unique<obs::Tracer>(options_.trace_capacity);
      // Shard-namespaced ids: no collisions, home shard readable from the id.
      tracer->SetRequestIdBase(static_cast<uint64_t>(s) << 40);
      engine.shard(s)->set_tracer(tracer.get());
    }
  }

  cluster::Cluster cluster(&engine, copt);
  if (options_.warm_fraction > 0) {
    cluster.WarmAll(options_.warm_fraction);
  }

  std::vector<std::unique_ptr<noise::IoNoiseInjector>> io_noise;
  std::vector<std::unique_ptr<noise::CacheNoiseInjector>> cache_noise;
  std::vector<std::unique_ptr<workload::MacroWorkload>> macro_noise;
  BuildNoise(cluster, io_noise, cache_noise, macro_noise);

  // Fault episodes mutate cross-shard state (network links, whole nodes), so
  // the injector schedules them as engine-global events (see
  // FaultInjector::ScheduleFaultEvent); it reads shard 0's clock and sinks.
  std::unique_ptr<fault::FaultInjector> faults;
  if (!options_.fault_plan.empty()) {
    faults = std::make_unique<fault::FaultInjector>(engine.shard(0), &cluster,
                                                    options_.fault_plan);
    faults->Start();
  }

  RunResult result;
  result.name = std::string(StrategyKindName(kind));

  // Each shard gets its own strategy instance (salted seed stream) and its
  // own harvest sinks; clients are dealt round-robin onto shards and drive
  // their home shard's strategy only, so all driver state is shard-local.
  // Replies are routed back to the request's home shard (see
  // client/strategy.cc), which makes every mutation below single-threaded
  // within a window.
  struct ShardCtx {
    std::unique_ptr<client::GetStrategy> strategy;
    LatencyRecorder get_latencies;
    LatencyRecorder user_latencies;
    uint64_t user_errors = 0;
    size_t completed = 0;
    std::vector<ClassAgg> class_aggs;  // Tenant runs: per-class, this shard.
    trace::TraceRecorder recorder;     // record_trace_path: this shard's arrivals.
    OracleHarvest oracle;              // harvest_oracles: this shard's counts.
  };
  std::vector<ShardCtx> shard_ctx(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shard_ctx[static_cast<size_t>(s)].strategy =
        MakeStrategy(kind, engine.shard(s), &cluster, static_cast<uint64_t>(s));
  }

  const uint64_t keyspace = static_cast<uint64_t>(options_.num_keys_per_node) *
                            static_cast<uint64_t>(options_.num_nodes);

  // --- Tenant world: one directory + placement map shared by all shards.
  // Shard threads read the map only inside windows; the controller writes it
  // only from quiesced ScheduleGlobal ticks (see src/tenant/placement.h).
  tenant::TenantDirectory directory;
  std::unique_ptr<tenant::PlacementMap> placement;
  std::unique_ptr<tenant::PlacementController> controller;
  if (options_.tenants.enabled) {
    tenant::MixOptions mix = options_.tenants.mix;
    mix.keyspace = keyspace;
    if (mix.classes.empty()) {
      mix.classes = tenant::TenantDirectory::DefaultClasses();
    }
    directory = tenant::TenantDirectory::BuildMix(mix);
    placement = std::make_unique<tenant::PlacementMap>(tenant::PlacementMap::Uniform(
        directory.num_tenants(), options_.num_nodes, std::min(3, options_.num_nodes),
        options_.seed ^ 0x9A7C));
    for (ShardCtx& ctx : shard_ctx) {
      ctx.strategy->set_placement(placement.get());
      ctx.class_aggs.resize(directory.num_classes());
    }
    if (options_.tenants.slo_aware) {
      controller = std::make_unique<tenant::PlacementController>(
          engine.shard(0), &directory, placement.get(), options_.num_nodes,
          MakeNodeProbe(&cluster), options_.tenants.controller);
      controller->Start();
    }
  }

  const bool recording = !options_.record_trace_path.empty();

  // One open-loop arrival on shard s: a Get whose latency counts from its
  // due time (open-loop drivers never wait for completions). Completions
  // route back to the issuing shard (see client/strategy.cc), keeping every
  // ShardCtx mutation shard-local.
  const auto open_loop_get = [&](int s, uint64_t key, const client::GetContext& gctx,
                                 bool measured) {
    sim::Simulator* sim = engine.shard(s);
    ShardCtx* ctx = &shard_ctx[static_cast<size_t>(s)];
    const TimeNs start = sim->Now();
    const tenant::TenantId t = gctx.tenant;
    ctx->strategy->Get(
        key, gctx,
        WrapOracleDone(options_.harvest_oracles ? &ctx->oracle : nullptr,
                       [sim, ctx, t, start, measured, &directory](const client::GetResult& r) {
                         const DurationNs latency = sim->Now() - start;
                         if (measured) {
                           ctx->get_latencies.Record(latency);
                           ctx->user_latencies.Record(latency);
                           if (t != tenant::kNoTenant) {
                             RecordTenantCompletion(directory, ctx->class_aggs, t, latency, r);
                           }
                         }
                         if (!r.status.ok() && !r.status.busy()) {
                           ++ctx->user_errors;
                         }
                         ++ctx->completed;
                       }));
  };
  // Open-loop runs end once every shard's driver has dispatched its last
  // arrival and every dispatched get has completed. The predicate runs
  // quiesced, so summing shard counters is race-free.
  const auto drained = [&](const auto& drivers) {
    uint64_t dispatched = 0;
    uint64_t completed = 0;
    bool all_done = true;
    for (int s = 0; s < num_shards; ++s) {
      all_done = all_done && drivers[static_cast<size_t>(s)]->done();
      dispatched += drivers[static_cast<size_t>(s)]->dispatched();
      completed += shard_ctx[static_cast<size_t>(s)].completed;
    }
    return all_done && completed >= dispatched;
  };

  if (options_.replay.enabled()) {
    // Open-loop replay, pre-partitioned per shard in trace order: every
    // shard owns its own cursor over the whole trace and claims the records
    // with stream % num_shards == s. The partition is a pure function of
    // the trace — worker count never moves an arrival, so scorecards stay
    // bit-identical across MITT_INTRA_WORKERS. With the tenant world on,
    // streams overlay onto tenants (stream % num_tenants) and each get
    // carries its class SLO.
    std::vector<std::unique_ptr<trace::TraceCursor>> cursors;
    std::vector<std::unique_ptr<trace::TraceReplayDriver>> drivers;
    for (int s = 0; s < num_shards; ++s) {
      cursors.push_back(MakeReplayCursor());
      trace::TraceReplayDriver::Options ropt;
      ropt.rate_scale = options_.replay.rate_scale;
      ropt.max_events = options_.replay.max_events;
      ropt.warmup_events = options_.replay.warmup_events;
      ropt.shard = s;
      ropt.num_shards = num_shards;
      drivers.push_back(std::make_unique<trace::TraceReplayDriver>(
          engine.shard(s), cursors.back().get(), ropt,
          [&, s](const trace::TraceEvent& event, uint64_t /*global_index*/, bool measured) {
            if (recording) {
              shard_ctx[static_cast<size_t>(s)].recorder.Record(
                  engine.shard(s)->Now(), event.offset, event.len, event.op, event.stream);
            }
            client::GetContext gctx;
            if (options_.tenants.enabled) {
              gctx.tenant = event.stream % directory.num_tenants();
              gctx.deadline = directory.slo_of(gctx.tenant);
            }
            open_loop_get(s, ReplayKeyFor(event.offset, event.stream, keyspace), gctx, measured);
          }));
      drivers.back()->Start();
    }
    engine.RunUntilPredicate([&] { return drained(drivers); });
    for (const auto& driver : drivers) {
      result.replay_events += driver->dispatched();
      result.replay_trace_reads += driver->reads_dispatched();
      result.replay_trace_writes += driver->writes_dispatched();
    }
  } else if (options_.tenants.enabled) {
    // Open-loop tenant mix, one driver per shard owning the deterministic
    // partition `tenant % num_shards == s` — the same contract as replay, so
    // scorecards stay bit-identical across MITT_INTRA_WORKERS.
    std::vector<std::unique_ptr<tenant::TenantLoadDriver>> drivers;
    for (int s = 0; s < num_shards; ++s) {
      tenant::TenantLoadDriver::Options dopt;
      dopt.warmup = options_.tenants.warmup;
      dopt.duration = options_.tenants.duration;
      dopt.shard = s;
      dopt.num_shards = num_shards;
      dopt.seed = options_.seed ^ 0x7E4A;
      drivers.push_back(std::make_unique<tenant::TenantLoadDriver>(
          engine.shard(s), &directory, dopt,
          [&, s](tenant::TenantId t, uint64_t key, bool measured) {
            if (recording) {
              shard_ctx[static_cast<size_t>(s)].recorder.Record(
                  engine.shard(s)->Now(), static_cast<int64_t>(key) << 12, 4096,
                  trace::kOpRead, t);
            }
            open_loop_get(s, key, client::GetContext{t, directory.slo_of(t)}, measured);
          }));
      drivers.back()->Start();
    }
    engine.RunUntilPredicate([&] { return drained(drivers); });
  } else {
    const size_t target = options_.warmup_requests + options_.measure_requests;
    const size_t num_clients = static_cast<size_t>(options_.num_clients);

    // Issue accounting. One shard: every client draws from one counter, so
    // warmup is the first warmup_requests issued world-wide. Shards cannot
    // share a counter without racing, so with several each client gets a
    // fixed quota (and warmup share) up front — a pure function of (client
    // count, request counts), so scorecards stay bit-identical across
    // MITT_INTRA_WORKERS.
    struct Quota {
      size_t total = 0;   // Requests drawn from this counter in all.
      size_t warmup = 0;  // The first `warmup` of them are unmeasured.
      size_t issued = 0;
    };
    std::vector<Quota> quotas;
    if (num_shards == 1) {
      quotas.push_back({target, options_.warmup_requests});
    } else {
      for (size_t c = 0; c < num_clients; ++c) {
        quotas.push_back({target / num_clients + (c < target % num_clients ? 1 : 0),
                          options_.warmup_requests / num_clients +
                              (c < options_.warmup_requests % num_clients ? 1 : 0)});
      }
    }
    struct Client {
      std::unique_ptr<workload::YcsbWorkload> workload;
      int shard = 0;
      Quota* quota = nullptr;
    };
    std::vector<Client> clients(num_clients);
    for (size_t c = 0; c < num_clients; ++c) {
      Client& cl = clients[c];
      workload::YcsbWorkload::Options wopt;
      wopt.num_keys = keyspace;
      wopt.distribution = options_.distribution;
      wopt.seed = options_.seed ^ (0xC0FFEEULL + static_cast<uint64_t>(c));
      cl.workload = std::make_unique<workload::YcsbWorkload>(wopt);
      cl.shard = static_cast<int>(c % static_cast<size_t>(num_shards));
      cl.quota = &quotas[num_shards == 1 ? 0 : c];
    }

    auto next_key = [&, this](Client& cl) -> uint64_t {
      for (int attempt = 0; attempt < 512; ++attempt) {
        const uint64_t key = cl.workload->Next().key;
        if (options_.pin_primary_node < 0 ||
            cluster.ReplicasOf(key)[0] == options_.pin_primary_node) {
          return key;
        }
      }
      return 0;
    };

    // Closed-loop driver; runs entirely on the client's home shard.
    auto issue = std::make_shared<std::function<void(size_t)>>();
    *issue = [&, issue](size_t client_idx) {
      Client& cl = clients[client_idx];
      Quota& quota = *cl.quota;
      if (quota.issued >= quota.total) {
        return;
      }
      const size_t request_index = quota.issued++;
      ShardCtx& ctx = shard_ctx[static_cast<size_t>(cl.shard)];
      sim::Simulator* sim = engine.shard(cl.shard);
      const TimeNs start = sim->Now();
      const bool measured = request_index >= quota.warmup;
      auto remaining = std::make_shared<int>(options_.scale_factor);
      for (int s = 0; s < options_.scale_factor; ++s) {
        const uint64_t key = next_key(cl);
        const TimeNs get_start = sim->Now();
        if (recording) {
          ctx.recorder.Record(get_start, static_cast<int64_t>(key) << 12, 4096,
                              trace::kOpRead, static_cast<uint32_t>(client_idx));
        }
        OracleHarvest* oracle = options_.harvest_oracles ? &ctx.oracle : nullptr;
        ctx.strategy->Get(key, {}, WrapOracleDone(oracle,
                               [&ctx, sim, issue, client_idx, start, get_start, measured,
                                remaining](const client::GetResult& get_result) {
          if (measured) {
            ctx.get_latencies.Record(sim->Now() - get_start);
          }
          if (!get_result.status.ok() && !get_result.status.busy()) {
            ++ctx.user_errors;
          }
          if (--*remaining > 0) {
            return;
          }
          if (measured) {
            ctx.user_latencies.Record(sim->Now() - start);
          }
          ++ctx.completed;
          (*issue)(client_idx);
        }));
      }
    };
    for (size_t c = 0; c < num_clients; ++c) {
      (*issue)(c);
    }

    // Quotas drain the driver naturally; the predicate ends the run as soon
    // as every request has completed — after that event on one shard, at the
    // next barrier on several — so daemons (noise streams, breaker probes)
    // cannot keep the engine alive.
    engine.RunUntilPredicate([&] {
      size_t completed = 0;
      for (const ShardCtx& ctx : shard_ctx) {
        completed += ctx.completed;
      }
      return completed >= target;
    });

    *issue = nullptr;  // Break the driver lambda's self-reference cycle.
  }

  for (const ShardCtx& ctx : shard_ctx) {
    result.requests += ctx.completed;
    result.user_errors += ctx.user_errors;
  }
  result.oracle.enabled = options_.harvest_oracles;
  for (ShardCtx& ctx : shard_ctx) {
    result.get_latencies.MergeFrom(ctx.get_latencies);
    result.user_latencies.MergeFrom(ctx.user_latencies);
    // Shard-order merge keeps the combined breaker log deterministic at any
    // MITT_INTRA_WORKERS (each shard's log is already in its own sim order).
    result.oracle.MergeFrom(ctx.oracle);
    CollectCounters(kind, *ctx.strategy, &result);
  }
  if (options_.tenants.enabled) {
    std::vector<ClassAgg> merged(directory.num_classes());
    for (ShardCtx& ctx : shard_ctx) {
      for (uint32_t c = 0; c < directory.num_classes(); ++c) {
        ClassAgg& m = merged[c];
        ClassAgg& a = ctx.class_aggs[c];
        m.requests += a.requests;
        m.deadline_miss += a.deadline_miss;
        m.failovers += a.failovers;
        m.errors += a.errors;
        m.latencies.MergeFrom(a.latencies);
      }
    }
    HarvestTenants(directory, merged, controller.get(), &result);
    ValidatePlacement(*placement, options_.num_nodes,
                      options_.harvest_oracles ? &result.oracle : nullptr);
  }
  if (recording) {
    trace::TraceRecorder merged;
    for (const ShardCtx& ctx : shard_ctx) {
      merged.MergeFrom(ctx.recorder);
    }
    std::string error;
    if (!merged.WriteTo(options_.record_trace_path, &error)) {
      throw std::runtime_error("record trace: " + error);
    }
    result.recorded_events = merged.records();
  }
  for (const auto& injector : io_noise) {
    result.noise_ios += injector->ios_issued();
  }
  result.sim_duration = engine.Now();
  result.sim_events = engine.executed_events();
  result.num_shards = num_shards;
  result.engine_windows = engine.windows_run();
  result.engine_fused_windows = engine.fused_windows();
  result.cross_shard_messages = engine.cross_shard_messages();
  result.events_per_window_p50 = engine.events_per_window_percentile(50);
  result.events_per_window_p99 = engine.events_per_window_percentile(99);
  for (const int w : {1, 2, 4, 8, 16, 32}) {
    if (const uint64_t cp = engine.critical_path_events(w); cp != 0) {
      result.critical_path.emplace_back(w, cp);
    }
    if (const double r = engine.imbalance_ratio(w); r != 0) {
      result.imbalance.emplace_back(w, r);
    }
  }
  if (faults != nullptr) {
    result.fault_log = faults->applied();
    result.fault_episodes = faults->episodes_begun();
    result.fault_skipped = faults->episodes_skipped();
  }
  if (options_.trace) {
    std::vector<const obs::Tracer*> shard_tracers;
    shard_tracers.reserve(tracers.size());
    for (const auto& tracer : tracers) {
      shard_tracers.push_back(tracer.get());
      result.trace_dropped += tracer->dropped();
    }
    result.trace_spans = obs::MergeShardSpans(shard_tracers);
  }
  // Shard 0's registry moves in (merging into an empty registry would copy
  // every histogram sample while the world is still alive).
  result.metrics = std::move(metrics[0]);
  for (size_t s = 1; s < metrics.size(); ++s) {
    result.metrics.MergeFrom(metrics[s]);
  }
  return result;
}

std::vector<RunResult> Experiment::RunAll(const std::vector<StrategyKind>& kinds) {
  std::vector<RunResult> results;
  RunResult base = Run(StrategyKind::kBase);
  derived_p95_ = base.get_latencies.Percentile(95);
  if (derived_p95_ <= 0) {
    derived_p95_ = kFallbackDeadline;
  }
  if (options_.deadline < 0) {
    options_.deadline = derived_p95_;
  }
  if (options_.hedge_delay < 0) {
    options_.hedge_delay = derived_p95_;
  }
  if (options_.app_timeout < 0) {
    options_.app_timeout = derived_p95_;
  }
  for (const StrategyKind kind : kinds) {
    if (kind == StrategyKind::kBase) {
      results.push_back(std::move(base));
      continue;
    }
    results.push_back(Run(kind));
  }
  return results;
}

void PrintPercentileTable(const std::vector<RunResult>& results,
                          const std::vector<double>& percentiles, bool user_level) {
  std::vector<std::string> header = {"pct"};
  for (const auto& r : results) {
    header.push_back(r.name + " (ms)");
  }
  Table table(std::move(header));
  // One sorted pass per result instead of one per table cell.
  std::vector<std::vector<DurationNs>> columns;
  columns.reserve(results.size());
  for (const auto& r : results) {
    const auto& rec = user_level ? r.user_latencies : r.get_latencies;
    columns.push_back(rec.Percentiles(percentiles));
  }
  for (size_t pi = 0; pi < percentiles.size(); ++pi) {
    const double p = percentiles[pi];
    std::vector<std::string> row = {"p" + Table::Num(p, p == static_cast<int>(p) ? 0 : 1)};
    for (const auto& column : columns) {
      row.push_back(Table::Num(ToMillis(column[pi]), 2));
    }
    table.AddRow(std::move(row));
  }
  {
    std::vector<std::string> row = {"avg"};
    for (const auto& r : results) {
      const auto& rec = user_level ? r.user_latencies : r.get_latencies;
      row.push_back(Table::Num(rec.MeanNs() / kMillisecond, 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

void PrintReductionTable(const RunResult& mitt, const std::vector<RunResult>& others,
                         const std::vector<double>& percentiles, bool user_level) {
  std::vector<std::string> header = {"vs"};
  for (const double p : percentiles) {
    header.push_back("p" + Table::Num(p, 0) + " (%)");
  }
  header.push_back("avg (%)");
  Table table(std::move(header));
  const auto& mitt_rec = user_level ? mitt.user_latencies : mitt.get_latencies;
  const std::vector<DurationNs> mitt_ps = mitt_rec.Percentiles(percentiles);
  for (const auto& other : others) {
    const auto& other_rec = user_level ? other.user_latencies : other.get_latencies;
    const std::vector<DurationNs> other_ps = other_rec.Percentiles(percentiles);
    std::vector<std::string> row = {other.name};
    for (size_t pi = 0; pi < percentiles.size(); ++pi) {
      row.push_back(Table::Num(ReductionPercent(mitt_ps[pi], other_ps[pi]), 1));
    }
    row.push_back(Table::Num(ReductionPercent(mitt_rec.MeanNs(), other_rec.MeanNs()), 1));
    table.AddRow(std::move(row));
  }
  table.Print();
}

}  // namespace mitt::harness
