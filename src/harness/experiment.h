// Shared experiment driver used by the benchmark binaries and examples.
//
// An Experiment describes one of the paper's evaluation setups: a cluster of
// DocStore nodes on a chosen backend (disk+CFQ, disk+noop, SSD, or cache-
// resident data) and access path (MongoDB's mmap or read, or LevelDB under a
// Riak ring), a noise regime (EC2 replay, continuous one-node noise,
// cache drops, rotating contention, or macro workload mixes), and a YCSB
// client population with a scale factor. Run(kind) builds a *fresh* world
// with identical seeds for every strategy, so CDFs are comparable point by
// point — the simulated analogue of the paper's noise replays (§7.2).
//
// Methodology detail preserved from the paper: deadline, timeout, and hedge
// values all default to the p95 latency observed on a Base run with the same
// seeds ("we use 13ms, the p95 latency, for deadline and timeout values").

#ifndef MITTOS_HARNESS_EXPERIMENT_H_
#define MITTOS_HARNESS_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/client/resilient.h"
#include "src/client/strategy.h"
#include "src/cluster/cluster.h"
#include "src/common/latency_recorder.h"
#include "src/fault/fault_plan.h"
#include "src/kv/doc_store_node.h"
#include "src/noise/ec2_noise.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/os/os.h"
#include "src/tenant/controller.h"
#include "src/trace/cursor.h"
#include "src/workload/ycsb.h"

namespace mitt::noise {
class IoNoiseInjector;
class CacheNoiseInjector;
}  // namespace mitt::noise
namespace mitt::workload {
class MacroWorkload;
}  // namespace mitt::workload

namespace mitt::harness {

enum class NoiseKind {
  kNone,
  kEc2,           // Per-node EC2-style bursty episodes (IO noise).
  kContinuous,    // One node under constant contention (§7.1 micro).
  kCacheDrop,       // Episodic page-cache eviction (transient balloons).
  kStaticCacheDrop, // One-time swap-out of a per-node fraction (§7.1, §7.4:
                    // "we swapped out P% of the cached data ... manual
                    // swapping"). No restore; faults heal pages on access.
  kRotating,      // 1-busy/(N-1)-free rotating every period (§7.8.3, §2).
  kMacroMix,      // filebench + Hadoop tenants on every node (§7.8.1).
};

enum class StrategyKind {
  kBase,
  kAppTimeout,
  kClone,
  kHedged,
  kSnitch,
  kC3,
  kMittos,
  kMittosWait,       // §7.8.1 extension: EBUSY carries the predicted wait.
  kMittosResilient,  // src/resilience/: budgeted, health-ordered, gated failover.
};

std::string_view StrategyKindName(StrategyKind kind);

struct ExperimentOptions {
  // Topology & workload.
  int num_nodes = 20;
  int num_clients = 20;
  int scale_factor = 1;  // SF parallel gets per user request (§7.3).
  size_t measure_requests = 12000;
  size_t warmup_requests = 400;
  workload::KeyDistribution distribution = workload::KeyDistribution::kUniform;
  int64_t num_keys_per_node = 1 << 21;  // 8 GB of 4 KB slots on disk nodes.
  // Pin all keys so their primary replica is this node (micro experiments
  // direct all gets at the noisy node); -1 disables.
  int pin_primary_node = -1;

  // Node / OS configuration.
  os::BackendKind backend = os::BackendKind::kDiskCfq;
  // kLsm builds the §5 Riak world: LevelDB nodes, gets through the client
  // strategies. It has no flat data file, so Run() throws
  // std::invalid_argument for warm_fraction > 0 and the cache-drop noises.
  kv::AccessPath access = kv::AccessPath::kRead;
  size_t cache_pages = 1 << 17;  // 512 MB page cache.
  double warm_fraction = 0.0;
  int cpu_cores = 8;
  int shared_cpu_cores = 0;  // >0: all nodes share one CPU pool (§7.5).
  DurationNs handler_cpu = Micros(30);  // Per-request handler CPU burst.
  os::PredictorOptions predictor;
  os::MittCfqOptions mitt_cfq;
  os::MittSsdOptions mitt_ssd;

  // SLO / strategy parameters. Values <0 mean "derive from the Base run's
  // p95" via RunAll().
  DurationNs deadline = -2;
  DurationNs hedge_delay = -2;
  DurationNs app_timeout = -2;
  bool app_timeout_failover = true;

  // Observability (src/obs/). Metrics are always collected (near-free);
  // span tracing is opt-in because a traced run records a span per layer per
  // request. Both are inert when the obs subsystem is compiled out.
  bool trace = false;
  size_t trace_capacity = obs::Tracer::kDefaultCapacity;

  // Noise.
  NoiseKind noise = NoiseKind::kEc2;
  noise::Ec2NoiseParams ec2;
  int64_t noise_io_size = 1 << 20;
  sched::IoOp noise_op = sched::IoOp::kRead;
  sched::IoClass noise_class = sched::IoClass::kBestEffort;
  int8_t noise_priority = 4;
  int noise_streams = 2;            // Streams per intensity unit.
  int continuous_intensity = 2;     // Intensity for kContinuous.
  // kContinuous default targets ONE node (the pinned primary); this floods
  // every node instead — the all-replicas-busy world the degraded path is
  // judged on.
  bool continuous_all_nodes = false;
  int noise_only_node = -1;         // >=0: restrict noise to this node.
  double cache_drop_fraction = 0.2;
  DurationNs rotate_period = Seconds(1);
  TimeNs noise_horizon = Seconds(120);

  // Faults (src/fault/). An empty plan injects nothing. Like noise, the same
  // plan replays identically for every strategy so CDFs stay comparable.
  fault::FaultPlan fault_plan;

  // --- Open-loop trace replay (src/trace/) ---
  // When enabled(), the closed-loop YCSB driver is replaced by a
  // TraceReplayDriver: every trace arrival becomes one client Get through
  // the full client -> kv -> OS stack at its (rate-scaled) arrival time,
  // and measure/warmup_requests are ignored in favor of the trace's own
  // event counts. Offsets map onto the experiment keyspace via
  // ReplayKeyFor(); arrivals are pre-partitioned per shard in trace order
  // (stream % num_shards), so results stay bit-identical at any
  // MITT_TRIAL_WORKERS x MITT_INTRA_WORKERS.
  struct ReplayConfig {
    // On-disk columnar trace (trace_tool import-csv / gen output).
    std::string trace_path;
    // Or a synthetic paper trace: index into workload::PaperTraceProfiles()
    // (-1 = none). Ignored when trace_path is set.
    int synthetic_profile = -1;
    DurationNs synthetic_duration = Seconds(60);
    // Arrival compression (>1 = denser); same convention as the accuracy
    // benches: scaled arrival = at / rate_scale.
    double rate_scale = 1.0;
    uint64_t max_events = 0;     // 0 = the whole trace.
    uint64_t warmup_events = 0;  // Leading events dispatched unmeasured.

    bool enabled() const { return !trace_path.empty() || synthetic_profile >= 0; }
  };
  ReplayConfig replay;

  // --- Multi-tenant SLO classes (src/tenant/) ---
  // When enabled, the world gets a TenantDirectory (mix.num_tenants tenants
  // over gold/silver/bronze-style SLO classes), a tenant->replica
  // PlacementMap attached to every strategy, and per-tenant accounting on
  // every node. The workload becomes open-loop TenantLoadDrivers (one per
  // shard, partition `tenant % num_shards`) unless replay is also enabled —
  // then the trace drives arrivals and streams overlay onto tenants via
  // `stream % num_tenants`. Each get carries the tenant's class SLO as its
  // deadline; completions are harvested per class into
  // RunResult::tenant_classes.
  struct TenantConfig {
    bool enabled = false;
    // mix.keyspace is overridden with the experiment keyspace.
    tenant::MixOptions mix;
    // Run the PlacementController: probe per-node predictor aggregates +
    // breaker state each period and migrate tenants off hot nodes. Off =
    // naive uniform placement for the whole run (the bench baseline).
    bool slo_aware = false;
    tenant::PlacementControllerOptions controller;
    DurationNs warmup = Millis(300);   // Arrivals before this are unmeasured.
    DurationNs duration = Seconds(2);  // Measured arrival window.
  };
  TenantConfig tenants;

  // When set, every live arrival (replay, tenant, or closed-loop YCSB) is
  // captured and written back out as a v1 columnar trace at this path when
  // the run completes — `trace_tool record`'s underlying hook. Sharded runs
  // merge per-shard recorders in shard order and sort by arrival time, so
  // the file is bit-identical at any worker count.
  std::string record_trace_path;

  // Resilience knobs for StrategyKind::kMittosResilient (deadline comes from
  // `deadline` above; the name/deadline fields here are overridden).
  client::ResilientOptions resilience;

  // --- Intra-trial sharding (src/sim/sharded_engine.h) ---
  // Shard count for the conservative-PDES engine every world runs on. 0 =
  // auto: 1 below 64 nodes (one shard steps event by event: no windows, no
  // barriers), otherwise ~num_nodes/32 capped at 32. Must stay a pure
  // function of the scenario — NEVER derive it from worker count or
  // hardware, or bit-identity across MITT_INTRA_WORKERS dies. Forced to 1
  // when shared_cpu_cores > 0 (a shared CPU pool is cross-shard state).
  int num_shards = 0;
  // Threads driving shard windows inside ONE trial. 0 = $MITT_INTRA_WORKERS
  // (default 1). Any value produces bit-identical results; it composes with
  // MITT_TRIAL_WORKERS (total threads ~= product, so split the budget).
  int intra_workers = 0;

  // Per-trial invariant-oracle harvest (src/chaos/): wrap every issued get
  // with exactly-once / conservation accounting, record breaker transitions,
  // and validate the placement map after the run. Off by default — the wrap
  // allocates a per-get latch, which the hot benches must not pay.
  bool harvest_oracles = false;

  uint64_t seed = 42;
};

// The shard count Run() will actually use (auto resolution above).
int ResolveShards(const ExperimentOptions& options);

// Ground truth for the chaos-search invariant oracles, collected when
// ExperimentOptions::harvest_oracles is on. Every get issued by the driver is
// wrapped: the wrapper counts the issue, the first completion (split by
// status), and any *extra* completion (the exactly-once violation). A run
// that drains with gets_done < gets_issued lost a get — the liveness
// violation the PR 5 denied-retry hang produced. Sharded runs merge
// per-shard harvests in shard order, so the harvest itself is bit-identical
// at any worker grid.
struct OracleHarvest {
  bool enabled = false;
  uint64_t gets_issued = 0;
  uint64_t gets_done = 0;            // First completions only.
  uint64_t gets_done_duplicate = 0;  // Completions past the first (must be 0).
  uint64_t done_ok = 0;
  uint64_t done_busy = 0;
  uint64_t done_exhausted = 0;
  uint64_t done_error = 0;  // Everything else (timeout, unavailable, ...).
  // ResilientMittosStrategy::budget_regressions() summed over shards.
  uint64_t budget_regressions = 0;
  // Breaker transition log in shard order (resilient strategy only). Each
  // shard owns an independent health tracker, so the concatenated log holds
  // one complete chain per tracker: breaker_segments marks where each
  // tracker's chain begins, and per-replica legality resets at every
  // segment start (every tracker starts all replicas at closed).
  std::vector<resilience::BreakerTransition> breaker_log;
  std::vector<size_t> breaker_segments;
  uint64_t breaker_log_dropped = 0;
  // Placement-map validity, checked after a tenant-enabled run.
  bool placement_ok = true;
  std::string placement_detail;

  void MergeFrom(const OracleHarvest& other);
};

// Per-SLO-class harvest of a tenant-enabled run: one entry per class in
// directory order. deadline_miss counts measured completions slower than the
// class SLO (the per-class tail the placement controller defends);
// failovers counts extra server contacts (EBUSY rejects / timeouts that
// moved the get to another replica).
struct TenantClassStats {
  std::string name;
  DurationNs slo = 0;
  uint32_t tenants = 0;  // Tenants belonging to this class.
  uint64_t requests = 0;
  uint64_t deadline_miss = 0;
  uint64_t failovers = 0;
  uint64_t errors = 0;
  LatencyRecorder latencies;
};

struct RunResult {
  std::string name;
  LatencyRecorder user_latencies;  // One sample per user request (max of SF gets).
  LatencyRecorder get_latencies;   // One sample per individual get.
  uint64_t requests = 0;
  uint64_t ebusy_failovers = 0;
  uint64_t hedges_sent = 0;
  uint64_t timeouts_fired = 0;
  uint64_t user_errors = 0;  // Timeout surfaced to the user (no failover).
  uint64_t noise_ios = 0;    // IOs the noise injectors issued during the run.
  TimeNs sim_duration = 0;

  // Engine harvest: total simulator events executed (summed over shards),
  // plus — for runs on two or more shards — window and mailbox counters.
  // events/s on sim_events is what bench_scalecore reports.
  uint64_t sim_events = 0;
  int num_shards = 1;
  uint64_t engine_windows = 0;
  // Windows with a single ready shard, run inline on the coordinator (no
  // pool handoff); engine_windows - engine_fused_windows = multi-shard
  // windows.
  uint64_t engine_fused_windows = 0;
  uint64_t cross_shard_messages = 0;
  // Executed events per window, approximate percentiles from the engine's
  // log-bucket histogram (0 for one-shard runs, which open no windows).
  double events_per_window_p50 = 0;
  double events_per_window_p99 = 0;
  // (workers, critical-path events) pairs under the engine's adaptive
  // shard->worker maps: sim_events / cp is the ideal w-core speedup,
  // deterministic and host-independent (see
  // ShardedEngine::critical_path_events()).
  std::vector<std::pair<int, uint64_t>> critical_path;
  // Whole-run per-worker executed-event imbalance (max/mean, 1.0 = perfect)
  // per hypothetical worker count, under the same maps.
  std::vector<std::pair<int, double>> imbalance;

  // Resilience harvest (src/resilience/). For naive strategies,
  // unbounded_deadline_tries counts deadline-disabled last-try sends; the
  // resilient strategy keeps it at 0 and reports its largest sent deadline
  // instead (the boundedness proof).
  uint64_t degraded_gets = 0;
  uint64_t degraded_sheds = 0;
  uint64_t deadline_exhausted = 0;
  uint64_t retry_denied = 0;
  uint64_t unbounded_deadline_tries = 0;
  DurationNs max_sent_deadline = 0;

  // Replay harvest (src/trace/): open-loop arrivals dispatched, split by the
  // trace's own op column (both dispatch as Gets; the split is bookkeeping).
  uint64_t replay_events = 0;
  uint64_t replay_trace_reads = 0;
  uint64_t replay_trace_writes = 0;

  // Tenant harvest (src/tenant/): per-class stats merged in shard order,
  // plus the placement controller's counters (0 when slo_aware is off).
  std::vector<TenantClassStats> tenant_classes;
  uint64_t tenant_requests = 0;  // Measured tenant completions, all classes.
  uint64_t tenant_migrations = 0;
  uint64_t controller_ticks = 0;
  uint64_t controller_hot_ticks = 0;
  uint64_t breaker_opens = 0;

  // Trace recorder harvest (`record_trace_path`): arrivals written back out.
  uint64_t recorded_events = 0;

  // Fault harvest (src/fault/): episodes fully applied during the run, in
  // clear order — the determinism check compares these across worker counts.
  std::vector<fault::AppliedEpisode> fault_log;
  uint64_t fault_episodes = 0;
  uint64_t fault_skipped = 0;

  // Oracle harvest (chaos search): populated when harvest_oracles is on.
  OracleHarvest oracle;

  // Observability harvest (src/obs/): the run's metrics registry, plus — for
  // traced runs — the span buffer oldest-to-newest. Trial-order merging keeps
  // traces bit-identical at any MITT_TRIAL_WORKERS setting.
  obs::MetricsRegistry metrics;
  std::vector<obs::SpanRecord> trace_spans;
  uint64_t trace_dropped = 0;
};

// Compressed EC2 noise preset: same per-node busy fraction and sub-second
// burstiness as §6, but with shorter quiet gaps so a few simulated minutes of
// workload meet enough episodes for stable p95-p99 statistics.
noise::Ec2NoiseParams CompressedEc2Noise();

class Experiment {
 public:
  explicit Experiment(const ExperimentOptions& options) : options_(options) {}

  // Builds a fresh cluster+noise world on a sim::ShardedEngine with
  // ResolveShards() shards and drives the workload through the given
  // strategy. Nodes and clients are spread over the shards; one shard is the
  // paper-scale case.
  RunResult Run(StrategyKind kind);

  // Runs Base first, derives p95-based deadline/hedge/timeout when those are
  // negative, then runs the remaining kinds. Results are in input order with
  // Base first.
  std::vector<RunResult> RunAll(const std::vector<StrategyKind>& kinds);

  const ExperimentOptions& options() const { return options_; }
  DurationNs derived_p95() const { return derived_p95_; }

  // The deterministic trace-offset -> keyspace mapping the replay driver
  // uses: block number plus a per-stream golden-ratio displacement, mod the
  // keyspace — per-stream sequential runs survive, streams don't collide.
  static uint64_t ReplayKeyFor(int64_t offset, uint32_t stream, uint64_t keyspace);

 private:
  struct World;

  cluster::Cluster::Options BuildClusterOptions(StrategyKind kind) const;
  // Builds the noise regime against each node's own shard.
  void BuildNoise(cluster::Cluster& cluster,
                  std::vector<std::unique_ptr<noise::IoNoiseInjector>>& io_noise,
                  std::vector<std::unique_ptr<noise::CacheNoiseInjector>>& cache_noise,
                  std::vector<std::unique_ptr<workload::MacroWorkload>>& macro_noise);
  // One fresh cursor over the configured replay source (each shard owns its
  // own). Throws std::runtime_error if the trace cannot be opened.
  std::unique_ptr<trace::TraceCursor> MakeReplayCursor() const;
  // `seed_salt` decorrelates per-shard strategy instances; shard 0 (salt 0)
  // uses the unsalted stream.
  std::unique_ptr<client::GetStrategy> MakeStrategy(StrategyKind kind, sim::Simulator* sim,
                                                    cluster::Cluster* cluster,
                                                    uint64_t seed_salt = 0);
  // Accumulates (+=) so per-shard strategy instances sum into one result.
  void CollectCounters(StrategyKind kind, const client::GetStrategy& strategy, RunResult* out);

  ExperimentOptions options_;
  DurationNs derived_p95_ = 0;
};

// --- Deterministic parallel trial runner ---
//
// Multi-trial benches (Fig. 4/6/9, all-in-one) run many independent
// simulations: each trial owns its own Simulator and RNG seeds, so trials
// are embarrassingly parallel. RunTrials fans trial indices out across a
// worker pool (atomic work queue over std::thread) and merges results *in
// trial order*, so the merged output is bit-identical to a serial run —
// worker count only changes wall-clock time, never results.
//
// Determinism contract: the trial function must derive all randomness from
// its trial index / captured options (no shared mutable state, no wall
// clock). Everything under src/ follows this already — every component owns
// an Rng seeded from the experiment seed.

// Worker count used when `workers <= 0`: $MITT_TRIAL_WORKERS if set,
// otherwise std::thread::hardware_concurrency().
int DefaultTrialWorkers();

namespace internal {
// Runs body(0), ..., body(n-1) across the pool; with an effective worker
// count of 1 runs inline, in index order. Rethrows the first trial
// exception after all workers join.
void RunTrialsIndexed(size_t n, int workers, const std::function<void(size_t)>& body);
}  // namespace internal

template <typename T>
std::vector<T> RunTrials(size_t num_trials, const std::function<T(size_t)>& trial,
                         int workers = 0) {
  std::vector<T> results(num_trials);
  internal::RunTrialsIndexed(num_trials, workers,
                             [&](size_t i) { results[i] = trial(i); });
  return results;
}

// The common bench pattern: one fresh Experiment world per (options,
// strategy) pair, all fanned out together.
struct Trial {
  ExperimentOptions options;
  StrategyKind kind = StrategyKind::kBase;
  std::string rename;  // Optional RunResult name override (e.g. "NoNoise").
};
std::vector<RunResult> RunTrialsParallel(const std::vector<Trial>& trials, int workers = 0);

// Prints a paper-style CDF comparison (one column per result, rows at fixed
// percentiles) plus the %-reduction table of Fig. 5b/6d.
void PrintPercentileTable(const std::vector<RunResult>& results,
                          const std::vector<double>& percentiles, bool user_level);
void PrintReductionTable(const RunResult& mitt, const std::vector<RunResult>& others,
                         const std::vector<double>& percentiles, bool user_level);

}  // namespace mitt::harness

#endif  // MITTOS_HARNESS_EXPERIMENT_H_
