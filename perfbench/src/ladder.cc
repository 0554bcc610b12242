#include "perfbench/src/ladder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/client/mittos_client.h"
#include "src/client/resilient.h"
#include "src/cluster/cluster.h"
#include "src/cluster/network.h"
#include "src/device/disk_model.h"
#include "src/device/ssd_model.h"
#include "src/fault/injector.h"
#include "src/kv/doc_store_node.h"
#include "src/noise/noise_injector.h"
#include "src/os/mitt_cfq.h"
#include "src/os/mitt_ssd.h"
#include "src/os/os.h"
#include "src/os/page_cache.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"
#include "src/tenant/placement.h"
#include "src/tenant/tenant.h"
#include "src/trace/cursor.h"
#include "src/trace/replay.h"
#include "src/workload/macro_workload.h"
#include "src/workload/ycsb.h"

namespace perfbench {

using namespace mitt;

namespace {

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr uint32_t kNoSpan = UINT32_MAX;
enum class Layer : uint8_t { kOs = 1, kKv = 2, kClient = 3 };

// 32 bytes, written out as is (see WriteSpans).
struct Span {
  uint64_t get_id = 0;
  uint32_t parent = kNoSpan;  // Index of the parent span in the same log.
  uint8_t layer = 0;
  uint8_t reply = 0;  // 0: call into the layer, 1: reply callback.
  uint16_t reserved = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};
static_assert(sizeof(Span) == 32);

// Per-shard driver state and span log; only that shard's thread touches it
// while the engine runs.
struct ShardLog {
  bool tracing = false;
  std::vector<Span> spans;
  uint64_t next_get = 0;
  uint64_t completed = 0;
  double pending_sum = 0;
  uint64_t pending_samples = 0;
  double depth_sum = 0;
  uint64_t depth_samples = 0;

  uint32_t Open(uint64_t get_id, uint32_t parent, Layer layer, bool reply) {
    if (!tracing) {
      return kNoSpan;
    }
    spans.push_back(Span{get_id, parent, static_cast<uint8_t>(layer),
                         static_cast<uint8_t>(reply), 0, HostNs(), 0});
    return static_cast<uint32_t>(spans.size() - 1);
  }
  void Close(uint32_t span) {
    if (span != kNoSpan) {
      spans[span].end_ns = HostNs();
    }
  }
};

// One engine for a rung: the legacy single simulator, or the sharded engine
// with the workload's shard and worker counts.
class Rig {
 public:
  Rig(const Workload& w, bool tracing, uint64_t gets) {
    const int shards = std::max(1, w.options.num_shards);
    if (shards > 1) {
      sim::ShardedEngine::Options eo;
      eo.num_shards = shards;
      eo.lookahead = cluster::MinOneWayHop(cluster::NetworkParams{});
      eo.workers = w.options.intra_workers;
      engine_ = std::make_unique<sim::ShardedEngine>(eo);
    } else {
      single_ = std::make_unique<sim::Simulator>();
    }
    logs.resize(static_cast<size_t>(shards));
    for (ShardLog& log : logs) {
      log.tracing = tracing;
      if (tracing) {
        // Failovers add spans; reserve enough that the hot path never grows,
        // and touch it here so the rung's timing pays no page faults for it.
        log.spans.resize(static_cast<size_t>(gets * 8 / static_cast<uint64_t>(shards)) + 1024);
        log.spans.clear();
      }
    }
  }

  int shards() const { return static_cast<int>(logs.size()); }
  sim::Simulator* shard(int s) { return engine_ ? engine_->shard(s) : single_.get(); }
  sim::ShardedEngine* engine() { return engine_.get(); }
  // Contiguous node blocks per shard, as cluster::Cluster places them.
  int ShardOfNode(int node, int num_nodes) const {
    return static_cast<int>(static_cast<int64_t>(node) * shards() / num_nodes);
  }

  void RunUntil(const std::function<bool()>& pred) {
    if (engine_) {
      engine_->RunUntilPredicate(pred);
    } else {
      single_->RunUntilPredicate(pred);
    }
  }
  void RunAll() {
    if (engine_) {
      engine_->Run();
    } else {
      single_->Run();
    }
  }
  uint64_t completed() const {
    uint64_t total = 0;
    for (const ShardLog& log : logs) {
      total += log.completed;
    }
    return total;
  }

  std::vector<ShardLog> logs;

 private:
  std::unique_ptr<sim::Simulator> single_;
  std::unique_ptr<sim::ShardedEngine> engine_;
};

uint64_t Keyspace(const Workload& w) {
  return static_cast<uint64_t>(w.options.num_keys_per_node) *
         static_cast<uint64_t>(w.options.num_nodes);
}

int Replication(const Workload& w) { return std::min(3, w.options.num_nodes); }

tenant::TenantDirectory MakeDirectory(const Workload& w) {
  tenant::MixOptions mix = w.options.tenants.mix;
  mix.keyspace = Keyspace(w);
  if (mix.classes.empty()) {
    mix.classes = tenant::TenantDirectory::DefaultClasses();
  }
  return tenant::TenantDirectory::BuildMix(mix);
}

// The node recipe Experiment hands to every DocStoreNode.
kv::DocStoreNode::Options NodeOptions(const Workload& w) {
  const harness::ExperimentOptions& o = w.options;
  kv::DocStoreNode::Options n;
  n.num_keys = o.num_keys_per_node;
  n.access = o.access;
  n.cpu_cores = o.cpu_cores;
  n.handler_cpu = o.handler_cpu;
  n.os.backend = o.backend;
  n.os.cache.capacity_pages = o.cache_pages;
  n.os.mitt_enabled = true;  // Every workload runs a MittOS strategy.
  n.os.predictor = o.predictor;
  n.os.mitt_cfq = o.mitt_cfq;
  n.os.mitt_ssd = o.mitt_ssd;
  n.os.seed = o.seed;
  if (o.tenants.enabled) {
    n.tenant_slots = o.tenants.mix.num_tenants;
  }
  return n;
}

// The Os a DocStoreNode builds for itself.
os::OsOptions NodeOsOptions(const Workload& w, int node) {
  os::OsOptions os = NodeOptions(w).os;
  os.seed ^= static_cast<uint64_t>(node) * 0x1000'0001ULL;
  os.node_label = node;
  return os;
}

// The workload's noise on one node, with Experiment's seeds.
struct Noise {
  std::vector<std::unique_ptr<noise::IoNoiseInjector>> io;
  std::vector<std::unique_ptr<workload::MacroWorkload>> macro;

  uint64_t ios() const {
    uint64_t total = 0;
    for (const auto& i : io) {
      total += i->ios_issued();
    }
    for (const auto& m : macro) {
      total += m->ios_issued();
    }
    return total;
  }

  void Attach(const harness::ExperimentOptions& o, int node, sim::Simulator* sim, os::Os* os) {
    switch (o.noise) {
      case harness::NoiseKind::kMacroMix: {
        const int64_t file_size = 100LL << 30;
        const uint64_t file = os->CreateFile(file_size);
        workload::MacroWorkload::Options mo;
        mo.profile = static_cast<workload::MacroProfile>(node % 3);
        mo.threads = 3;
        mo.pid = 8000 + node;
        macro.push_back(std::make_unique<workload::MacroWorkload>(
            sim, os, file, file_size, mo, o.seed ^ (0x3ACULL + static_cast<uint64_t>(node))));
        macro.back()->Start(o.noise_horizon);
        if (node % 4 == 0) {
          workload::MacroWorkload::Options ho;
          ho.profile = workload::MacroProfile::kHadoop;
          ho.threads = 2;
          ho.pid = 8500 + node;
          macro.push_back(std::make_unique<workload::MacroWorkload>(
              sim, os, file, file_size, ho, o.seed ^ (0x4ADULL + static_cast<uint64_t>(node))));
          macro.back()->Start(o.noise_horizon);
        }
        break;
      }
      case harness::NoiseKind::kContinuous: {
        if (node != (o.pin_primary_node >= 0 ? o.pin_primary_node : 0)) {
          break;
        }
        const int64_t file_size = 200LL << 30;
        const uint64_t file = os->CreateFile(file_size);
        noise::IoNoiseInjector::Options no;
        no.io_size = o.noise_io_size;
        no.streams_per_intensity = o.noise_streams;
        no.op = o.noise_op;
        no.pid = 9000 + node;
        no.io_class = o.noise_class;
        no.priority = o.noise_priority;
        io.push_back(std::make_unique<noise::IoNoiseInjector>(
            sim, os, file, file_size,
            std::vector<noise::NoiseEpisode>{{0, o.noise_horizon, o.continuous_intensity}}, no,
            o.seed ^ (0x4015EULL + static_cast<uint64_t>(node))));
        io.back()->Start();
        break;
      }
      default:
        break;
    }
  }
};

using DoneFn = std::function<void()>;
// Starts one get in a rung: (shard, get id, key, context, completion).
using StartGetFn = std::function<void(int, uint64_t, uint64_t, const client::GetContext&, DoneFn)>;

// Drives the workload's load through `start`: closed-loop YCSB clients
// (same key streams as Experiment's driver) or the open-loop trace replay.
// Returns false if the rung stopped before every get completed.
bool Drive(Rig& rig, const Workload& w, uint64_t total, const StartGetFn& start) {
  if (w.options.num_clients == 0) {
    std::string error;
    auto cursor = trace::FileTraceCursor::Open(w.trace_path, &error);
    if (cursor == nullptr) {
      std::fprintf(stderr, "ladder: %s\n", error.c_str());
      return false;
    }
    const tenant::TenantDirectory directory = MakeDirectory(w);
    const uint64_t keyspace = Keyspace(w);
    trace::TraceReplayDriver::Options ro;
    ro.rate_scale = w.options.replay.rate_scale;
    ro.max_events = w.options.replay.max_events;
    ro.warmup_events = w.options.replay.warmup_events;
    ShardLog& log = rig.logs[0];
    trace::TraceReplayDriver driver(
        rig.shard(0), cursor.get(), ro,
        [&](const trace::TraceEvent& event, uint64_t /*index*/, bool /*measured*/) {
          client::GetContext ctx;
          ctx.tenant = event.stream % directory.num_tenants();
          ctx.deadline = directory.slo_of(ctx.tenant);
          start(0, log.next_get++,
                harness::Experiment::ReplayKeyFor(event.offset, event.stream, keyspace), ctx,
                [&log] { ++log.completed; });
        });
    driver.Start();
    rig.RunUntil([&] { return driver.done() && log.completed >= driver.dispatched(); });
    return driver.done() && log.completed == total;
  }

  struct Client {
    int shard = 0;
    uint64_t quota = 0;
    uint64_t issued = 0;
    std::unique_ptr<workload::YcsbWorkload> keys;
    ShardLog* log = nullptr;
    std::function<void(Client*)>* issue = nullptr;
  };
  const auto clients_n = static_cast<uint64_t>(w.options.num_clients);
  std::vector<Client> clients(clients_n);
  for (uint64_t c = 0; c < clients_n; ++c) {
    workload::YcsbWorkload::Options wo;
    wo.num_keys = Keyspace(w);
    wo.distribution = w.options.distribution;
    wo.seed = w.options.seed ^ (0xC0FFEEULL + c);
    clients[c].keys = std::make_unique<workload::YcsbWorkload>(wo);
    clients[c].shard = static_cast<int>(c % static_cast<uint64_t>(rig.shards()));
    clients[c].quota = total / clients_n + (c < total % clients_n ? 1 : 0);
  }
  // Completions capture one pointer, so the callback never allocates.
  std::function<void(Client*)> issue = [&](Client* cl) {
    if (cl->issued >= cl->quota) {
      return;
    }
    ++cl->issued;
    const uint64_t id = (static_cast<uint64_t>(cl->shard) << 40) | cl->log->next_get++;
    start(cl->shard, id, cl->keys->Next().key, client::GetContext{}, [cl] {
      ++cl->log->completed;
      (*cl->issue)(cl);
    });
  };
  for (Client& cl : clients) {
    cl.log = &rig.logs[static_cast<size_t>(cl.shard)];
    cl.issue = &issue;
    issue(&cl);
  }
  rig.RunUntil([&] { return rig.completed() >= total; });
  return rig.completed() == total;
}

// A MittOS-style replica walk for the rungs below the client: deadline on
// every try but the last, instant failover on EBUSY. Replicas are
// consecutive nodes inside the issuing shard's node block.
struct Walk {
  Rig* rig = nullptr;
  const Workload* w = nullptr;
  Layer layer = Layer::kOs;
  // Sends one try to `node`; the reply reports the status.
  std::function<void(int node, uint64_t key, DurationNs deadline, const client::GetContext& ctx,
                     std::function<void(Status)> reply)>
      send;

  void Attempt(int shard, uint64_t id, uint64_t key, const client::GetContext& ctx, int try_index,
               uint32_t parent, DoneFn done) {
    const int nodes = w->options.num_nodes;
    const int block = nodes / rig->shards();
    const int base = shard * block;
    const uint64_t mixed = key * 0x9E37'79B9'7F4A'7C15ULL;
    const int node = base + static_cast<int>((mixed % static_cast<uint64_t>(block) +
                                              static_cast<uint64_t>(try_index)) %
                                             static_cast<uint64_t>(block));
    const bool last = try_index + 1 >= std::min(Replication(*w), block);
    const DurationNs slo = ctx.deadline > 0 ? ctx.deadline : w->options.deadline;
    ShardLog& log = rig->logs[static_cast<size_t>(shard)];
    const uint32_t span = log.Open(id, parent, layer, false);
    send(node, key, last ? sched::kNoDeadline : slo, ctx,
         [this, shard, id, key, ctx, try_index, last, span, done](Status status) {
           if (status.busy() && !last) {
             Attempt(shard, id, key, ctx, try_index + 1, span, done);
             return;
           }
           ShardLog& l = rig->logs[static_cast<size_t>(shard)];
           const uint32_t reply = l.Open(id, span, layer, true);
           done();
           l.Close(reply);
         });
    log.Close(span);
  }
};

double PerGet(int64_t ns, uint64_t gets) {
  return gets == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(gets);
}

// Rung os: Os instances + noise, driven with Os::Read.
bool OsRung(const Workload& w, uint64_t gets, Rig& rig, double* ns_per_get) {
  const int n = w.options.num_nodes;
  std::vector<std::unique_ptr<os::Os>> oses;
  std::vector<uint64_t> files;
  Noise noise;
  for (int i = 0; i < n; ++i) {
    sim::Simulator* sim = rig.shard(rig.ShardOfNode(i, n));
    oses.push_back(std::make_unique<os::Os>(sim, NodeOsOptions(w, i)));
    files.push_back(oses.back()->CreateFile(w.options.num_keys_per_node * 4096));
    noise.Attach(w.options, i, sim, oses.back().get());
  }
  const kv::DocStoreNode::Options node = NodeOptions(w);
  const bool ssd = w.options.backend == os::BackendKind::kSsd;
  Walk walk{&rig, &w, Layer::kOs, nullptr};
  walk.send = [&](int i, uint64_t key, DurationNs deadline, const client::GetContext&,
                  std::function<void(Status)> reply) {
    os::Os& target = *oses[static_cast<size_t>(i)];
    ShardLog& log = rig.logs[static_cast<size_t>(rig.ShardOfNode(i, n))];
    if (log.tracing && (key & 63) == 0) {
      // Device queue depth the direct timings reproduce, sampled 1 in 64.
      double depth = 0;
      if (ssd) {
        for (int ch = 0; ch < target.ssd()->params().num_channels; ++ch) {
          depth += static_cast<double>(target.ssd()->ChannelOutstanding(ch));
        }
      } else {
        depth = static_cast<double>(target.scheduler().PendingCount() +
                                    target.disk()->Occupancy());
      }
      log.depth_sum += depth;
      ++log.depth_samples;
    }
    os::Os::ReadArgs args;
    args.file = files[static_cast<size_t>(i)];
    args.offset = static_cast<int64_t>(key % static_cast<uint64_t>(node.num_keys)) *
                  node.slot_size;
    args.size = node.doc_size;
    args.deadline = deadline;
    args.pid = node.server_pid;
    target.Read(args, std::move(reply));
  };
  const int64_t t0 = HostNs();
  const bool ok = Drive(rig, w, gets, [&](int shard, uint64_t id, uint64_t key,
                                          const client::GetContext& ctx, DoneFn done) {
    walk.Attempt(shard, id, key, ctx, 0, kNoSpan, std::move(done));
  });
  *ns_per_get = PerGet(HostNs() - t0, gets);
  return ok;
}

// Rung kv: DocStoreNodes (Os + CPU pool) + noise, driven with HandleGet.
bool KvRung(const Workload& w, uint64_t gets, Rig& rig, double* ns_per_get) {
  const int n = w.options.num_nodes;
  std::vector<std::unique_ptr<kv::DocStoreNode>> nodes;
  Noise noise;
  for (int i = 0; i < n; ++i) {
    sim::Simulator* sim = rig.shard(rig.ShardOfNode(i, n));
    nodes.push_back(std::make_unique<kv::DocStoreNode>(sim, i, NodeOptions(w)));
    noise.Attach(w.options, i, sim, &nodes.back()->os());
  }
  Walk walk{&rig, &w, Layer::kKv, nullptr};
  walk.send = [&](int i, uint64_t key, DurationNs deadline, const client::GetContext& ctx,
                  std::function<void(Status)> reply) {
    nodes[static_cast<size_t>(i)]->HandleGet(key, deadline, std::move(reply), {}, ctx.tenant);
  };
  const int64_t t0 = HostNs();
  const bool ok = Drive(rig, w, gets, [&](int shard, uint64_t id, uint64_t key,
                                          const client::GetContext& ctx, DoneFn done) {
    walk.Attempt(shard, id, key, ctx, 0, kNoSpan, std::move(done));
  });
  *ns_per_get = PerGet(HostNs() - t0, gets);
  return ok;
}

// Rung client: the full stack composed from public constructors.
bool ClientRung(const Workload& w, uint64_t gets, Rig& rig, double* ns_per_get,
                uint64_t* noise_ios) {
  const harness::ExperimentOptions& o = w.options;
  cluster::Cluster::Options co;
  co.num_nodes = o.num_nodes;
  co.replication = Replication(w);
  co.seed = o.seed;
  co.node = NodeOptions(w);
  std::unique_ptr<cluster::Cluster> cluster =
      rig.engine() != nullptr ? std::make_unique<cluster::Cluster>(rig.engine(), co)
                              : std::make_unique<cluster::Cluster>(rig.shard(0), co);
  Noise noise;
  for (int i = 0; i < o.num_nodes; ++i) {
    noise.Attach(o, i, cluster->node(i).sim(), &cluster->node(i).os());
  }
  std::unique_ptr<fault::FaultInjector> faults;
  if (!o.fault_plan.empty()) {
    faults = std::make_unique<fault::FaultInjector>(rig.shard(0), cluster.get(), o.fault_plan);
    faults->Start();
  }
  tenant::TenantDirectory directory;
  std::unique_ptr<tenant::PlacementMap> placement;
  if (o.tenants.enabled) {
    directory = MakeDirectory(w);
    placement = std::make_unique<tenant::PlacementMap>(tenant::PlacementMap::Uniform(
        directory.num_tenants(), o.num_nodes, Replication(w), o.seed ^ 0x9A7C));
  }
  std::vector<std::unique_ptr<client::GetStrategy>> strategies;
  for (int s = 0; s < rig.shards(); ++s) {
    const uint64_t seed = (o.seed ^ 0xC11E'47F0) + 0x9E37'79B9ULL * static_cast<uint64_t>(s);
    if (w.strategy == harness::StrategyKind::kMittosResilient) {
      client::ResilientOptions ro = o.resilience;
      ro.deadline = w.options.deadline;
      strategies.push_back(
          std::make_unique<client::ResilientMittosStrategy>(rig.shard(s), cluster.get(), seed, ro));
    } else {
      client::MittosStrategy::Options mo;
      mo.deadline = w.options.deadline;
      strategies.push_back(
          std::make_unique<client::MittosStrategy>(rig.shard(s), cluster.get(), seed, mo));
    }
    if (placement != nullptr) {
      strategies.back()->set_placement(placement.get());
    }
  }
  const int64_t t0 = HostNs();
  const bool ok = Drive(rig, w, gets, [&](int shard, uint64_t id, uint64_t key,
                                          const client::GetContext& ctx, DoneFn done) {
    ShardLog& log = rig.logs[static_cast<size_t>(shard)];
    const uint32_t span = log.Open(id, kNoSpan, Layer::kClient, false);
    strategies[static_cast<size_t>(shard)]->Get(
        key, ctx, [&rig, shard, id, span, done = std::move(done)](const client::GetResult&) {
          ShardLog& l = rig.logs[static_cast<size_t>(shard)];
          if (l.tracing) {
            l.pending_sum += static_cast<double>(rig.shard(shard)->pending_events());
            ++l.pending_samples;
          }
          const uint32_t reply = l.Open(id, span, Layer::kClient, true);
          done();
          l.Close(reply);
        });
    log.Close(span);
  });
  *ns_per_get = PerGet(HostNs() - t0, gets);
  *noise_ios = noise.ios();
  return ok;
}

// Rung sim: `events` empty callbacks over `depth` self-rescheduling chains
// per shard, spread over the harness run's simulated duration.
double SimRung(const HarnessShape& shape, double depth, Rig& rig) {
  struct Chain {
    sim::Simulator* sim = nullptr;
    Rng rng{1};
    uint64_t remaining = 0;
    DurationNs max_gap = 1;
  };
  struct Tick {
    Chain* chain;
    void operator()() const {
      if (chain->remaining == 0) {
        return;
      }
      --chain->remaining;
      chain->sim->Schedule(chain->rng.UniformInt(1, chain->max_gap), Tick{chain});
    }
  };
  const int shards = rig.shards();
  const int chains_per_shard = std::max(1, static_cast<int>(std::lround(depth)));
  const uint64_t per_chain = shape.sim_events / static_cast<uint64_t>(shards * chains_per_shard);
  // Mean gap = simulated duration / events per chain, so the heap sees the
  // harness run's event density.
  const DurationNs max_gap =
      std::max<DurationNs>(2, 2 * shape.sim_duration / static_cast<DurationNs>(per_chain + 1));
  std::vector<Chain> chains(static_cast<size_t>(shards * chains_per_shard));
  for (size_t i = 0; i < chains.size(); ++i) {
    Chain& c = chains[i];
    c.sim = rig.shard(static_cast<int>(i) / chains_per_shard);
    c.rng = Rng(0x51AULL + i);
    c.remaining = per_chain - 1;
    c.max_gap = max_gap;
    c.sim->Schedule(c.rng.UniformInt(1, max_gap), Tick{&c});
  }
  const int64_t t0 = HostNs();
  rig.RunAll();
  return PerGet(HostNs() - t0, shape.gets);
}

// A text header line, then the spans of every rung as raw 32-byte records:
// compact enough for millions of spans.
void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "ladder: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "mittbench spans v1: 32-byte native-endian records {u64 get_id; u32 parent "
               "(record index, 0xffffffff = none); u8 layer (1 os, 2 kv, 3 client); u8 kind "
               "(0 call, 1 reply); u16 0; i64 start_ns; i64 end_ns}\n");
  std::fwrite(spans.data(), sizeof(Span), spans.size(), f);
  std::fclose(f);
}

// Appends a rung's spans, shard logs concatenated, with parent indices
// rebased to positions in *out.
void Collect(const Rig& rig, std::vector<Span>* out) {
  for (const ShardLog& log : rig.logs) {
    const auto offset = static_cast<uint32_t>(out->size());
    for (Span span : log.spans) {
      if (span.parent != kNoSpan) {
        span.parent += offset;
      }
      out->push_back(span);
    }
  }
}

}  // namespace

bool RunLadder(const Workload& w, const HarnessShape& shape, const std::string& span_path,
               LadderResult* out, std::string* error) {
  const uint64_t gets = shape.gets;
  std::vector<Span> spans;  // Client rung, then kv, then os.
  {
    Rig rig(w, /*tracing=*/false, gets);
    if (!ClientRung(w, gets, rig, &out->client_untraced_ns, &out->noise_ios)) {
      *error = "client rung (untraced) did not complete its gets";
      return false;
    }
  }
  {
    Rig rig(w, /*tracing=*/true, gets);
    if (!ClientRung(w, gets, rig, &out->client_ns, &out->noise_ios)) {
      *error = "client rung did not complete its gets";
      return false;
    }
    double sum = 0;
    uint64_t samples = 0;
    for (const ShardLog& log : rig.logs) {
      sum += log.pending_sum;
      samples += log.pending_samples;
    }
    out->pending_depth = samples == 0 ? 1.0 : sum / static_cast<double>(samples);
    Collect(rig, &spans);
  }
  {
    Rig rig(w, /*tracing=*/true, gets);
    if (!KvRung(w, gets, rig, &out->kv_ns)) {
      *error = "kv rung did not complete its gets";
      return false;
    }
    Collect(rig, &spans);
  }
  {
    Rig rig(w, /*tracing=*/true, gets);
    if (!OsRung(w, gets, rig, &out->os_ns)) {
      *error = "os rung did not complete its gets";
      return false;
    }
    double sum = 0;
    uint64_t samples = 0;
    for (const ShardLog& log : rig.logs) {
      sum += log.depth_sum;
      samples += log.depth_samples;
    }
    out->queue_depth = samples == 0 ? 1.0 : sum / static_cast<double>(samples);
    Collect(rig, &spans);
  }
  {
    Rig rig(w, /*tracing=*/false, gets);
    out->sim_ns = SimRung(shape, out->pending_depth, rig);
  }
  out->spans = spans.size();
  if (!span_path.empty()) {
    WriteSpans(spans, span_path);
  }
  return true;
}

void KeepFastest(const LadderResult& round, LadderResult* best) {
  best->sim_ns = std::min(best->sim_ns, round.sim_ns);
  best->os_ns = std::min(best->os_ns, round.os_ns);
  best->kv_ns = std::min(best->kv_ns, round.kv_ns);
  best->client_ns = std::min(best->client_ns, round.client_ns);
  best->client_untraced_ns = std::min(best->client_untraced_ns, round.client_untraced_ns);
}

namespace {

// Node-local byte offsets of the workload's gets, in issue order.
std::vector<int64_t> KeyOffsets(const Workload& w, size_t n) {
  std::vector<int64_t> offsets;
  offsets.reserve(n);
  const auto keys_per_node = static_cast<uint64_t>(w.options.num_keys_per_node);
  if (!w.trace_path.empty()) {
    std::string error;
    auto cursor = trace::FileTraceCursor::Open(w.trace_path, &error);
    trace::TraceEvent event;
    while (cursor != nullptr && offsets.size() < n) {
      if (!cursor->Next(&event)) {
        cursor->Reset();
        continue;
      }
      const uint64_t key =
          harness::Experiment::ReplayKeyFor(event.offset, event.stream, Keyspace(w));
      offsets.push_back(static_cast<int64_t>(key % keys_per_node) * 4096);
    }
    return offsets;
  }
  workload::YcsbWorkload::Options wo;
  wo.num_keys = Keyspace(w);
  wo.distribution = w.options.distribution;
  wo.seed = w.options.seed ^ 0xC0FFEEULL;
  workload::YcsbWorkload keys(wo);
  while (offsets.size() < n) {
    offsets.push_back(static_cast<int64_t>(keys.Next().key % keys_per_node) * 4096);
  }
  return offsets;
}

double PageCacheNs(const Workload& w, const std::vector<int64_t>& offsets) {
  os::PageCacheParams params;
  params.capacity_pages = w.options.cache_pages;
  os::PageCache cache(params);
  const uint64_t file = 1;
  const int64_t size = NodeOptions(w).doc_size;
  auto pass = [&] {
    for (const int64_t off : offsets) {
      if (cache.Resident(file, off, size)) {
        cache.Touch(file, off, size);
      } else {
        cache.Insert(file, off, size);
      }
    }
  };
  pass();  // Fill the cache first; the timed pass sees the steady hit ratio.
  const int64_t t0 = HostNs();
  pass();
  return PerGet(HostNs() - t0, offsets.size());
}

// Admission -> (dispatch ->) completion through the predictor's public
// calls with `depth` IOs outstanding; time advances by each IO's predicted
// service so the predictor's next-free bookkeeping stays live.
double PredictNs(const Workload& w, const std::vector<int64_t>& offsets, int depth) {
  sim::Simulator sim;
  const os::OsOptions oo = NodeOsOptions(w, 0);
  os::Os probe(&sim, oo);  // Source of the profiled device model.
  const bool ssd = w.options.backend == os::BackendKind::kSsd;
  device::SsdModel topology(&sim, oo.ssd, 1);
  std::unique_ptr<os::MittCfqPredictor> cfq;
  std::unique_ptr<os::MittSsdPredictor> mssd;
  if (ssd) {
    mssd = std::make_unique<os::MittSsdPredictor>(&sim, &topology, probe.ssd_profile(),
                                                  oo.predictor, oo.mitt_ssd);
  } else {
    cfq = std::make_unique<os::MittCfqPredictor>(&sim, probe.disk_profile(), oo.predictor,
                                                 oo.mitt_cfq);
  }
  const DurationNs deadline = w.options.deadline;
  std::vector<sched::IoRequest> pool(static_cast<size_t>(depth) + 1);
  std::vector<sched::IoRequest*> free_list;
  for (auto& r : pool) {
    free_list.push_back(&r);
  }
  std::deque<sched::IoRequest*> queued;
  auto retire = [&](sched::IoRequest* r) {
    if (!r->ebusy_flagged) {
      if (ssd) {
        sim.AdvanceTo(sim.Now() + std::max<DurationNs>(1, r->predicted_process / depth));
        mssd->OnCompletion(r);
      } else {
        r->dispatch_time = sim.Now();
        cfq->OnDispatch(r);
        sim.AdvanceTo(sim.Now() + std::max<DurationNs>(1, r->predicted_process));
        cfq->OnCompletion(*r, r->predicted_process);
      }
    }
    free_list.push_back(r);
  };
  const int64_t t0 = HostNs();
  uint64_t id = 1;
  for (const int64_t off : offsets) {
    sched::IoRequest* r = free_list.back();
    free_list.pop_back();
    *r = sched::IoRequest{};
    r->id = id++;
    r->offset = off;
    r->size = 4096;
    r->pid = 1;
    r->deadline = deadline;
    r->submit_time = sim.Now();
    const bool reject = ssd ? mssd->ShouldReject(r) : cfq->ShouldReject(r);
    if (reject) {
      free_list.push_back(r);
      continue;
    }
    if (ssd) {
      mssd->OnAccepted(r);
    } else {
      for (sched::IoRequest* victim : cfq->OnAccepted(r)) {
        victim->ebusy_flagged = true;  // Bumped: never dispatched.
      }
    }
    queued.push_back(r);
    while (static_cast<int>(queued.size()) >= depth) {
      sched::IoRequest* head = queued.front();
      queued.pop_front();
      retire(head);
    }
  }
  const int64_t elapsed = HostNs() - t0;
  while (!queued.empty()) {
    retire(queued.front());
    queued.pop_front();
  }
  return PerGet(elapsed, offsets.size());
}

// The device model alone on a simulator, `depth` IOs kept outstanding.
double DeviceNs(const Workload& w, const std::vector<int64_t>& offsets, int depth) {
  sim::Simulator sim;
  const os::OsOptions oo = NodeOsOptions(w, 0);
  const bool ssd = w.options.backend == os::BackendKind::kSsd;
  std::unique_ptr<device::DiskModel> disk;
  std::unique_ptr<device::SsdModel> flash;
  if (ssd) {
    flash = std::make_unique<device::SsdModel>(&sim, oo.ssd, oo.seed);
  } else {
    disk = std::make_unique<device::DiskModel>(&sim, oo.disk, oo.seed);
    depth = std::min<int>(depth, static_cast<int>(oo.disk.queue_depth));
  }
  std::vector<sched::IoRequest> pool(static_cast<size_t>(depth));
  size_t next = 0;
  uint64_t done = 0;
  auto submit = [&](sched::IoRequest* r) {
    *r = sched::IoRequest{};
    r->id = next + 1;
    r->offset = offsets[next++];
    r->size = 4096;
    r->pid = 1;
    if (ssd) {
      flash->Submit(r);
    } else {
      disk->Submit(r);
    }
  };
  auto on_done = [&](sched::IoRequest* r) {
    ++done;
    if (next < offsets.size()) {
      submit(r);
    }
  };
  if (ssd) {
    flash->set_completion_listener(on_done);
  } else {
    disk->set_completion_listener(on_done);
  }
  const int64_t t0 = HostNs();
  for (auto& r : pool) {
    if (next < offsets.size()) {
      submit(&r);
    }
  }
  sim.Run();
  return PerGet(HostNs() - t0, done);
}

}  // namespace

DirectResult RunDirect(const Workload& w, double queue_depth, const std::string& trace_file) {
  DirectResult out;
  const int depth = std::max(1, static_cast<int>(std::lround(queue_depth)));
  const std::vector<int64_t> offsets = KeyOffsets(w, size_t{1} << 20);
  out.lookups = offsets.size();
  out.page_cache_ns_per_lookup = PageCacheNs(w, offsets);
  out.predict_calls = offsets.size();
  out.predict_ns_per_call = PredictNs(w, offsets, depth);
  const std::vector<int64_t> ios(offsets.begin(), offsets.begin() + (1 << 17));
  out.device_ios = ios.size();
  out.device_ns_per_io = DeviceNs(w, ios, depth);
  {
    std::string error;
    auto cursor = trace::FileTraceCursor::Open(trace_file, &error);
    if (cursor == nullptr) {
      std::fprintf(stderr, "direct: %s\n", error.c_str());
    } else {
      trace::TraceEvent event;
      const uint64_t target = uint64_t{1} << 20;
      const int64_t t0 = HostNs();
      while (out.trace_records < target) {
        if (!cursor->Next(&event)) {
          cursor->Reset();
          continue;
        }
        ++out.trace_records;
      }
      out.trace_ns_per_record = PerGet(HostNs() - t0, out.trace_records);
    }
  }
  return out;
}

}  // namespace perfbench
