// The two-level integration of §5: a LevelDB-like LSM engine whose block
// reads carry deadlines, under Riak-style replication that fails over on
// EBUSY. The ring is a cluster::Cluster of kv::AccessPath::kLsm nodes and the
// MittOS client strategy does the failover. Shows writes (WAL + memtable +
// flush + compaction) creating the background noise, and SLO-aware reads
// cutting through it.
//
// Run:  ./build/examples/slo_aware_lsm

#include <cstdio>
#include <functional>
#include <memory>

#include "src/client/mittos_client.h"
#include "src/cluster/cluster.h"
#include "src/common/latency_recorder.h"
#include "src/sim/simulator.h"
#include "src/workload/ycsb.h"

int main() {
  using namespace mitt;

  sim::Simulator sim;

  // Three LSM nodes, bulk-loaded with 40k keys in L1.
  cluster::Cluster::Options copt;
  copt.num_nodes = 3;
  copt.seed = 3;
  copt.node.access = kv::AccessPath::kLsm;
  copt.node.num_keys = 40000;
  copt.node.os.mitt_enabled = true;
  // A small memtable, so the run's ~850 distinct (zipfian) put keys flush
  // several L0 tables and start a compaction.
  copt.node.lsm.memtable_flush_bytes = 256 << 10;
  copt.node.lsm.l0_compaction_trigger = 3;
  cluster::Cluster ring(&sim, copt);

  client::MittosStrategy::Options mopt;
  mopt.deadline = Millis(13);
  client::MittosStrategy mittos(&sim, &ring, /*seed=*/3, mopt);

  // Riak w=1: a put goes to every replica and acks after the first reply.
  struct PutState {
    bool acked = false;
    std::function<void()> ack;
  };
  auto put = [&ring](uint64_t key, std::function<void()> ack) {
    auto state = std::make_shared<PutState>(PutState{false, std::move(ack)});
    for (const int r : ring.ReplicasOf(key)) {
      ring.network().DeliverToNode(r, [&ring, r, key, state] {
        ring.node(r).HandlePut(key, [&ring, r, state](Status) {
          ring.network().Deliver(r, [state] {
            if (!state->acked) {
              state->acked = true;
              state->ack();
            }
          });
        });
      });
    }
  };

  // A mixed workload: 20% puts keep compaction churning, 80% SLO reads.
  workload::YcsbWorkload::Options wopt;
  wopt.num_keys = static_cast<uint64_t>(copt.node.num_keys);
  wopt.read_fraction = 0.8;
  workload::YcsbWorkload ycsb(wopt);

  LatencyRecorder read_latencies;
  size_t done = 0;
  size_t issued = 0;
  constexpr size_t kOps = 8000;
  auto loop = std::make_shared<std::function<void()>>();
  *loop = [&] {
    if (issued >= kOps) {
      return;
    }
    ++issued;
    const auto op = ycsb.Next();
    if (op.is_read) {
      const TimeNs start = sim.Now();
      mittos.Get(op.key, {}, [&, start](const client::GetResult&) {
        read_latencies.Record(sim.Now() - start);
        ++done;
        (*loop)();
      });
    } else {
      put(op.key, [&] {
        ++done;
        (*loop)();
      });
    }
  };
  for (int c = 0; c < 6; ++c) {
    (*loop)();
  }
  sim.RunUntilPredicate([&] { return done >= kOps; });
  *loop = nullptr;  // Break the driver lambda's self-reference cycle.

  std::printf("SLO-aware LSM + ring replication, %zu ops (80%% reads, 13ms deadline):\n\n",
              kOps);
  std::printf("  read p50 / p95 / p99: %.2f / %.2f / %.2f ms\n",
              ToMillis(read_latencies.Percentile(50)), ToMillis(read_latencies.Percentile(95)),
              ToMillis(read_latencies.Percentile(99)));
  std::printf("  EBUSY replica failovers: %lu\n",
              static_cast<unsigned long>(mittos.ebusy_failovers()));
  for (int i = 0; i < ring.num_nodes(); ++i) {
    kv::DocStoreNode& node = ring.node(i);
    std::printf("  node %d: %lu flushes, %lu compactions%s, L0=%zu L1=%zu, EBUSY=%lu\n", i,
                static_cast<unsigned long>(node.lsm().flushes_done()),
                static_cast<unsigned long>(node.lsm().compactions_done()),
                node.lsm().compaction_running() ? " (one running)" : "",
                node.lsm().level_size(0), node.lsm().level_size(1),
                static_cast<unsigned long>(node.ebusy_returned()));
  }
  return 0;
}
