#include "src/cluster/cluster.h"

#include <cassert>

#include "src/sim/sharded_engine.h"

namespace mitt::cluster {

Cluster::Cluster(sim::Simulator* sim, const Options& options) : options_(options) {
  network_ = std::make_unique<Network>(sim, options_.network, options_.seed ^ 0xBEEF);
  if (options_.shared_cpu_cores > 0) {
    shared_cpu_ = std::make_unique<CpuPool>(sim, options_.shared_cpu_cores);
  }
  nodes_.reserve(static_cast<size_t>(options_.num_nodes));
  for (int i = 0; i < options_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<kv::DocStoreNode>(sim, i, options_.node,
                                                        shared_cpu_.get()));
  }
}

Cluster::Cluster(sim::ShardedEngine* engine, const Options& options) : options_(options) {
  const int num_shards = engine->num_shards();
  assert((options_.shared_cpu_cores == 0 || num_shards == 1) &&
         "shared CPU pool is cross-shard state");
  network_ = std::make_unique<Network>(engine->shard(0), options_.network,
                                       options_.seed ^ 0xBEEF);
  if (options_.shared_cpu_cores > 0) {
    shared_cpu_ = std::make_unique<CpuPool>(engine->shard(0), options_.shared_cpu_cores);
  }
  std::vector<int> node_shard(static_cast<size_t>(options_.num_nodes));
  for (int i = 0; i < options_.num_nodes; ++i) {
    node_shard[static_cast<size_t>(i)] =
        static_cast<int>(static_cast<int64_t>(i) * num_shards / options_.num_nodes);
  }
  network_->AttachShards(engine, node_shard);
  nodes_.reserve(static_cast<size_t>(options_.num_nodes));
  for (int i = 0; i < options_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<kv::DocStoreNode>(
        engine->shard(node_shard[static_cast<size_t>(i)]), i, options_.node,
        shared_cpu_.get()));
  }
}

std::vector<int> Cluster::ReplicasOf(uint64_t key) const {
  std::vector<int> replicas;
  replicas.reserve(static_cast<size_t>(options_.replication));
  // Ring placement: primary by key hash, successors as replicas.
  const uint64_t mixed = key * 0x9E37'79B9'7F4A'7C15ULL;
  const int primary = static_cast<int>(mixed % static_cast<uint64_t>(options_.num_nodes));
  for (int r = 0; r < options_.replication; ++r) {
    replicas.push_back((primary + r) % options_.num_nodes);
  }
  return replicas;
}

void Cluster::WarmAll(double fraction) {
  for (auto& node : nodes_) {
    node->WarmCache(fraction);
  }
}

}  // namespace mitt::cluster
