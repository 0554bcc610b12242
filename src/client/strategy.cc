#include "src/client/strategy.h"

#include <vector>

#include "src/resilience/deadline_budget.h"

namespace mitt::client {

GetStrategy::GetStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed)
    : sim_(sim), cluster_(cluster), rng_(seed) {}

namespace {

// The reply hop: carries the server's answer back over the network to the
// client's home shard, so the continuation fires on the simulator that
// issued the request. Tagged with the storage-node endpoint so per-link
// faults (src/fault/) hit replies from that node.
std::function<void(Status)> ReplyHop(cluster::Cluster* cluster, int node, int home,
                                     std::function<void(Status)> on_reply) {
  return [cluster, node, home, on_reply = std::move(on_reply)](Status status) mutable {
    cluster->network().Deliver(node, home,
                               [on_reply = std::move(on_reply), status] { on_reply(status); });
  };
}

}  // namespace

void GetStrategy::SendGet(int node, uint64_t key, DurationNs deadline, ReplyFn on_reply,
                          obs::TraceContext trace, tenant::TenantId tenant) {
  // Underflow guard at the send boundary: a caller whose remaining-deadline
  // arithmetic went negative must read as "no time left" (0), never alias
  // into kNoDeadline (-1) and disable the SLO.
  deadline = resilience::ClampDeadline(deadline);
  cluster::Network& net = cluster_->network();
  // The request hop runs on the node's shard, tagged with the node endpoint.
  net.Deliver(node, net.ShardOfNode(node),
              [cluster = cluster_, node, key, deadline, trace, tenant,
               reply = ReplyHop(cluster_, node, sim_->shard_id(), std::move(on_reply))]() mutable {
                cluster->node(node).HandleGet(key, deadline, std::move(reply), trace, tenant);
              });
}

void GetStrategy::SendDegradedGet(int node, uint64_t key, DurationNs deadline, ReplyFn on_reply,
                                  obs::TraceContext trace) {
  deadline = resilience::ClampDeadline(deadline);
  cluster::Network& net = cluster_->network();
  net.Deliver(node, net.ShardOfNode(node),
              [cluster = cluster_, node, key, deadline, trace,
               reply = ReplyHop(cluster_, node, sim_->shard_id(), std::move(on_reply))]() mutable {
                cluster->node(node).HandleDegradedGet(key, deadline, std::move(reply), trace);
              });
}

tenant::ReplicaGroup GetStrategy::RouteReplicas(uint64_t key, tenant::TenantId tenant) const {
  if (placement_ != nullptr && tenant != tenant::kNoTenant &&
      tenant < placement_->num_tenants()) {
    return placement_->group(tenant);
  }
  tenant::ReplicaGroup g;
  const std::vector<int> ring = cluster_->ReplicasOf(key);
  const size_t n = ring.size() < static_cast<size_t>(tenant::ReplicaGroup::kMaxReplication)
                       ? ring.size()
                       : static_cast<size_t>(tenant::ReplicaGroup::kMaxReplication);
  g.size = static_cast<int>(n);
  for (size_t i = 0; i < n; ++i) {
    g.node[i] = ring[i];
  }
  return g;
}

obs::TraceContext GetStrategy::BeginTrace() {
  if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled()) {
    return obs::TraceContext{tr->NewRequestId(), /*node=*/-1};
  }
  return {};
}

void GetStrategy::RecordFailover(const obs::TraceContext& trace) {
  if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled() && trace.traced()) {
    tr->RecordInstant(obs::SpanKind::kFailover, trace, sim_->Now());
  }
}

}  // namespace mitt::client
