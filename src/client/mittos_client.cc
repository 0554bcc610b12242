#include "src/client/mittos_client.h"

#include <memory>

namespace mitt::client {

MittosStrategy::MittosStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                               const Options& options)
    : GetStrategy(sim, cluster, seed), options_(options) {}

void MittosStrategy::Get(uint64_t key, const GetContext& ctx, GetDoneFn done) {
  Attempt(key, ctx, 0, std::make_shared<GetDoneFn>(std::move(done)), BeginTrace());
}

void MittosStrategy::Attempt(uint64_t key, GetContext ctx, int try_index,
                             std::shared_ptr<GetDoneFn> done, obs::TraceContext trace) {
  const tenant::ReplicaGroup replicas = RouteReplicas(key, ctx.tenant);
  const bool last_try = try_index + 1 >= replicas.size;
  // The last retry disables the deadline; otherwise users could get IO errors
  // even though data is available (§5, modification (3)).
  const DurationNs slo = ctx.deadline > 0 ? ctx.deadline : options_.deadline;
  const DurationNs deadline = last_try ? sched::kNoDeadline : slo;
  if (last_try) {
    ++unbounded_tries_;
  }
  const int node = replicas.node[static_cast<size_t>(try_index)];
  SendGet(
      node, key, deadline,
      [this, key, ctx, try_index, done, trace](Status status) {
        if (status.busy()) {
          ++ebusy_failovers_;
          RecordFailover(trace);
          Attempt(key, ctx, try_index + 1, done, trace);  // Instant, exceptionless failover.
          return;
        }
        (*done)({status, try_index + 1});
      },
      trace, ctx.tenant);
}

struct MittosWaitStrategy::Attempt {
  uint64_t key = 0;
  tenant::TenantId tenant = tenant::kNoTenant;
  DurationNs deadline = 0;
  std::vector<int> replicas;
  std::vector<DurationNs> hints;  // Predicted wait per replica (on EBUSY).
  size_t next = 0;
  GetDoneFn done;
  obs::TraceContext trace;
};

MittosWaitStrategy::MittosWaitStrategy(sim::Simulator* sim, cluster::Cluster* cluster,
                                       uint64_t seed, const Options& options)
    : GetStrategy(sim, cluster, seed), options_(options) {}

void MittosWaitStrategy::Get(uint64_t key, const GetContext& ctx, GetDoneFn done) {
  auto attempt = std::make_shared<Attempt>();
  attempt->key = key;
  attempt->tenant = ctx.tenant;
  attempt->deadline = ctx.deadline > 0 ? ctx.deadline : options_.deadline;
  const tenant::ReplicaGroup group = RouteReplicas(key, ctx.tenant);
  attempt->replicas.assign(group.node, group.node + group.size);
  attempt->hints.assign(attempt->replicas.size(), 0);
  attempt->done = std::move(done);
  attempt->trace = BeginTrace();
  TryReplica(std::move(attempt));
}

void MittosWaitStrategy::TryReplica(std::shared_ptr<Attempt> attempt) {
  if (attempt->next >= attempt->replicas.size()) {
    // Every replica rejected: the paper's proposed 4th retry, informed by the
    // wait hints — go wait on the *least busy* node, deadline disabled.
    ++informed_last_tries_;
    size_t best = 0;
    for (size_t i = 1; i < attempt->hints.size(); ++i) {
      if (attempt->hints[i] < attempt->hints[best]) {
        best = i;
      }
    }
    const int node = attempt->replicas[best];
    const int tries = static_cast<int>(attempt->replicas.size()) + 1;
    SendGet(
        node, attempt->key, sched::kNoDeadline,
        [attempt, tries](Status status) { attempt->done({status, tries}); },
        attempt->trace, attempt->tenant);
    return;
  }
  const size_t index = attempt->next++;
  const int node = attempt->replicas[index];
  SendGet(
      node, attempt->key, attempt->deadline,
      [this, attempt, index](Status status) {
        if (status.busy()) {
          ++ebusy_failovers_;
          attempt->hints[index] = status.wait_hint();
          RecordFailover(attempt->trace);
          TryReplica(attempt);
          return;
        }
        attempt->done({status, static_cast<int>(index) + 1});
      },
      attempt->trace, attempt->tenant);
}

}  // namespace mitt::client
