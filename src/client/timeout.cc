#include "src/client/timeout.h"

#include <memory>

namespace mitt::client {

TimeoutStrategy::TimeoutStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                                 const Options& options)
    : GetStrategy(sim, cluster, seed), options_(options) {}

void TimeoutStrategy::Get(uint64_t key, const GetContext& ctx, GetDoneFn done) {
  Attempt(key, ctx, 0, std::make_shared<GetDoneFn>(std::move(done)), BeginTrace());
}

void TimeoutStrategy::Attempt(uint64_t key, GetContext ctx, int try_index,
                              std::shared_ptr<GetDoneFn> done, obs::TraceContext trace) {
  const tenant::ReplicaGroup replicas = RouteReplicas(key, ctx.tenant);
  const int node =
      replicas.node[static_cast<size_t>(try_index) % static_cast<size_t>(replicas.size)];
  const bool last_try = try_index + 1 >= options_.max_tries;
  const DurationNs timeout = ctx.deadline > 0 ? ctx.deadline : options_.timeout;

  // One timer + one reply race; whichever fires first settles this attempt.
  auto settled = std::make_shared<bool>(false);
  sim::EventId timer = sim::kInvalidEventId;
  if (!last_try && timeout > 0) {
    timer = sim_->Schedule(timeout, [this, key, ctx, try_index, done, settled, trace] {
      if (*settled) {
        return;
      }
      *settled = true;
      ++timeouts_fired_;
      if (!options_.failover_on_timeout) {
        // The user receives a read error even though less-busy replicas are
        // available (§2's surprising finding).
        (*done)({Status::Timeout(), try_index + 1});
        return;
      }
      RecordFailover(trace);
      Attempt(key, ctx, try_index + 1, done, trace);
    });
  }

  SendGet(
      node, key, sched::kNoDeadline,
      [this, timer, settled, done, try_index](Status status) {
        if (*settled) {
          return;  // Timed out earlier; this reply is stale (app-level cancel).
        }
        *settled = true;
        if (timer != sim::kInvalidEventId) {
          sim_->Cancel(timer);
        }
        (*done)({status, try_index + 1});
      },
      trace, ctx.tenant);
}

}  // namespace mitt::client
