// Riak-style replicated coordinator over LSM nodes (§5's two-level
// integration): the coordinator fans a get() to the primary replica first;
// if LevelDB's read path surfaces EBUSY, the coordinator instantly fails over
// to the next replica, disabling the deadline on the last try. With
// mitt_enabled = false it behaves like vanilla Riak (wait, no deadline).

#ifndef MITTOS_KV_RING_COORDINATOR_H_
#define MITTOS_KV_RING_COORDINATOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/network.h"
#include "src/common/status.h"
#include "src/lsm/lsm_node.h"
#include "src/resilience/deadline_budget.h"
#include "src/resilience/replica_health.h"
#include "src/resilience/retry_policy.h"
#include "src/sim/simulator.h"

namespace mitt::kv {

class RingCoordinator {
 public:
  struct Options {
    int replication = 3;
    DurationNs deadline = Millis(13);
    bool mitt_enabled = true;
    // Resilience mode (src/resilience/): hops carry the *remaining* deadline
    // budget (clamped at 0, never disabled), the failover walk is reordered
    // by per-replica circuit breakers, and the all-replicas-EBUSY case goes
    // through the nodes' bounded degraded path instead of a deadline-
    // disabled last try.
    bool resilience_enabled = false;
    resilience::ReplicaHealthOptions health;
    resilience::BackoffOptions backoff;
    int degraded_max_rounds = 12;
    uint64_t seed = 1;
  };

  RingCoordinator(sim::Simulator* sim, std::vector<lsm::LsmNode*> nodes,
                  cluster::Network* network, const Options& options);

  // The replica set for a key, primary first.
  std::vector<int> ReplicasOf(uint64_t key) const;

  // Replicated get with EBUSY failover.
  void Get(uint64_t key, std::function<void(Status)> done);

  // Replicated put: writes all replicas, acks after the first (Riak w=1).
  void Put(uint64_t key, std::function<void(Status)> done);

  uint64_t failovers() const { return failovers_; }
  uint64_t unbounded_tries() const { return unbounded_tries_; }
  uint64_t degraded_gets() const { return degraded_gets_; }
  uint64_t degraded_sheds_seen() const { return degraded_sheds_seen_; }
  DurationNs max_sent_deadline() const { return max_sent_deadline_; }
  const resilience::ReplicaHealthTracker* health() const { return health_.get(); }

 private:
  struct GetState;

  using ReplyFn = std::function<void(Status)>;

  void Attempt(uint64_t key, int try_index, std::shared_ptr<ReplyFn> done);
  void ResilientAttempt(std::shared_ptr<GetState> g);
  void DegradedAttempt(std::shared_ptr<GetState> g, int round);

  // One request/reply round trip to `node`: `request(reply)` runs on the
  // replica's shard, `on_reply` back on the coordinator's home shard.
  // Coordinator state — budgets, health, counters, the degraded walk — only
  // mutates on home_shard_.
  void RoundTrip(lsm::LsmNode* node, std::function<void(ReplyFn reply)> request,
                 ReplyFn on_reply);

  sim::Simulator* sim_;
  std::vector<lsm::LsmNode*> nodes_;
  cluster::Network* network_;
  Options options_;
  int home_shard_ = 0;
  std::unique_ptr<resilience::ReplicaHealthTracker> health_;
  std::unique_ptr<resilience::DecorrelatedJitterBackoff> backoff_;
  uint64_t failovers_ = 0;
  uint64_t unbounded_tries_ = 0;
  uint64_t degraded_gets_ = 0;
  uint64_t degraded_sheds_seen_ = 0;
  DurationNs max_sent_deadline_ = 0;
};

}  // namespace mitt::kv

#endif  // MITTOS_KV_RING_COORDINATOR_H_
