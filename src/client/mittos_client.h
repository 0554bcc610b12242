// The MittOS-powered client (§5): attach the user's deadline SLO to the get;
// on EBUSY, instantly fail over to the next replica; the third (last) try
// disables the deadline so the user never sees an IO error
// (Prob(3 nodes busy) is small, §6 Observation #3).

#ifndef MITTOS_CLIENT_MITTOS_CLIENT_H_
#define MITTOS_CLIENT_MITTOS_CLIENT_H_

#include "src/client/strategy.h"

namespace mitt::client {

class MittosStrategy : public GetStrategy {
 public:
  struct Options {
    std::string name = "MittOS";
    // The per-user deadline SLO (the p95 expected latency, §7.2).
    DurationNs deadline = Millis(13);
  };

  MittosStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                 const Options& options);

  std::string_view name() const override { return options_.name; }
  // Tenant-aware: routes via the placement map, sends the tenant's class SLO
  // (ctx.deadline) as the wire deadline.
  void Get(uint64_t key, const GetContext& ctx, GetDoneFn done) override;

  uint64_t ebusy_failovers() const { return ebusy_failovers_; }
  // Last-try sends with the deadline disabled (kNoDeadline) — the unbounded
  // tail the resilience subsystem exists to eliminate.
  uint64_t unbounded_tries() const { return unbounded_tries_; }

 private:
  void Attempt(uint64_t key, GetContext ctx, int try_index, std::shared_ptr<GetDoneFn> done,
               obs::TraceContext trace);

  Options options_;
  uint64_t ebusy_failovers_ = 0;
  uint64_t unbounded_tries_ = 0;
};

// The §7.8.1 extension client: tries carry the deadline and collect the
// OS' predicted-wait hints from EBUSY replies; when *all* replicas reject,
// the final (deadline-disabled) retry goes to the replica with the shortest
// predicted wait instead of blindly to the last one — fixing the ">p99
// Hedged is faster" artifact of Fig. 11.
class MittosWaitStrategy : public GetStrategy {
 public:
  struct Options {
    DurationNs deadline = Millis(13);
  };

  MittosWaitStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                     const Options& options);

  std::string_view name() const override { return "MittOS+wait"; }
  void Get(uint64_t key, const GetContext& ctx, GetDoneFn done) override;

  uint64_t ebusy_failovers() const { return ebusy_failovers_; }
  uint64_t informed_last_tries() const { return informed_last_tries_; }

 private:
  struct Attempt;
  void TryReplica(std::shared_ptr<Attempt> attempt);

  Options options_;
  uint64_t ebusy_failovers_ = 0;
  uint64_t informed_last_tries_ = 0;
};

}  // namespace mitt::client

#endif  // MITTOS_CLIENT_MITTOS_CLIENT_H_
