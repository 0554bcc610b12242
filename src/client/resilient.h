// The resilience-enabled MittOS client (src/resilience/ threaded through the
// §5 failover loop). Four changes over MittosStrategy's naive walk:
//
//   1. DeadlineBudget — one budget anchored when the user issues the get;
//      every hop sends Remaining(now), so network RTTs and server time
//      already burned are deducted instead of silently re-promising the full
//      SLO per hop. An exhausted budget surfaces kDeadlineExhausted (or, by
//      default, enters the degraded path) rather than a corrupted deadline.
//   2. ReplicaHealth + circuit breakers — the failover walk is reordered
//      away from replicas whose breaker is open (EBUSY storms, fail-slow
//      latency, repeated timeouts); half-open replicas admit one probe.
//   3. Retry governance — a per-client retry token bucket plus decorrelated-
//      jitter backoff gates retries after *timeouts* (drops, pauses,
//      partitions — failures EBUSY cannot signal), so retransmit storms
//      cannot amplify load. EBUSY failovers stay instant: they are the
//      paper's point and are bounded by the replica count.
//   4. Graceful all-busy degradation — when every replica rejects, the get
//      goes to the min-wait-hint replica's *degraded* path (bounded
//      server-side admission + bounded escalating deadlines; see
//      resilience::AdmissionGate) instead of re-sending with the deadline
//      disabled. Shed replies walk the next-best replica; a fully-shed round
//      backs off and re-walks, bounded by degraded_max_rounds.
//
// Every deadline this strategy sends is bounded (>= 0, never
// sched::kNoDeadline); max_sent_deadline() exposes the largest one for the
// boundedness acceptance check. Determinism: breaker windows and backoff
// draws come from seeded per-instance RNG streams, so runs are bit-identical
// at any MITT_TRIAL_WORKERS.

#ifndef MITTOS_CLIENT_RESILIENT_H_
#define MITTOS_CLIENT_RESILIENT_H_

#include <memory>

#include "src/client/strategy.h"
#include "src/resilience/deadline_budget.h"
#include "src/resilience/replica_health.h"
#include "src/resilience/retry_policy.h"

namespace mitt::client {

// The resilience knobs a harness threads through (kept separate from
// MittosStrategy::Options so ExperimentOptions can embed them wholesale).
struct ResilientOptions {
  std::string name = "MittOS+res";
  DurationNs deadline = Millis(13);
  // Attempt timer = remaining budget + 2*RTT estimate + this slack. Generous
  // by design: it exists to catch replicas that will *never* answer in time
  // (drop storms, pauses, partitions), not to race healthy replies. <0 means
  // "use `deadline`".
  DurationNs timer_slack = -1;
  resilience::ReplicaHealthOptions health;
  resilience::RetryBudgetOptions retry;
  resilience::BackoffOptions backoff;
  // All-busy degradation: full replica re-walks before giving up, and the
  // largest deadline a degraded attempt may carry (mirrors the server-side
  // escalation cap — bounded, never disabled).
  int degraded_max_rounds = 12;
  DurationNs degraded_deadline_cap = Seconds(2);
  bool degraded_enabled = true;  // false: exhausted budget -> kDeadlineExhausted.
  // TEST ONLY. Reintroduces the denied-retry/late-EBUSY liveness bug this
  // strategy originally shipped with: when the attempt timer fired, the retry
  // budget denied the resend, and the late reply is an EBUSY/error, the reply
  // is swallowed instead of advancing the walk — the get never settles. Kept
  // behind this flag as the chaos-search engine's planted ground truth (the
  // exactly-once/conservation oracle must find and shrink it); never set it
  // in production configurations.
  bool test_swallow_late_reply = false;
};

class ResilientMittosStrategy : public GetStrategy {
 public:
  using Options = ResilientOptions;

  ResilientMittosStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                          const Options& options);

  std::string_view name() const override { return options_.name; }
  void Get(uint64_t key, const GetContext& ctx, GetDoneFn done) override;

  // --- Counters (harness harvest) ---
  uint64_t ebusy_failovers() const { return ebusy_failovers_; }
  uint64_t timeouts_fired() const { return timeouts_fired_; }
  uint64_t degraded_gets() const { return degraded_gets_; }
  uint64_t degraded_sheds_seen() const { return degraded_sheds_seen_; }
  uint64_t deadline_exhausted() const { return deadline_exhausted_; }
  uint64_t backoffs() const { return backoffs_; }
  uint64_t retry_denied() const { return retry_budget_.denied(); }
  // Largest deadline ever sent; must stay bounded (never kNoDeadline).
  DurationNs max_sent_deadline() const { return max_sent_deadline_; }
  // Times a primary-walk hop sent a *larger* remaining budget than the
  // previous hop of the same get. DeadlineBudget monotonicity says this must
  // be 0: time only moves forward, so Remaining() only shrinks. (The
  // degraded path is excluded by design — it deliberately re-escalates to at
  // least one full SLO, bounded by degraded_deadline_cap.)
  uint64_t budget_regressions() const { return budget_regressions_; }
  const resilience::ReplicaHealthTracker& health() const { return health_; }

 private:
  struct GetState;
  struct AttemptState;

  void TryNext(std::shared_ptr<GetState> g);
  void StartDegraded(std::shared_ptr<GetState> g, int round);
  void DegradedNext(std::shared_ptr<GetState> g, int round);
  void Settle(const std::shared_ptr<GetState>& g, Status status);
  void ScheduleBackoff(const std::shared_ptr<GetState>& g, sim::Callback resume);
  DurationNs NoteSentDeadline(DurationNs deadline);

  Options options_;
  resilience::ReplicaHealthTracker health_;
  resilience::RetryBudget retry_budget_;
  resilience::DecorrelatedJitterBackoff backoff_;
  uint64_t ebusy_failovers_ = 0;
  uint64_t timeouts_fired_ = 0;
  uint64_t degraded_gets_ = 0;
  uint64_t degraded_sheds_seen_ = 0;
  uint64_t deadline_exhausted_ = 0;
  uint64_t backoffs_ = 0;
  uint64_t budget_regressions_ = 0;
  DurationNs max_sent_deadline_ = 0;
};

}  // namespace mitt::client

#endif  // MITTOS_CLIENT_RESILIENT_H_
