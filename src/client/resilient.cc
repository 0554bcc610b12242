#include "src/client/resilient.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace mitt::client {
namespace {

constexpr DurationNs kNoHint = -1;

// A replica is fail-slow only when its success latency alone breaks the SLO;
// sub-deadline contention is the predictor's business, not the breaker's.
resilience::ReplicaHealthOptions HealthWithSloFloor(const ResilientOptions& options) {
  resilience::ReplicaHealthOptions health = options.health;
  health.latency_floor = std::max(health.latency_floor, options.deadline);
  return health;
}

}  // namespace

// One logical get. `settled` is the done-exactly-once latch: every completion
// path funnels through Settle(), and late replies from attempts the timer
// already abandoned check it before doing anything user-visible.
struct ResilientMittosStrategy::GetState {
  uint64_t key = 0;
  std::vector<int> replicas;           // Health-ordered at Get() time.
  std::vector<DurationNs> hints;       // EBUSY wait hints, kNoHint until seen.
  size_t next = 0;
  resilience::DeadlineBudget budget{0, 0};
  GetDoneFn done;
  obs::TraceContext trace;
  bool settled = false;
  int tries = 0;
  // Remaining budget sent by the previous primary-walk hop; <0 until the
  // first hop. Feeds the budget-monotonicity oracle counter.
  DurationNs last_sent_remaining = -1;
  std::vector<int> degraded_order;
  size_t degraded_next = 0;
  Status last_degraded_status = Status::Unavailable();
};

// One attempt (one replica contact) inside a get. The timer and the reply
// race; `settled` marks which one claimed the attempt.
struct ResilientMittosStrategy::AttemptState {
  int node = -1;
  size_t index = 0;
  TimeNs sent_at = 0;
  sim::EventId timer = sim::kInvalidEventId;
  bool settled = false;
  // The timer got a retry token and scheduled a backoff-resume: the walk has
  // a new driver, so the late reply must not also advance it.
  bool retry_scheduled = false;
};

ResilientMittosStrategy::ResilientMittosStrategy(sim::Simulator* sim, cluster::Cluster* cluster,
                                                 uint64_t seed, const Options& options)
    : GetStrategy(sim, cluster, seed),
      options_(options),
      health_(sim, cluster->num_nodes(), HealthWithSloFloor(options), seed ^ 0x4EA1'74C3ULL),
      retry_budget_(options.retry),
      backoff_(options.backoff, seed ^ 0xBAC0'0FF5ULL) {}

DurationNs ResilientMittosStrategy::NoteSentDeadline(DurationNs deadline) {
  // The bounded-deadline contract: this strategy never disables a deadline.
  deadline = resilience::ClampDeadline(deadline);
  if (deadline < 0) {
    deadline = 0;  // Unlimited budgets still go out bounded (caller floors them).
  }
  max_sent_deadline_ = std::max(max_sent_deadline_, deadline);
  return deadline;
}

void ResilientMittosStrategy::Get(uint64_t key, const GetContext&, GetDoneFn done) {
  auto g = std::make_shared<GetState>();
  g->key = key;
  const tenant::ReplicaGroup group = RouteReplicas(key, tenant::kNoTenant);
  g->replicas.assign(group.node, group.node + group.size);
  health_.OrderReplicas(&g->replicas);
  g->hints.assign(g->replicas.size(), kNoHint);
  g->budget = resilience::DeadlineBudget(options_.deadline, sim_->Now());
  g->done = std::move(done);
  g->trace = BeginTrace();
  TryNext(std::move(g));
}

void ResilientMittosStrategy::Settle(const std::shared_ptr<GetState>& g, Status status) {
  if (g->settled) {
    return;
  }
  g->settled = true;
  if (status.ok()) {
    retry_budget_.OnSuccess();
    backoff_.Reset();
  }
  g->done({status, g->tries});
}

void ResilientMittosStrategy::ScheduleBackoff(const std::shared_ptr<GetState>& g,
                                              sim::Callback resume) {
  const DurationNs delay = backoff_.Next();
  ++backoffs_;
  if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled() && g->trace.traced()) {
    tr->RecordSpan(obs::SpanKind::kBackoff, g->trace, sim_->Now(), sim_->Now() + delay);
  }
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("resilience_backoff_total").Add();
  }
  sim_->Schedule(delay, std::move(resume));
}

void ResilientMittosStrategy::TryNext(std::shared_ptr<GetState> g) {
  if (g->settled) {
    return;
  }
  const TimeNs now = sim_->Now();
  if (g->budget.Exhausted(now)) {
    ++deadline_exhausted_;
    if (obs::MetricsRegistry* m = sim_->metrics()) {
      m->counter("resilience_deadline_exhausted_total").Add();
    }
    if (!options_.degraded_enabled) {
      Settle(g, Status::DeadlineExhausted());
      return;
    }
    StartDegraded(std::move(g), 0);
    return;
  }
  // Half-open replicas admit exactly one probe; when another get holds the
  // probe slot, skip past them (open replicas at the tail stay reachable as
  // the walk's last resort).
  while (g->next < g->replicas.size()) {
    const int candidate = g->replicas[g->next];
    if (health_.state(candidate) != resilience::BreakerState::kHalfOpen ||
        health_.AcquireProbe(candidate)) {
      break;
    }
    ++g->next;
  }
  if (g->next >= g->replicas.size()) {
    if (!options_.degraded_enabled) {
      Settle(g, Status::Ebusy());
      return;
    }
    StartDegraded(std::move(g), 0);
    return;
  }
  const size_t index = g->next++;
  const int node = g->replicas[index];
  ++g->tries;
  const DurationNs remaining = NoteSentDeadline(
      g->budget.unlimited() ? options_.deadline : g->budget.Remaining(now));
  if (g->last_sent_remaining >= 0 && remaining > g->last_sent_remaining) {
    ++budget_regressions_;
  }
  g->last_sent_remaining = remaining;

  auto attempt = std::make_shared<AttemptState>();
  attempt->node = node;
  attempt->index = index;
  attempt->sent_at = now;

  // The attempt timer exists for replies that never come inside the SLO —
  // dropped packets (retransmitted 200 ms later), paused nodes, partitions.
  // Generous on purpose: remaining budget + a full round trip + slack, so a
  // healthy world never races it.
  const DurationNs slack = options_.timer_slack >= 0 ? options_.timer_slack : options_.deadline;
  const DurationNs timer_delay = remaining + 2 * cluster_->network().round_trip_estimate() + slack;
  attempt->timer = sim_->Schedule(timer_delay, [this, g, attempt] {
    if (attempt->settled || g->settled) {
      return;
    }
    attempt->settled = true;
    ++timeouts_fired_;
    health_.OnTimeout(attempt->node);
    // Retry governance: a timeout retry re-sends work the cluster may still
    // be doing — only amplify when the token bucket allows, and never
    // back-to-back. A denied retry waits for the outstanding reply (the
    // network model always redelivers eventually), which is exactly the
    // no-amplification behavior a retry storm needs.
    if (retry_budget_.TryAcquire()) {
      attempt->retry_scheduled = true;
      ScheduleBackoff(g, [this, g] { TryNext(g); });
    } else if (obs::MetricsRegistry* m = sim_->metrics()) {
      m->counter("resilience_retry_denied_total").Add();
    }
  });

  SendGet(
      node, g->key, remaining,
      [this, g, attempt](Status status) {
        // Health sees every reply, even stale ones — a late answer is still
        // evidence about the replica.
        health_.OnReply(attempt->node, sim_->Now() - attempt->sent_at, status.busy());
        if (attempt->settled) {
          // The timer abandoned this attempt, but a late success can still
          // rescue the get (done-once is guarded by g->settled).
          if (status.ok()) {
            Settle(g, status);
            return;
          }
          // Liveness: when the retry token bucket denied the timer a resend,
          // this late reply is the only thing still driving the get — a late
          // EBUSY (or error) must advance the walk, not be swallowed.
          // test_swallow_late_reply reinstates the pre-fix swallow as the
          // chaos search's planted bug (see ResilientOptions).
          if (!options_.test_swallow_late_reply && !attempt->retry_scheduled && !g->settled) {
            if (status.busy()) {
              g->hints[attempt->index] = status.wait_hint();
              ++ebusy_failovers_;
              RecordFailover(g->trace);
              TryNext(g);
            } else {
              Settle(g, status);
            }
          }
          return;
        }
        attempt->settled = true;
        sim_->Cancel(attempt->timer);
        if (g->settled) {
          return;
        }
        if (status.busy()) {
          g->hints[attempt->index] = status.wait_hint();
          ++ebusy_failovers_;
          RecordFailover(g->trace);
          TryNext(g);  // Instant, exceptionless failover (§5) — no backoff.
          return;
        }
        Settle(g, status);
      },
      g->trace);
}

void ResilientMittosStrategy::StartDegraded(std::shared_ptr<GetState> g, int round) {
  if (g->settled) {
    return;
  }
  // Min-wait-hint first (§7.8.1's informed pick), replicas that never
  // answered (timeout, unknown hint) last; stable within ties so the health
  // ordering still breaks them.
  g->degraded_order = g->replicas;
  std::stable_sort(g->degraded_order.begin(), g->degraded_order.end(), [&g](int a, int b) {
    auto hint_of = [&g](int node) {
      for (size_t i = 0; i < g->replicas.size(); ++i) {
        if (g->replicas[i] == node) {
          const DurationNs h = g->hints[i];
          return h == kNoHint ? INT64_MAX : h;
        }
      }
      return INT64_MAX;
    };
    return hint_of(a) < hint_of(b);
  });
  g->degraded_next = 0;
  DegradedNext(std::move(g), round);
}

void ResilientMittosStrategy::DegradedNext(std::shared_ptr<GetState> g, int round) {
  if (g->settled) {
    return;
  }
  if (g->degraded_next >= g->degraded_order.size()) {
    // Every replica shed this round: the whole cluster is saturated beyond
    // its degraded-admission capacity. Back off and re-walk; slots free up
    // as admitted reads complete.
    if (round + 1 >= options_.degraded_max_rounds) {
      Settle(g, g->last_degraded_status);
      return;
    }
    ScheduleBackoff(g, [this, g, round] { StartDegraded(g, round + 1); });
    return;
  }
  const int node = g->degraded_order[g->degraded_next++];
  ++g->tries;
  ++degraded_gets_;
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("resilience_degraded_total").Add();
  }
  // Give the degraded server at least one full SLO to work with — bounded,
  // never disabled. When the replica's EBUSY told us its predicted wait, send
  // hint + SLO so the very first degraded attempt admits instead of burning a
  // server-side reject/wait/escalate cycle; the cap mirrors the server's.
  DurationNs deadline =
      std::max(g->budget.unlimited() ? options_.deadline : g->budget.Remaining(sim_->Now()),
               options_.deadline);
  for (size_t i = 0; i < g->replicas.size(); ++i) {
    if (g->replicas[i] == node && g->hints[i] != kNoHint) {
      deadline = std::max(deadline, g->hints[i] + options_.deadline);
      break;
    }
  }
  deadline = NoteSentDeadline(std::min(deadline, options_.degraded_deadline_cap));
  SendDegradedGet(
      node, g->key, deadline,
      [this, g, round](Status status) {
        if (g->settled) {
          return;
        }
        g->last_degraded_status = status;
        if (status.code() == StatusCode::kUnavailable) {
          ++degraded_sheds_seen_;
          DegradedNext(g, round);
          return;
        }
        Settle(g, status);
      },
      g->trace);
}

}  // namespace mitt::client
