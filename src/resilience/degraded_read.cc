#include "src/resilience/degraded_read.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/resilience/deadline_budget.h"

namespace mitt::resilience {

DegradedReadLoop::DegradedReadLoop(sim::Simulator* sim, int node_id,
                                   const DegradedReadOptions& options, ReadFn read,
                                   HandlerFn handler)
    : sim_(sim),
      node_id_(node_id),
      options_(options),
      read_(std::move(read)),
      handler_(std::move(handler)),
      gate_(options.admission) {}

void DegradedReadLoop::Serve(uint64_t key, DurationNs deadline, obs::TraceContext trace,
                             DurationNs shed_hint, ReplyFn reply) {
  const obs::TraceContext server_trace{trace.id, node_id_};
  obs::Tracer* tr = sim_->tracer();
  obs::MetricsRegistry* m = sim_->metrics();
  if (!gate_.TryAdmit()) {
    if (tr != nullptr && tr->enabled()) {
      tr->RecordInstant(obs::SpanKind::kShed, server_trace, sim_->Now());
    }
    if (m != nullptr) {
      m->counter("resilience_shed_total", node_id_).Add();
    }
    handler_([reply = std::move(reply), shed_hint] { reply(Status::Unavailable(shed_hint)); });
    return;
  }
  if (tr != nullptr && tr->enabled()) {
    tr->RecordInstant(obs::SpanKind::kDegradedGet, server_trace, sim_->Now());
  }
  if (m != nullptr) {
    m->counter("resilience_degraded_admit_total", node_id_).Add();
  }
  // Bounded-deadline discipline: negative values clamp to 0 (kNoDeadline must
  // not sneak through the degraded path), and nothing exceeds the cap.
  DurationNs first = ClampDeadline(deadline);
  if (first < 0 || first > options_.deadline_cap) {
    first = options_.deadline_cap;
  }
  handler_([this, key, first, trace, reply = std::move(reply)]() mutable {
    Attempt(key, first, 0, trace, std::move(reply));
  });
}

void DegradedReadLoop::Attempt(uint64_t key, DurationNs deadline, int attempt,
                               obs::TraceContext trace, ReplyFn reply) {
  max_deadline_ = std::max(max_deadline_, deadline);
  read_(key, deadline, trace,
        [this, key, deadline, attempt, trace, reply = std::move(reply)](Status s) mutable {
          if (!s.busy() || attempt + 1 >= options_.max_attempts) {
            // Done (success, or attempts exhausted — surface the last status;
            // the escalation reaches the cap long before the attempt limit,
            // so exhaustion means a real outage).
            gate_.Release();
            handler_([reply = std::move(reply), s] { reply(s); });
            return;
          }
          // EBUSY: the predictor says the queue needs ~hint to drain. Wait it
          // out with the admission slot held (the "queue server-side behind
          // the gate" part), then re-issue with an escalated, still bounded
          // deadline.
          const DurationNs hint = s.wait_hint();
          const DurationNs next =
              std::min(std::max(deadline * 2, hint + deadline), options_.deadline_cap);
          const DurationNs wait = std::max<DurationNs>(hint, Micros(50));
          sim_->Schedule(wait, [this, key, next, attempt, trace,
                                reply = std::move(reply)]() mutable {
            Attempt(key, next, attempt + 1, trace, std::move(reply));
          });
        });
}

}  // namespace mitt::resilience
