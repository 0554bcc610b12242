// Server side of the degraded (all-replicas-busy) read, shared by every
// storage node (kv::DocStoreNode, lsm::LsmNode).
//
// A degraded read first passes the node's AdmissionGate. Over capacity it is
// shed: kUnavailable (+ wait hint) after one handler burst, as fast as an
// EBUSY reject, so the client walks on instead of queueing behind a convoy.
// An admitted read loops on EBUSY: it waits out the predicted wait (at least
// 50 us) with its gate slot held, then re-issues with the deadline escalated
// to max(2d, hint + d) — capped at `deadline_cap`, never disabled. It
// finishes on the first non-EBUSY status or after `max_attempts`, releasing
// the slot either way.

#ifndef MITTOS_RESILIENCE_DEGRADED_READ_H_
#define MITTOS_RESILIENCE_DEGRADED_READ_H_

#include <cstdint>
#include <functional>

#include "src/common/inline_function.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/obs/trace.h"
#include "src/resilience/admission_gate.h"
#include "src/sim/simulator.h"

namespace mitt::resilience {

struct DegradedReadOptions {
  AdmissionGateOptions admission;
  int max_attempts = 10;
  DurationNs deadline_cap = Seconds(2);
};

class DegradedReadLoop {
 public:
  // An EBUSY or a shed carries the predicted wait as Status::wait_hint().
  using ReplyFn = std::function<void(Status)>;
  // One read attempt of `key` bounded by `deadline`.
  using ReadFn =
      std::function<void(uint64_t key, DurationNs deadline, obs::TraceContext trace, ReplyFn done)>;
  // Runs `fn` after one request-handler CPU burst on the node.
  using HandlerFn = std::function<void(InlineFunction<void()> fn)>;

  DegradedReadLoop(sim::Simulator* sim, int node_id, const DegradedReadOptions& options,
                   ReadFn read, HandlerFn handler);

  // Scheduled attempts hold `this`.
  DegradedReadLoop(const DegradedReadLoop&) = delete;
  DegradedReadLoop& operator=(const DegradedReadLoop&) = delete;

  // Serves one degraded read; `shed_hint` is the wait hint a shed carries.
  void Serve(uint64_t key, DurationNs deadline, obs::TraceContext trace, DurationNs shed_hint,
             ReplyFn reply);

  const AdmissionGate& gate() const { return gate_; }
  // Largest deadline the loop ever issued — the boundedness proof.
  DurationNs max_deadline() const { return max_deadline_; }

 private:
  void Attempt(uint64_t key, DurationNs deadline, int attempt, obs::TraceContext trace,
               ReplyFn reply);

  sim::Simulator* sim_;
  int node_id_;
  DegradedReadOptions options_;
  ReadFn read_;
  HandlerFn handler_;
  AdmissionGate gate_;
  DurationNs max_deadline_ = 0;
};

}  // namespace mitt::resilience

#endif  // MITTOS_RESILIENCE_DEGRADED_READ_H_
