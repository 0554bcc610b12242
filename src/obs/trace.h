// Span-based per-request tracing against simulated time.
//
// Every MittOS figure is a question about where a request's time went:
// queued behind a noisy neighbor in CFQ, stuck behind a chip program in
// MittSSD, or rejected fast with EBUSY. The tracer answers it with spans —
// (request id, kind, [begin, end], node) records — emitted by each layer a
// request crosses:
//
//   client get  ──────────────────────────────────────────────▶ done
//      │ syscall      [Os::Read entry .. completion delivery]
//      │   cache_lookup   (instant, at entry)
//      │   predict        (instant, at admission check)
//      │   queue_wait     [scheduler enqueue .. device dispatch]
//      │   device_service [dispatch .. device completion]
//      │   ebusy_reject   (instant, when the predictor rejects)
//      │ failover         (instant, client-side retry on EBUSY)
//
// Determinism: span timestamps are simulated time, request ids are handed
// out by a per-simulator counter, and each trial owns its own Tracer whose
// buffer is merged in trial order — so trace output is bit-identical for any
// MITT_TRIAL_WORKERS setting.
//
// Cost: recording is a bounds-checked ring-buffer append behind a null-check
// on Simulator::tracer(); with MITT_OBS_DISABLED the null-check is a
// compile-time constant and the whole path folds away (see gate.h).

#ifndef MITTOS_OBS_TRACE_H_
#define MITTOS_OBS_TRACE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/obs/gate.h"

namespace mitt::obs {

// Identifies one logical client request across layers and failover retries.
// id 0 means "untraced" (noise-tenant and background IOs): layer spans are
// still recorded for them — they are the contention the trace exists to
// show — but they do not form per-request groups in the breakdown.
struct TraceContext {
  uint64_t id = 0;
  int32_t node = -1;  // Node label; -1 while client-side.

  bool traced() const { return id != 0; }
};

enum class SpanKind : uint8_t {
  kSyscall,        // Os::Read/ReadWithWaitHint/AddrCheck entry -> reply.
  kCacheLookup,    // Page-cache residency probe (instant).
  kPredict,        // Mitt* admission check (instant).
  kQueueWait,      // Scheduler enqueue -> device dispatch.
  kDeviceService,  // Device dispatch -> completion.
  kEbusyReject,    // Fast rejection (instant).
  kFailover,       // Client-side failover hop (instant).
  kFaultActive,    // src/fault/ episode window [inject, clear] on a node.
  // src/resilience/ events ("resilience.*" in exported traces):
  kBreakerOpen,      // Circuit breaker tripped open for a replica (instant).
  kBreakerHalfOpen,  // Open window elapsed; probing allowed (instant).
  kBreakerClose,     // Probe succeeded; replica back in rotation (instant).
  kDegradedGet,      // All-busy degraded read issued to min-hint replica (instant).
  kShed,             // Server admission gate shed a degraded read (instant).
  kBackoff,          // Client retry backoff window [start, resume].
};

std::string_view SpanKindName(SpanKind kind);

struct SpanRecord {
  uint64_t request_id = 0;
  TimeNs begin = 0;
  TimeNs end = 0;
  int32_t node = -1;
  SpanKind kind = SpanKind::kSyscall;
};

// Fixed-capacity ring buffer of spans for one simulator. When full, the
// oldest spans are overwritten (and counted in dropped()) so a long run
// keeps its most recent window — the part a tail investigation looks at.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = size_t{1} << 18;

  explicit Tracer(size_t capacity = kDefaultCapacity);

  // Runtime flag: a disabled tracer records nothing and hands out no ids.
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Deterministic per-simulator request ids, starting at 1.
  uint64_t NewRequestId() { return next_request_id_++; }

  // Namespaces this tracer's request ids: subsequent ids are base+1,
  // base+2, ... Sharded runs give shard s the base s<<40 so ids from
  // different shards never collide and a request's home shard is readable
  // from its id. Base 0 (the default) is shard 0's and a standalone
  // simulator's stream.
  void SetRequestIdBase(uint64_t base) { next_request_id_ = base + 1; }

  void RecordSpan(SpanKind kind, const TraceContext& ctx, TimeNs begin, TimeNs end);
  void RecordInstant(SpanKind kind, const TraceContext& ctx, TimeNs at) {
    RecordSpan(kind, ctx, at, at);
  }

  // Spans oldest-to-newest (unwraps the ring).
  std::vector<SpanRecord> OrderedSpans() const;

  size_t size() const { return size_; }
  size_t capacity() const { return ring_.size(); }
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return recorded_ - size_; }

  void Clear();

 private:
  std::vector<SpanRecord> ring_;
  size_t head_ = 0;  // Next write position.
  size_t size_ = 0;
  uint64_t recorded_ = 0;
  uint64_t next_request_id_ = 1;
  bool enabled_ = true;
};

// Deterministic merge of per-shard trace rings at harvest time: shard rings
// are concatenated in shard order, then stable-sorted by (begin, end) — so
// the result is chronological, ties resolve by shard index, and the output
// is byte-identical for any MITT_INTRA_WORKERS / MITT_TRIAL_WORKERS setting
// (each ring's content is itself deterministic; only which *thread* filled
// it varies). Drop-oldest truncation is per-shard and equally deterministic.
// A single ring (a one-shard world) is returned as recorded, oldest first:
// it is already one deterministic sequence and needs no merge.
std::vector<SpanRecord> MergeShardSpans(const std::vector<const Tracer*>& shard_tracers);

}  // namespace mitt::obs

#endif  // MITTOS_OBS_TRACE_H_
