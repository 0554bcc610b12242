// Trace consumers: Chrome trace_event JSON export and the per-layer
// latency-breakdown table; plus the JSON writer every bench artifact uses.
//
// The JSON is the Chrome Trace Event Format ("traceEvents" array of "X"
// complete events, microsecond timestamps) — load it in chrome://tracing or
// https://ui.perfetto.dev. pid encodes (trial, node) so a merged multi-trial
// export shows each trial's nodes as separate process groups; tid is the
// request id, so one row per request shows its whole syscall -> queue ->
// device -> (reject/failover) story.
//
// The breakdown table answers the attribution question directly: for each
// request outcome (cache hit / accepted device IO / rejected / failed-over),
// the p50/p95/p99 of queue-wait vs device-service vs syscall-overhead, where
// syscall overhead := end-to-end minus queue minus device — the residual the
// OS itself spent (admission check, completion delivery).

#ifndef MITTOS_OBS_EXPORT_H_
#define MITTOS_OBS_EXPORT_H_

#include <charconv>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/latency_recorder.h"
#include "src/obs/trace.h"

namespace mitt::obs {

// One trial's (or run's) spans plus the label shown in the trace viewer.
struct TraceGroup {
  std::string label;
  std::vector<SpanRecord> spans;
};

// Serializes groups (in order) to Chrome trace_event JSON. Deterministic:
// output depends only on the groups' contents and order. Labels are escaped
// with JsonEscape, so hostile strings (quotes, backslashes, control chars)
// cannot break the document.
std::string ChromeTraceJson(std::span<const TraceGroup> groups);
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            std::string_view label = "run");

// Escapes a string for embedding inside a JSON string literal: quotes,
// backslashes, and control characters (U+0000..U+001F as \uXXXX). Every
// exporter that emits caller-supplied text (trace labels, scenario names)
// must route it through here.
std::string JsonEscape(std::string_view text);

// Streaming JSON writer behind every bench artifact and scorecard string:
// it places commas, escapes strings, writes integers exactly and doubles as
// their shortest round-trip form (non-finite doubles become null). Output
// puts one member per line with two-space indents. Callers keep Begin*/End*
// balanced.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  // Names the next value; only valid directly inside an object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view text);
  JsonWriter& Value(const char* text) { return Value(std::string_view(text)); }
  JsonWriter& Value(bool value) { return Raw(value ? "true" : "false"); }
  JsonWriter& Value(double value);
  JsonWriter& Value(std::integral auto value) {
    char buf[24];
    return Raw(std::string_view(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr));
  }
  template <typename T>
  JsonWriter& Field(std::string_view key, const T& value) {
    return Key(key).Value(value);
  }

  // The document so far; a finished document ends in a newline.
  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  // Appends one value token (or key) after the separator and indent it needs.
  JsonWriter& Raw(std::string_view token);
  void NewLine();

  std::string out_;
  std::vector<bool> has_items_;  // One entry per open container.
  bool after_key_ = false;
};

// Opens the root object of a bench artifact and writes the header every
// BENCH_*.json starts with: "benchmark", "host_cpus", "build_type".
void BeginBenchArtifact(JsonWriter& w, std::string_view benchmark);

// Writes `text` to `path`, replacing it. On failure returns false and sets
// *error to "<path>: <errno text>".
bool WriteTextFile(const std::string& path, std::string_view text, std::string* error);

// Minimal structural JSON validator (objects, arrays, strings, numbers,
// literals). Used by tests and the quickstart smoke test to check exported
// traces parse, without an external JSON dependency.
bool ValidateJsonSyntax(std::string_view text);

// --- Latency breakdown -------------------------------------------------------

enum class RequestOutcome : uint8_t {
  kCacheHit,    // Syscall served from the page cache (no device IO).
  kAccepted,    // Device IO accepted and completed in one try.
  kRejected,    // Every syscall of the request ended in EBUSY.
  kFailedOver,  // >=1 EBUSY, then a later syscall succeeded.
};

std::string_view RequestOutcomeName(RequestOutcome outcome);

struct BreakdownRow {
  RequestOutcome outcome = RequestOutcome::kAccepted;
  uint64_t requests = 0;
  LatencyRecorder queue_wait;
  LatencyRecorder device_service;
  LatencyRecorder syscall_overhead;
  LatencyRecorder end_to_end;  // Across all the request's syscall spans.
};

struct LatencyBreakdown {
  std::vector<BreakdownRow> rows;  // One per outcome present, in enum order.
  uint64_t untraced_spans = 0;     // Spans with request id 0 (noise IOs).
};

// Groups spans by request id and classifies each request. Spans of a request
// whose syscall window is incomplete (ring overwrote its start) are skipped.
LatencyBreakdown ComputeLatencyBreakdown(std::span<const SpanRecord> spans);

// Paper-style table: one row per (outcome, component), p50/p95/p99 in ms.
void PrintLatencyBreakdown(const LatencyBreakdown& breakdown);

}  // namespace mitt::obs

#endif  // MITTOS_OBS_EXPORT_H_
