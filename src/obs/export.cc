#include "src/obs/export.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "src/common/table.h"

namespace mitt::obs {
namespace {

// pid layout: one process group per (trial group, node). Nodes get pids
// starting at kNodePidBase within their group block so "node -1" (client
// side) lands on pid 1 of the block.
constexpr int kGroupPidStride = 1024;
constexpr int kNodePidBase = 2;

int PidOf(size_t group_index, int32_t node) {
  return static_cast<int>(group_index) * kGroupPidStride + kNodePidBase + node;
}

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out.append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendF(out, "\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- JSON writer -------------------------------------------------------------

void JsonWriter::NewLine() {
  out_ += '\n';
  out_.append(2 * has_items_.size(), ' ');
}

JsonWriter& JsonWriter::Raw(std::string_view token) {
  if (after_key_) {
    after_key_ = false;
  } else if (!has_items_.empty()) {
    if (has_items_.back()) {
      out_ += ',';
    }
    has_items_.back() = true;
    NewLine();
  }
  out_ += token;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Raw(std::string(1, '"').append(JsonEscape(key)).append("\": "));
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view text) {
  return Raw(std::string(1, '"').append(JsonEscape(text)).append(1, '"'));
}

JsonWriter& JsonWriter::Value(double value) {
  if (!std::isfinite(value)) {
    return Raw("null");
  }
  char buf[32];
  return Raw(std::string_view(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr));
}

JsonWriter& JsonWriter::Open(char bracket) {
  Raw(std::string_view(&bracket, 1));
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  const bool had_items = has_items_.back();
  has_items_.pop_back();
  if (had_items) {
    NewLine();
  }
  out_ += bracket;
  if (has_items_.empty()) {
    out_ += '\n';
  }
  return *this;
}

void BeginBenchArtifact(JsonWriter& w, std::string_view benchmark) {
  w.BeginObject()
      .Field("benchmark", benchmark)
      .Field("host_cpus", std::thread::hardware_concurrency())
      .Field("build_type", MITT_BUILD_TYPE);
}

bool WriteTextFile(const std::string& path, std::string_view text, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  const bool written =
      file != nullptr && std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (file != nullptr && std::fclose(file) == 0 && written) {
    return true;
  }
  if (error != nullptr) {
    *error = path + ": " + std::strerror(errno);  // Set by the failed fopen/fwrite/fclose.
  }
  return false;
}

// --- Chrome trace export -----------------------------------------------------

std::string ChromeTraceJson(std::span<const TraceGroup> groups) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Process-name metadata first, in (group, node) order.
  for (size_t g = 0; g < groups.size(); ++g) {
    std::map<int32_t, bool> nodes;
    for (const SpanRecord& s : groups[g].spans) {
      nodes[s.node] = true;
    }
    for (const auto& [node, unused] : nodes) {
      AppendF(out, "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":",
              first ? "" : ",", PidOf(g, node));
      const std::string label = JsonEscape(groups[g].label);
      if (node < 0) {
        out += "\"" + label + "/client\"}}";
      } else {
        out += "\"" + label + "/node";
        AppendF(out, "%d\"}}", node);
      }
      first = false;
    }
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const SpanRecord& s : groups[g].spans) {
      const char* name = SpanKindName(s.kind).data();  // Literal-backed, NUL-terminated.
      const double ts_us = static_cast<double>(s.begin) / 1000.0;
      if (s.begin == s.end) {
        AppendF(out,
                "%s\n{\"name\":\"%s\",\"cat\":\"obs\",\"ph\":\"i\",\"s\":\"t\","
                "\"ts\":%.3f,\"pid\":%d,\"tid\":%llu}",
                first ? "" : ",", name, ts_us, PidOf(g, s.node),
                static_cast<unsigned long long>(s.request_id));
      } else {
        AppendF(out,
                "%s\n{\"name\":\"%s\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":%.3f,"
                "\"dur\":%.3f,\"pid\":%d,\"tid\":%llu}",
                first ? "" : ",", name, ts_us,
                static_cast<double>(s.end - s.begin) / 1000.0, PidOf(g, s.node),
                static_cast<unsigned long long>(s.request_id));
      }
      first = false;
    }
  }
  out += "\n]}\n";
  return out;
}

std::string ChromeTraceJson(const std::vector<SpanRecord>& spans, std::string_view label) {
  TraceGroup group;
  group.label = std::string(label);
  group.spans = spans;
  return ChromeTraceJson(std::span<const TraceGroup>(&group, 1));
}

// --- JSON validator ----------------------------------------------------------

namespace {

struct JsonParser {
  std::string_view text;
  size_t pos = 0;
  int depth = 0;

  static constexpr int kMaxDepth = 64;

  void SkipWs() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }
  bool Eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool ParseString() {
    if (!Eat('"')) {
      return false;
    }
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos >= text.size()) {
          return false;
        }
        ++pos;  // Accept any escaped char (validator, not decoder).
      }
    }
    return false;
  }

  bool ParseNumber() {
    const size_t start = pos;
    if (pos < text.size() && text[pos] == '-') {
      ++pos;
    }
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    return pos > start;
  }

  bool ParseLiteral(std::string_view lit) {
    if (text.substr(pos, lit.size()) == lit) {
      pos += lit.size();
      return true;
    }
    return false;
  }

  bool ParseValue() {
    if (++depth > kMaxDepth) {
      return false;
    }
    SkipWs();
    bool ok = false;
    if (pos >= text.size()) {
      ok = false;
    } else if (text[pos] == '{') {
      ok = ParseObject();
    } else if (text[pos] == '[') {
      ok = ParseArray();
    } else if (text[pos] == '"') {
      ok = ParseString();
    } else if (text[pos] == 't') {
      ok = ParseLiteral("true");
    } else if (text[pos] == 'f') {
      ok = ParseLiteral("false");
    } else if (text[pos] == 'n') {
      ok = ParseLiteral("null");
    } else {
      ok = ParseNumber();
    }
    --depth;
    return ok;
  }

  bool ParseObject() {
    if (!Eat('{')) {
      return false;
    }
    SkipWs();
    if (Eat('}')) {
      return true;
    }
    for (;;) {
      SkipWs();
      if (!ParseString()) {
        return false;
      }
      SkipWs();
      if (!Eat(':') || !ParseValue()) {
        return false;
      }
      SkipWs();
      if (Eat('}')) {
        return true;
      }
      if (!Eat(',')) {
        return false;
      }
    }
  }

  bool ParseArray() {
    if (!Eat('[')) {
      return false;
    }
    SkipWs();
    if (Eat(']')) {
      return true;
    }
    for (;;) {
      if (!ParseValue()) {
        return false;
      }
      SkipWs();
      if (Eat(']')) {
        return true;
      }
      if (!Eat(',')) {
        return false;
      }
    }
  }
};

}  // namespace

bool ValidateJsonSyntax(std::string_view text) {
  JsonParser parser{text};
  if (!parser.ParseValue()) {
    return false;
  }
  parser.SkipWs();
  return parser.pos == text.size();
}

// --- Latency breakdown -------------------------------------------------------

std::string_view RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kCacheHit:
      return "cache_hit";
    case RequestOutcome::kAccepted:
      return "accepted";
    case RequestOutcome::kRejected:
      return "rejected";
    case RequestOutcome::kFailedOver:
      return "failed_over";
  }
  return "?";
}

LatencyBreakdown ComputeLatencyBreakdown(std::span<const SpanRecord> spans) {
  LatencyBreakdown out;
  // Group by request id; std::map keeps request order deterministic.
  std::map<uint64_t, std::vector<const SpanRecord*>> by_request;
  for (const SpanRecord& s : spans) {
    if (s.request_id == 0) {
      ++out.untraced_spans;
      continue;
    }
    by_request[s.request_id].push_back(&s);
  }

  BreakdownRow rows[4];
  for (int i = 0; i < 4; ++i) {
    rows[i].outcome = static_cast<RequestOutcome>(i);
  }

  for (auto& [id, request_spans] : by_request) {
    std::stable_sort(request_spans.begin(), request_spans.end(),
                     [](const SpanRecord* a, const SpanRecord* b) { return a->begin < b->begin; });
    // Syscall spans, and whether each contains a rejection instant.
    const SpanRecord* last_success = nullptr;
    int syscalls = 0;
    int rejected_syscalls = 0;
    for (const SpanRecord* s : request_spans) {
      if (s->kind != SpanKind::kSyscall) {
        continue;
      }
      ++syscalls;
      bool rejected = false;
      for (const SpanRecord* r : request_spans) {
        if (r->kind == SpanKind::kEbusyReject && r->node == s->node && r->begin >= s->begin &&
            r->end <= s->end) {
          rejected = true;
          break;
        }
      }
      if (rejected) {
        ++rejected_syscalls;
      } else {
        last_success = s;
      }
    }
    if (syscalls == 0) {
      continue;  // Window lost to ring overwrite; nothing to attribute.
    }

    RequestOutcome outcome;
    DurationNs queue = 0;
    DurationNs device = 0;
    DurationNs e2e = 0;
    if (last_success == nullptr) {
      outcome = RequestOutcome::kRejected;
      // Attribute the fast-rejection round trips: sum of rejected syscall
      // spans (their duration is the EBUSY syscall overhead).
      for (const SpanRecord* s : request_spans) {
        if (s->kind == SpanKind::kSyscall) {
          e2e += s->end - s->begin;
        }
      }
    } else {
      for (const SpanRecord* s : request_spans) {
        if (s->begin < last_success->begin || s->end > last_success->end ||
            s->node != last_success->node) {
          continue;
        }
        if (s->kind == SpanKind::kQueueWait) {
          queue += s->end - s->begin;
        } else if (s->kind == SpanKind::kDeviceService) {
          device += s->end - s->begin;
        }
      }
      e2e = last_success->end - last_success->begin;
      if (rejected_syscalls > 0) {
        outcome = RequestOutcome::kFailedOver;
      } else if (queue == 0 && device == 0) {
        outcome = RequestOutcome::kCacheHit;
      } else {
        outcome = RequestOutcome::kAccepted;
      }
    }

    BreakdownRow& row = rows[static_cast<int>(outcome)];
    ++row.requests;
    row.queue_wait.Record(queue);
    row.device_service.Record(device);
    row.syscall_overhead.Record(std::max<DurationNs>(0, e2e - queue - device));
    row.end_to_end.Record(e2e);
  }

  for (BreakdownRow& row : rows) {
    if (row.requests > 0) {
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

void PrintLatencyBreakdown(const LatencyBreakdown& breakdown) {
  Table table({"outcome", "n", "component", "p50 (ms)", "p95 (ms)", "p99 (ms)", "mean (ms)"});
  const std::vector<double> pcts = {50, 95, 99};
  for (const BreakdownRow& row : breakdown.rows) {
    struct Component {
      const char* name;
      const LatencyRecorder* rec;
    };
    const Component components[] = {
        {"queue_wait", &row.queue_wait},
        {"device_service", &row.device_service},
        {"syscall_overhead", &row.syscall_overhead},
        {"end_to_end", &row.end_to_end},
    };
    bool first = true;
    for (const Component& c : components) {
      const auto values = c.rec->Percentiles(pcts);
      table.AddRow({first ? std::string(RequestOutcomeName(row.outcome)) : "",
                    first ? std::to_string(row.requests) : "", c.name,
                    Table::Num(ToMillis(values[0]), 3), Table::Num(ToMillis(values[1]), 3),
                    Table::Num(ToMillis(values[2]), 3),
                    Table::Num(c.rec->MeanNs() / kMillisecond, 3)});
      first = false;
    }
  }
  table.Print();
  if (breakdown.untraced_spans > 0) {
    std::printf("(untraced background/noise spans: %llu)\n",
                static_cast<unsigned long long>(breakdown.untraced_spans));
  }
}

}  // namespace mitt::obs
