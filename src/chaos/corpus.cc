#include "src/chaos/corpus.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/fault/plan_serde.h"
#include "src/obs/export.h"

namespace mitt::chaos {
namespace {

constexpr std::string_view kHeader = "# mittos chaos corpus v1";

std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
      ++i;
    }
    size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') {
      ++j;
    }
    if (j > i) {
      out.push_back(line.substr(i, j - i));
    }
    i = j;
  }
  return out;
}

bool ParseI64(std::string_view s, int64_t* out) {
  if (s.empty() || s.size() >= 32) {
    return false;
  }
  char buf[32];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  const long long v = std::strtoll(buf, &end, 10);
  if (end != buf + s.size()) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseWorldLine(std::string_view line, ChaosWorldOptions* world, std::string* error) {
  const std::vector<std::string_view> tokens = Tokens(line);
  for (size_t i = 1; i < tokens.size(); ++i) {
    const size_t eq = tokens[i].find('=');
    if (eq == std::string_view::npos || eq == 0) {
      *error = "malformed world token '" + std::string(tokens[i]) + "'";
      return false;
    }
    const std::string_view key = tokens[i].substr(0, eq);
    int64_t v = 0;
    if (!ParseI64(tokens[i].substr(eq + 1), &v)) {
      *error = "unparsable world value '" + std::string(tokens[i]) + "'";
      return false;
    }
    // A world the harness cannot build (no nodes, no clients, a negative
    // count that would wrap in size_t, a value past int) is a parse error.
    int64_t lo = std::numeric_limits<int64_t>::min();
    int64_t hi = std::numeric_limits<int64_t>::max();
    if (key == "nodes" || key == "clients" || key == "shards") {
      lo = key == "shards" ? 0 : 1;  // shards=0 = auto.
      hi = std::numeric_limits<int>::max();
    } else if (key == "requests" || key == "warmup") {
      lo = 0;
    } else if (key == "deadline" || key == "horizon") {
      lo = 1;
    }
    if (v < lo || v > hi) {
      *error = "world value out of range '" + std::string(tokens[i]) + "' (allowed " +
               std::to_string(lo) + ".." + std::to_string(hi) + ")";
      return false;
    }
    if (key == "nodes") {
      world->num_nodes = static_cast<int>(v);
    } else if (key == "clients") {
      world->num_clients = static_cast<int>(v);
    } else if (key == "requests") {
      world->requests = static_cast<size_t>(v);
    } else if (key == "warmup") {
      world->warmup = static_cast<size_t>(v);
    } else if (key == "deadline") {
      world->deadline = v;
    } else if (key == "horizon") {
      world->horizon = v;
    } else if (key == "shards") {
      world->num_shards = static_cast<int>(v);
    } else if (key == "seed") {
      world->seed = static_cast<uint64_t>(v);
    } else if (key == "bug") {
      world->inject_bug = v != 0;
    } else if (key == "tenants") {
      world->tenants = v != 0;
    } else {
      *error = "unknown world key '" + std::string(key) + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

std::string CorpusEntryToText(const CorpusEntry& entry) {
  std::string out(kHeader);
  out += '\n';
  if (!entry.note.empty()) {
    out += "# ";
    out += entry.note;
    out += '\n';
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "world nodes=%d clients=%d requests=%zu warmup=%zu deadline=%" PRId64
                " horizon=%" PRId64 " shards=%d seed=%" PRIu64 " bug=%d tenants=%d",
                entry.world.num_nodes, entry.world.num_clients, entry.world.requests,
                entry.world.warmup, entry.world.deadline, entry.world.horizon,
                entry.world.num_shards, entry.world.seed, entry.world.inject_bug ? 1 : 0,
                entry.world.tenants ? 1 : 0);
  out += buf;
  out += '\n';
  for (const std::string& oracle : entry.expect) {
    out += "expect ";
    out += oracle;
    out += '\n';
  }
  for (const fault::FaultEpisode& e : entry.plan.episodes()) {
    out += fault::EpisodeToLine(e);
    out += '\n';
  }
  return out;
}

bool CorpusEntryFromText(std::string_view text, CorpusEntry* out, std::string* error) {
  CorpusEntry entry;
  std::vector<fault::FaultEpisode> episodes;
  bool saw_world = false;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t nl = text.find('\n', pos);
    std::string_view line =
        nl == std::string_view::npos ? text.substr(pos) : text.substr(pos, nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') {
      continue;
    }
    const std::vector<std::string_view> tokens = Tokens(line);
    std::string line_error;
    if (tokens[0] == "world") {
      if (!ParseWorldLine(line, &entry.world, &line_error)) {
        *error = "line " + std::to_string(line_no) + ": " + line_error;
        return false;
      }
      saw_world = true;
    } else if (tokens[0] == "expect") {
      if (tokens.size() != 2) {
        *error = "line " + std::to_string(line_no) + ": expect takes exactly one oracle name";
        return false;
      }
      entry.expect.emplace_back(tokens[1]);
    } else if (tokens[0] == "episode") {
      fault::FaultEpisode e;
      if (!fault::EpisodeFromLine(line, &e, &line_error)) {
        *error = "line " + std::to_string(line_no) + ": " + line_error;
        return false;
      }
      episodes.push_back(e);
    } else {
      *error = "line " + std::to_string(line_no) + ": unknown directive '" +
               std::string(tokens[0]) + "'";
      return false;
    }
  }
  if (!saw_world) {
    *error = "no 'world' line";
    return false;
  }
  entry.plan = fault::FaultPlan(std::move(episodes));
  *out = std::move(entry);
  return true;
}

bool SaveCorpusEntry(const std::string& path, const CorpusEntry& entry, std::string* error) {
  return obs::WriteTextFile(path, CorpusEntryToText(entry), error);
}

bool LoadCorpusEntry(const std::string& path, CorpusEntry* out, std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    *error = "cannot open: " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return CorpusEntryFromText(ss.str(), out, error);
}

}  // namespace mitt::chaos
