// Chaos-search throughput report (DESIGN.md §4j): a time-budgeted,
// report-only search over the standard chaos world. No expectations are
// asserted — this is the perf-smoke artifact generator. Prints the human
// summary and (with --json) writes the machine-readable report so CI can
// track coverage growth and trials/second across commits.
//
//   bench_chaos [--budget-ms MS] [--trials N] [--seed S] [--json FILE]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/chaos/explorer.h"
#include "src/obs/export.h"

int main(int argc, char** argv) {
  using namespace mitt;

  chaos::ExplorerOptions opt;
  opt.max_trials = 300;
  opt.time_budget_ms = 10000;
  opt.max_findings = 8;  // Report-only: keep searching past the first find.
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--budget-ms") {
      const char* v = next();
      if (v != nullptr) opt.time_budget_ms = std::atoll(v);
    } else if (arg == "--trials") {
      const char* v = next();
      if (v != nullptr) opt.max_trials = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v != nullptr) opt.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--json") {
      const char* v = next();
      if (v != nullptr) json_path = v;
    } else {
      std::fprintf(stderr, "usage: bench_chaos [--budget-ms MS] [--trials N] [--seed S] "
                           "[--json FILE]\n");
      return 64;
    }
  }

  std::printf("=== Chaos search throughput (budget %lld ms, <= %d trials) ===\n",
              static_cast<long long>(opt.time_budget_ms), opt.max_trials);
  const auto start = std::chrono::steady_clock::now();
  const chaos::SearchReport report = chaos::RunSearch(opt);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  const int total_trials = report.trials + report.shrink_trials;
  std::printf("trials            %d (+%d shrink)\n", report.trials, report.shrink_trials);
  std::printf("wall              %.2f s (%.1f trials/s)\n", secs,
              secs > 0 ? total_trials / secs : 0.0);
  std::printf("corpus            %zu plans\n", report.corpus_size);
  std::printf("coverage          %zu behavior features\n", report.coverage_features);
  std::printf("grid checks       %d\n", report.grid_checks);
  std::printf("findings          %zu%s\n", report.findings.size(),
              report.findings.empty() ? " (expected: the shipped code is clean)" : "");
  for (const chaos::Finding& f : report.findings) {
    std::printf("  [%s] %s: %s (plan %zu -> %zu episodes)\n", f.oracle.c_str(),
                f.strategy.c_str(), f.detail.c_str(), f.plan.size(), f.shrunk.size());
  }

  if (!json_path.empty()) {
    if (std::string error; !obs::WriteTextFile(json_path, report.ToJson(), &error)) {
      std::fprintf(stderr, "bench_chaos: cannot write %s\n", error.c_str());
      return 64;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;  // Report-only: findings are data here, not failures.
}
