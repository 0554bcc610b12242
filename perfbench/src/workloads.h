// The benchmark's three named workloads, each a fixed harness::Experiment
// recipe over a seed. perfbench/README.md records why each one exists.

#ifndef MITT_PERFBENCH_WORKLOADS_H_
#define MITT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/experiment.h"

namespace perfbench {

struct Workload {
  std::string name;
  mitt::harness::StrategyKind strategy = mitt::harness::StrategyKind::kMittos;
  // Gets per measured Experiment: warmup (unmeasured) plus measured.
  uint64_t warmup_gets = 0;
  uint64_t measured_gets = 0;
  // Open-loop replay only: the trace file written at setup.
  std::string trace_path;
  // num_clients is 0 for the open-loop replay; `deadline` is the SLO a get
  // must meet, except in tenant runs, where each tenant's class SLO is;
  // intra_workers is 1, the measured runs' count (a sharded engine is also
  // checked at 2).
  mitt::harness::ExperimentOptions options;
};

const std::vector<std::string>& WorkloadNames();

// Builds the named workload for `seed`; `work_dir` holds generated inputs.
// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, const std::string& work_dir,
                  Workload* out);

// Writes the workload's generated inputs (the replay trace, when it has
// one). Part of set-up. Returns false and sets *error on failure.
bool WriteInputs(const Workload& workload, std::string* error);

// The same world with no measured arrivals: only the unmeasured warm-up
// gets, which fill the page caches (and size their tables), or with
// `warmup` false no arrivals at all, just the world build.
mitt::harness::ExperimentOptions SetupOnly(const Workload& workload, bool warmup);

}  // namespace perfbench

#endif  // MITT_PERFBENCH_WORKLOADS_H_
