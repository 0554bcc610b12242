// The traced ladder: the workload's world rebuilt by the benchmark from the
// simulator's public constructors in nested rungs, each timed from outside.
//
//   sim     the engine alone: the workload's event count as empty callbacks
//           at the pending depth the full stack runs at
//   os      Os instances with the workload's noise attached; a driver calls
//           Os::Read with the workload's deadlines
//   kv      DocStoreNode::HandleGet and its CPU pool on top
//   client  Cluster, Network and the GetStrategy classes: the full stack,
//           composed by the benchmark
//
// Each rung's self time is its host time per get minus the rung below it;
// the harness rung (Experiment::Run) is timed by the caller. Host-clock
// spans are recorded around every call into a rung's top layer and around
// each reply callback; they stay in memory and are written out at the end.

#ifndef MITT_PERFBENCH_LADDER_H_
#define MITT_PERFBENCH_LADDER_H_

#include <cstdint>
#include <string>

#include "perfbench/src/workloads.h"

namespace perfbench {

// What the ladder needs from the untraced harness run.
struct HarnessShape {
  uint64_t gets = 0;        // Gets completed per Experiment::Run.
  uint64_t sim_events = 0;  // Engine events per Experiment::Run.
  mitt::TimeNs sim_duration = 0;
};

struct LadderResult {
  // Host ns per get of each rung with spans on.
  double sim_ns = 0;
  double os_ns = 0;
  double kv_ns = 0;
  double client_ns = 0;
  // The client rung again with spans off: the tracing overhead's base.
  double client_untraced_ns = 0;
  uint64_t spans = 0;
  // IOs the noise injectors issued in the client rung (same recipe and
  // seeds as the harness world, whose RunResult counts only IO injectors).
  uint64_t noise_ios = 0;
  // Sampled in the client rung (engine events pending) and the os rung
  // (IOs queued or in service per device): the depths the direct timings
  // and the sim rung reproduce.
  double pending_depth = 0;
  double queue_depth = 0;
};

// Runs rungs client -> kv -> os -> sim once; writes the spans to
// `span_path` unless it is empty. Returns false and sets *error when a rung
// does not complete its gets.
bool RunLadder(const Workload& workload, const HarnessShape& shape,
               const std::string& span_path, LadderResult* out, std::string* error);

// Folds another round into *best, keeping each rung's fastest time.
void KeepFastest(const LadderResult& round, LadderResult* best);

struct DirectResult {
  double page_cache_ns_per_lookup = 0;
  double predict_ns_per_call = 0;
  double device_ns_per_io = 0;
  double trace_ns_per_record = 0;
  uint64_t lookups = 0;
  uint64_t predict_calls = 0;
  uint64_t device_ios = 0;
  uint64_t trace_records = 0;
};

// Times single classes through their public functions with the workload's
// key/offset mix at `queue_depth`; the trace cursor reads `trace_file`.
DirectResult RunDirect(const Workload& workload, double queue_depth,
                       const std::string& trace_file);

}  // namespace perfbench

#endif  // MITT_PERFBENCH_LADDER_H_
