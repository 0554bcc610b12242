// The chaos-search trial world (DESIGN.md §4j).
//
// One ChaosWorldOptions describes a small, fast, fault-rich simulation —
// paper-scale topology (3 nodes, pinned primary, light contention) with a
// FaultPlan injected on top — that the explorer can afford to run hundreds of
// times. RunChaosTrial() replays ONE FaultPlan against every configured
// strategy with identical seeds, harvests the invariant-oracle ground truth
// (harness::OracleHarvest), checks the oracles, and produces a canonical
// fingerprint string for the determinism oracle: two runs of the same
// (world, plan) must fingerprint byte-identically at ANY
// MITT_TRIAL_WORKERS x MITT_INTRA_WORKERS point, or the engine itself is the
// bug. The shard count is pinned (never auto) because it is part of the
// world: per-shard strategy seeds are salted and clients draw per-client
// quotas on two or more shards, so a different shard count is a *different*
// (equally valid) simulation, not a comparison point.

#ifndef MITTOS_CHAOS_WORLD_H_
#define MITTOS_CHAOS_WORLD_H_

#include <string>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/harness/experiment.h"

namespace mitt::chaos {

struct ChaosWorldOptions {
  int num_nodes = 3;
  int num_clients = 4;
  size_t requests = 360;     // Measured closed-loop requests.
  size_t warmup = 40;
  DurationNs deadline = Millis(12);
  TimeNs horizon = Millis(700);  // Fault plans live in [0, horizon).
  // Pinned shard count (0 would auto-resolve to 1 at this scale; 2 keeps the
  // cross-shard machinery — mailboxes, barriers, global ticks — inside every
  // chaos trial, where the grid oracle can catch it drifting).
  int num_shards = 2;
  uint64_t seed = 42;
  // Ground-truth plant: reintroduces the denied-retry/late-EBUSY liveness
  // hang (client::ResilientOptions::test_swallow_late_reply). The completion
  // oracle must find it; the acceptance demo shrinks it.
  bool inject_bug = false;
  // Tenant overlay: multi-tenant drivers + SLO-aware placement controller,
  // which arms the placement-validity oracle.
  bool tenants = false;
  std::vector<harness::StrategyKind> strategies = {
      harness::StrategyKind::kMittos, harness::StrategyKind::kMittosResilient};
};

// The full harness options for one (world, plan) trial. Exposed so tests can
// tweak a single knob without re-deriving the recipe.
harness::ExperimentOptions MakeExperimentOptions(const ChaosWorldOptions& world,
                                                 const fault::FaultPlan& plan);

// One invariant-oracle violation. `oracle` is the stable machine-readable
// name (corpus files key expectations on it); `strategy` the RunResult name
// it fired on; `detail` the human-readable evidence.
struct Violation {
  std::string oracle;
  std::string strategy;
  std::string detail;
};

struct TrialOutcome {
  std::vector<harness::RunResult> results;  // One per world.strategies entry.
  std::vector<Violation> violations;
  std::string fingerprint;  // Canonical scorecard (determinism oracle input).
};

// Replays `plan` against every strategy in `world` (fresh simulation each,
// identical seeds) and checks every post-run oracle. `trial_workers` /
// `intra_workers` only change wall-clock parallelism; the outcome (results,
// violations, fingerprint) is bit-identical across the whole grid.
TrialOutcome RunChaosTrial(const ChaosWorldOptions& world, const fault::FaultPlan& plan,
                           int trial_workers = 1, int intra_workers = 1);

// Canonical fingerprint of one run: counters, latency percentiles, the
// oracle harvest, and FNV-1a hashes of the fault and breaker logs. Stable
// across worker grids by construction (everything merged in shard/trial
// order upstream).
std::string ResultFingerprint(const harness::RunResult& result);

}  // namespace mitt::chaos

#endif  // MITTOS_CHAOS_WORLD_H_
