#include "src/harness/scenario_runner.h"

#include <utility>

#include "src/common/table.h"
#include "src/obs/export.h"

namespace mitt::harness {
namespace {

StrategyScore ScoreOf(const RunResult& r, const std::string& scenario,
                      const std::string& strategy, DurationNs slo) {
  StrategyScore score;
  score.scenario = scenario;
  score.strategy = strategy;
  score.p50_ms = ToMillis(r.get_latencies.Percentile(50));
  score.p95_ms = ToMillis(r.get_latencies.Percentile(95));
  score.p99_ms = ToMillis(r.get_latencies.Percentile(99));
  score.deadline_miss_pct = 100.0 * (1.0 - r.get_latencies.FractionBelow(slo));
  score.failovers = r.ebusy_failovers + r.hedges_sent + r.timeouts_fired;
  score.fault_episodes = r.fault_episodes;
  score.user_errors = r.user_errors;
  score.degraded_gets = r.degraded_gets;
  score.degraded_sheds = r.degraded_sheds;
  score.deadline_exhausted = r.deadline_exhausted;
  score.unbounded_tries = r.unbounded_deadline_tries;
  score.max_sent_deadline_ms = ToMillis(r.max_sent_deadline);
  return score;
}

}  // namespace

std::vector<StrategyScore> ScenarioRunner::Run(const std::vector<FaultScenario>& scenarios) {
  // Phase A: healthy world, Base strategy -> the SLO every scenario is
  // judged against. Faults must not leak into the calibration run.
  ExperimentOptions healthy = options_.base;
  healthy.fault_plan = fault::FaultPlan();
  Experiment probe(healthy);
  const RunResult base = probe.Run(StrategyKind::kBase);
  slo_deadline_ = base.get_latencies.Percentile(95);
  if (slo_deadline_ <= 0) {
    slo_deadline_ = Millis(13);  // The paper's fallback deadline.
  }

  // Phase B: scenario x strategy, fresh identical-seed worlds, fanned out
  // across the deterministic trial runner.
  std::vector<Trial> trials;
  trials.reserve(scenarios.size() * options_.strategies.size());
  for (const FaultScenario& scenario : scenarios) {
    for (const StrategyKind kind : options_.strategies) {
      Trial t;
      t.options = options_.base;
      t.options.fault_plan = scenario.plan;
      if (scenario.customize) {
        scenario.customize(t.options);
      }
      if (t.options.deadline < 0) {
        t.options.deadline = slo_deadline_;
      }
      if (t.options.hedge_delay < 0) {
        t.options.hedge_delay = slo_deadline_;
      }
      if (t.options.app_timeout < 0) {
        t.options.app_timeout = slo_deadline_;
      }
      t.kind = kind;
      t.rename = scenario.name + "/" + std::string(StrategyKindName(kind));
      trials.push_back(std::move(t));
    }
  }
  results_ = RunTrialsParallel(trials, options_.workers);

  std::vector<StrategyScore> scores;
  scores.reserve(results_.size());
  size_t i = 0;
  for (const FaultScenario& scenario : scenarios) {
    for (const StrategyKind kind : options_.strategies) {
      scores.push_back(ScoreOf(results_[i++], scenario.name,
                               std::string(StrategyKindName(kind)), slo_deadline_));
    }
  }
  return scores;
}

void PrintScorecard(const std::vector<StrategyScore>& scores, DurationNs slo_deadline) {
  Table table({"scenario", "strategy", "p50 (ms)", "p95 (ms)", "p99 (ms)",
               "miss% @" + Table::Num(ToMillis(slo_deadline), 1) + "ms", "failovers",
               "episodes", "errors", "degraded", "sheds", "exhausted", "unbounded",
               "maxDL (ms)"});
  for (const StrategyScore& s : scores) {
    table.AddRow({s.scenario, s.strategy, Table::Num(s.p50_ms, 2), Table::Num(s.p95_ms, 2),
                  Table::Num(s.p99_ms, 2), Table::Num(s.deadline_miss_pct, 2),
                  Table::Num(static_cast<double>(s.failovers), 0),
                  Table::Num(static_cast<double>(s.fault_episodes), 0),
                  Table::Num(static_cast<double>(s.user_errors), 0),
                  Table::Num(static_cast<double>(s.degraded_gets), 0),
                  Table::Num(static_cast<double>(s.degraded_sheds), 0),
                  Table::Num(static_cast<double>(s.deadline_exhausted), 0),
                  Table::Num(static_cast<double>(s.unbounded_tries), 0),
                  Table::Num(s.max_sent_deadline_ms, 2)});
  }
  table.Print();
}

void WriteScorecard(obs::JsonWriter& w, const std::vector<StrategyScore>& scores,
                    DurationNs slo_deadline) {
  w.BeginObject().Field("slo_deadline_ms", ToMillis(slo_deadline)).Key("scores").BeginArray();
  for (const StrategyScore& s : scores) {
    w.BeginObject().Field("scenario", s.scenario).Field("strategy", s.strategy);
    w.Field("p50_ms", s.p50_ms).Field("p95_ms", s.p95_ms).Field("p99_ms", s.p99_ms);
    w.Field("deadline_miss_pct", s.deadline_miss_pct).Field("failovers", s.failovers);
    w.Field("fault_episodes", s.fault_episodes).Field("user_errors", s.user_errors);
    w.Field("degraded_gets", s.degraded_gets).Field("degraded_sheds", s.degraded_sheds);
    w.Field("deadline_exhausted", s.deadline_exhausted);
    w.Field("unbounded_tries", s.unbounded_tries);
    w.Field("max_sent_deadline_ms", s.max_sent_deadline_ms).EndObject();
  }
  w.EndArray().EndObject();
}

std::string ScorecardJson(const std::vector<StrategyScore>& scores, DurationNs slo_deadline) {
  obs::JsonWriter w;
  WriteScorecard(w, scores, slo_deadline);
  return w.str();
}

}  // namespace mitt::harness
