// src/resilience/ tests: deadline budgets (the underflow audit), retry
// governance, the admission gate, the replica-health circuit breaker, and the
// end-to-end resilient client / ring behaviours the subsystem exists for —
// instant failover stays instant, the all-busy world completes without
// deadline-disabled sends, and everything is bit-identical across worker
// counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <ostream>
#include <numeric>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/client/mittos_client.h"
#include "src/client/resilient.h"
#include "src/client/timeout.h"
#include "src/fault/fault_plan.h"
#include "src/harness/scenario_runner.h"
#include "src/kv/doc_store_node.h"
#include "src/noise/noise_injector.h"
#include "src/obs/export.h"
#include "src/resilience/admission_gate.h"
#include "src/resilience/deadline_budget.h"
#include "src/resilience/degraded_read.h"
#include "src/resilience/replica_health.h"
#include "src/resilience/retry_policy.h"
#include "src/sim/simulator.h"

namespace mitt {
namespace kv {

// Names the parameter of the access-path tests (ctest lists it by name).
void PrintTo(AccessPath access, std::ostream* os) {
  *os << (access == AccessPath::kLsm ? "kLsm" : "kRead");
}

}  // namespace kv

namespace {

// ---------------------------------------------------------- DeadlineBudget

TEST(DeadlineBudgetTest, DeductsElapsedAndClampsAtZero) {
  resilience::DeadlineBudget budget(Millis(10), /*start=*/Millis(5));
  EXPECT_EQ(budget.Remaining(Millis(5)), Millis(10));
  EXPECT_EQ(budget.Remaining(Millis(9)), Millis(6));
  EXPECT_FALSE(budget.Exhausted(Millis(9)));
  // At and past the SLO edge: clamped to 0, never negative — a negative
  // remaining would alias into sched::kNoDeadline territory.
  EXPECT_EQ(budget.Remaining(Millis(15)), 0);
  EXPECT_EQ(budget.Remaining(Millis(500)), 0);
  EXPECT_TRUE(budget.Exhausted(Millis(15)));
  EXPECT_EQ(budget.Elapsed(Millis(9)), Millis(4));
}

TEST(DeadlineBudgetTest, UnlimitedPassesNoDeadlineThrough) {
  resilience::DeadlineBudget budget(sched::kNoDeadline, 0);
  EXPECT_TRUE(budget.unlimited());
  EXPECT_EQ(budget.Remaining(Seconds(100)), sched::kNoDeadline);
  EXPECT_FALSE(budget.Exhausted(Seconds(100)));
}

TEST(DeadlineBudgetTest, ClampDeadlineZeroesUnderflowButKeepsNoDeadline) {
  // The audit's core invariant: hop arithmetic that underflows must read as
  // "no time left" (0), never as "no deadline" (-1).
  EXPECT_EQ(resilience::ClampDeadline(sched::kNoDeadline), sched::kNoDeadline);
  EXPECT_EQ(resilience::ClampDeadline(-2), 0);
  EXPECT_EQ(resilience::ClampDeadline(-Millis(3)), 0);
  EXPECT_EQ(resilience::ClampDeadline(0), 0);
  EXPECT_EQ(resilience::ClampDeadline(Millis(7)), Millis(7));
}

// ------------------------------------------------------------- RetryBudget

TEST(RetryBudgetTest, DeniesWhenDryAndRefillsFractionallyOnSuccess) {
  resilience::RetryBudgetOptions opt;
  opt.initial = 2.0;
  opt.burst = 3.0;
  opt.refill_per_success = 0.5;
  resilience::RetryBudget budget(opt);
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());  // Dry: a retry storm stops here.
  EXPECT_EQ(budget.denied(), 1u);
  budget.OnSuccess();
  EXPECT_FALSE(budget.TryAcquire());  // 0.5 tokens: still below one retry.
  budget.OnSuccess();
  EXPECT_TRUE(budget.TryAcquire());  // 1.0 accrued.
  for (int i = 0; i < 100; ++i) {
    budget.OnSuccess();
  }
  EXPECT_DOUBLE_EQ(budget.tokens(), opt.burst);  // Capped at burst.
  EXPECT_EQ(budget.granted(), 3u);
}

TEST(BackoffTest, DecorrelatedJitterIsDeterministicAndBounded) {
  resilience::BackoffOptions opt;
  opt.base = Micros(500);
  opt.cap = Millis(20);
  resilience::DecorrelatedJitterBackoff a(opt, 7);
  resilience::DecorrelatedJitterBackoff b(opt, 7);
  DurationNs prev = opt.base;
  for (int i = 0; i < 50; ++i) {
    const DurationNs next = a.Next();
    EXPECT_EQ(next, b.Next());  // Same seed, same ladder.
    EXPECT_GE(next, opt.base);
    EXPECT_LE(next, std::min<DurationNs>(opt.cap, std::max(opt.base, prev * 3)));
    prev = next;
  }
  a.Reset();
  const DurationNs after_reset = a.Next();
  EXPECT_LE(after_reset, opt.base * 3);  // Ladder restarted from base.
}

// ----------------------------------------------------------- AdmissionGate

TEST(AdmissionGateTest, ShedsAtCapacityAndReopensOnRelease) {
  resilience::AdmissionGateOptions opt;
  opt.max_inflight = 2;
  resilience::AdmissionGate gate(opt);
  EXPECT_TRUE(gate.TryAdmit());
  EXPECT_TRUE(gate.TryAdmit());
  EXPECT_FALSE(gate.TryAdmit());  // Bounded: the convoy cannot grow.
  EXPECT_EQ(gate.sheds(), 1u);
  gate.Release();
  EXPECT_TRUE(gate.TryAdmit());
  EXPECT_EQ(gate.admits(), 3u);
  EXPECT_EQ(gate.inflight(), 2);
}

// ------------------------------------------------------ DegradedReadLoop

// Scripted hooks: every attempt replies EBUSY with the next scripted hint,
// so the escalation and the inter-attempt waits are exact.
TEST(DegradedReadLoopTest, EscalatesMaxOfDoubleAndHintPlusDeadlineUpToCap) {
  sim::Simulator sim;
  resilience::DegradedReadOptions opt;
  opt.max_attempts = 5;
  opt.deadline_cap = Micros(6000);
  const DurationNs hints[] = {Micros(20), Micros(3000), Micros(100), Micros(100), Micros(100)};
  std::vector<std::pair<TimeNs, DurationNs>> attempts;  // (issue time, deadline)
  resilience::DegradedReadLoop loop(
      &sim, 0, opt,
      [&](uint64_t, DurationNs deadline, obs::TraceContext,
          resilience::DegradedReadLoop::ReplyFn done) {
        const DurationNs hint = hints[attempts.size()];
        attempts.emplace_back(sim.Now(), deadline);
        done(Status::Ebusy(hint));
      },
      [](InlineFunction<void()> fn) { fn(); });
  Status result = Status::Internal();
  loop.Serve(1, Micros(500), {}, 0, [&](Status s) { result = s; });
  sim.Run();
  // Deadlines: max(2d, hint + d) capped at 6 ms. Waits: max(hint, 50 us).
  const std::vector<std::pair<TimeNs, DurationNs>> expected = {
      {0, Micros(500)},
      {Micros(50), Micros(1000)},
      {Micros(3050), Micros(4000)},
      {Micros(3150), Micros(6000)},
      {Micros(3250), Micros(6000)},
  };
  EXPECT_EQ(attempts, expected);
  EXPECT_TRUE(result.busy());  // Attempts exhausted: the last status surfaces.
  EXPECT_EQ(loop.gate().inflight(), 0);
  EXPECT_EQ(loop.max_deadline(), Micros(6000));

  // A disabled deadline starts at the cap; an underflowed one at 0.
  attempts.clear();
  loop.Serve(2, sched::kNoDeadline, {}, 0, [](Status) {});
  sim.Run();
  ASSERT_FALSE(attempts.empty());
  EXPECT_EQ(attempts[0].second, Micros(6000));
  attempts.clear();
  loop.Serve(3, -5, {}, 0, [](Status) {});
  sim.Run();
  ASSERT_FALSE(attempts.empty());
  EXPECT_EQ(attempts[0].second, 0);
  EXPECT_EQ(loop.gate().inflight(), 0);
}

// Queues 40 x 1 MB bypass-cache reads on `os`: hundreds of ms of backlog,
// so every bounded read behind it sees EBUSY.
void SaturateOs(os::Os& os) {
  const uint64_t noise_file = os.CreateFile(100LL << 30);
  for (int i = 0; i < 40; ++i) {
    os::Os::ReadArgs args;
    args.file = noise_file;
    args.offset = static_cast<int64_t>(i) << 30;
    args.size = 1 << 20;
    args.pid = 99;
    args.bypass_cache = true;
    os.Read(args, nullptr);
  }
}

// The shared loop as each storage node runs it, on a real saturated node:
// the flat data file (kRead) and LevelDB (kLsm).
class DegradedNodeTest : public ::testing::TestWithParam<kv::AccessPath> {
 protected:
  void Build(int max_attempts, DurationNs cap, int max_inflight = 8) {
    kv::DocStoreNode::Options opt;
    opt.access = GetParam();
    opt.num_keys = GetParam() == kv::AccessPath::kLsm ? 20000 : 1 << 14;
    opt.os.backend = os::BackendKind::kDiskCfq;
    opt.os.mitt_enabled = true;
    opt.degraded.admission.max_inflight = max_inflight;
    opt.degraded.max_attempts = max_attempts;
    opt.degraded.deadline_cap = cap;
    node_ = std::make_unique<kv::DocStoreNode>(&sim_, 0, opt);
  }

  // Issues one degraded read; the returned slot holds its status once the
  // reply arrives.
  const Status* Read(uint64_t key, DurationNs deadline) {
    Status* out = &replies_.emplace_back(Status::Internal());
    ++pending_;
    auto reply = [this, out](Status s) {
      *out = s;
      --pending_;
    };
    node_->HandleDegradedGet(key, deadline, reply);
    return out;
  }

  void RunUntilReplied() {
    sim_.RunUntilPredicate([this] { return pending_ == 0; });
    ASSERT_EQ(pending_, 0);
  }

  const resilience::DegradedReadLoop& loop() const { return node_->degraded(); }

  sim::Simulator sim_;
  std::unique_ptr<kv::DocStoreNode> node_;
  std::deque<Status> replies_;
  int pending_ = 0;
};

INSTANTIATE_TEST_SUITE_P(Access, DegradedNodeTest,
                         ::testing::Values(kv::AccessPath::kRead, kv::AccessPath::kLsm));

TEST_P(DegradedNodeTest, FirstEscalationIsHintPlusDeadline) {
  Build(/*max_attempts=*/2, Seconds(2));
  SaturateOs(node_->os());
  const Status* status = Read(7, Micros(1));
  RunUntilReplied();
  EXPECT_TRUE(status->busy());  // Both attempts rejected: exhaustion surfaces EBUSY.
  // Attempt 0 asks for 1 us, under the device floor: EBUSY with the floor as
  // its hint, so attempt 1 asks for max(2 us, floor + 1 us).
  const DurationNs floor = node_->os().MinDeviceLatency();
  EXPECT_EQ(loop().max_deadline(), std::max(2 * Micros(1), floor + Micros(1)));
  EXPECT_EQ(loop().gate().inflight(), 0);
}

TEST_P(DegradedNodeTest, EscalationStopsAtCapAndNeverDisables) {
  Build(/*max_attempts=*/10, Millis(3));
  SaturateOs(node_->os());
  const Status* escalated = Read(7, Micros(1));
  const Status* disabled = Read(8, sched::kNoDeadline);
  RunUntilReplied();
  // A kRead node waits out each predicted wait, so its reads complete once
  // the backlog drains; a kLsm node waits only the device floor and exhausts.
  // Either way neither read was shed, and no deadline passed the cap —
  // kNoDeadline included.
  EXPECT_NE(escalated->code(), StatusCode::kUnavailable);
  EXPECT_NE(disabled->code(), StatusCode::kUnavailable);
  EXPECT_EQ(loop().max_deadline(), Millis(3));
  EXPECT_EQ(loop().gate().inflight(), 0);
}

TEST_P(DegradedNodeTest, ShedsPastMaxInflightAndReadmitsAfterRelease) {
  Build(/*max_attempts=*/3, Millis(2), /*max_inflight=*/2);
  SaturateOs(node_->os());
  const Status* a = Read(1, Micros(1));
  const Status* b = Read(2, Micros(1));
  const Status* shed = Read(3, Micros(1));
  RunUntilReplied();
  EXPECT_EQ(shed->code(), StatusCode::kUnavailable);
  EXPECT_NE(a->code(), StatusCode::kUnavailable);
  EXPECT_NE(b->code(), StatusCode::kUnavailable);
  EXPECT_EQ(loop().gate().admits(), 2u);
  EXPECT_EQ(loop().gate().sheds(), 1u);
  EXPECT_EQ(loop().gate().inflight(), 0);

  // Freed slots admit a second batch once the backlog drains, and the slots
  // that batch frees on completion admit a third.
  sim_.RunUntil(sim_.Now() + Seconds(5));
  for (int batch = 0; batch < 2; ++batch) {
    const Status* c = Read(10 + 2 * batch, Millis(500));
    const Status* d = Read(11 + 2 * batch, Millis(500));
    RunUntilReplied();
    EXPECT_TRUE(c->ok()) << batch;
    EXPECT_TRUE(d->ok()) << batch;
    EXPECT_EQ(loop().gate().inflight(), 0);
  }
  EXPECT_EQ(loop().gate().admits(), 6u);
  EXPECT_EQ(loop().gate().sheds(), 1u);
}

// ----------------------------------------------------- ReplicaHealthTracker

class BreakerTest : public ::testing::Test {
 protected:
  resilience::ReplicaHealthOptions DefaultOptions() {
    resilience::ReplicaHealthOptions opt;
    opt.min_samples = 4;
    opt.open_base = Millis(40);
    opt.open_jitter = 0.0;  // Exact windows for the test.
    return opt;
  }

  sim::Simulator sim_;
};

TEST_F(BreakerTest, EbusyStormOpensAndProbeCloses) {
  resilience::ReplicaHealthTracker tracker(&sim_, 3, DefaultOptions(), 5);
  for (int i = 0; i < 8; ++i) {
    tracker.OnReply(/*replica=*/0, Micros(300), /*ebusy=*/true);
  }
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kOpen);
  EXPECT_EQ(tracker.breaker_opens(), 1u);
  EXPECT_EQ(tracker.state(1), resilience::BreakerState::kClosed);

  // Open pushes the replica to the back of the failover walk.
  std::vector<int> order = {0, 1, 2};
  tracker.OrderReplicas(&order);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));

  // After the open window: half-open, exactly one probe slot.
  sim_.Schedule(Millis(41), [] {});
  sim_.Run();
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kHalfOpen);
  EXPECT_TRUE(tracker.AcquireProbe(0));
  EXPECT_FALSE(tracker.AcquireProbe(0));  // One outstanding probe max.
  EXPECT_EQ(tracker.probes_sent(), 1u);

  // Probe succeeds: closed, back at the front of the walk.
  tracker.OnReply(0, Micros(300), /*ebusy=*/false);
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kClosed);
  order = {0, 1, 2};
  tracker.OrderReplicas(&order);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(BreakerTest, FailedProbeReopensWithEscalatedWindow) {
  resilience::ReplicaHealthTracker tracker(&sim_, 2, DefaultOptions(), 5);
  for (int i = 0; i < 8; ++i) {
    tracker.OnReply(0, Micros(300), true);
  }
  ASSERT_EQ(tracker.state(0), resilience::BreakerState::kOpen);
  sim_.Schedule(Millis(41), [] {});
  sim_.Run();
  ASSERT_EQ(tracker.state(0), resilience::BreakerState::kHalfOpen);
  ASSERT_TRUE(tracker.AcquireProbe(0));
  tracker.OnReply(0, Micros(300), true);  // Probe rejected: still sick.
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kOpen);
  EXPECT_EQ(tracker.breaker_opens(), 2u);
  // Escalated: 80 ms window now, so +41 ms is still open.
  sim_.Schedule(Millis(41), [] {});
  sim_.Run();
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kOpen);
  sim_.Schedule(Millis(41), [] {});
  sim_.Run();
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kHalfOpen);
}

TEST_F(BreakerTest, ConsecutiveTimeoutsOpenRegardlessOfSamples) {
  // Timeouts (pauses, partitions, drop storms) must open the breaker even
  // with zero reply samples — the OS-side predictor cannot see them.
  resilience::ReplicaHealthTracker tracker(&sim_, 2, DefaultOptions(), 5);
  tracker.OnTimeout(0);
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kClosed);
  tracker.OnTimeout(0);
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kOpen);
}

TEST_F(BreakerTest, FailSlowLatencyOpensAgainstClusterBest) {
  resilience::ReplicaHealthOptions opt = DefaultOptions();
  opt.latency_slow_factor = 4.0;
  opt.latency_floor = Millis(2);
  resilience::ReplicaHealthTracker tracker(&sim_, 2, opt, 5);
  for (int i = 0; i < 8; ++i) {
    tracker.OnReply(1, Millis(1), false);   // Healthy baseline.
    tracker.OnReply(0, Millis(30), false);  // Fail-slow but still answering.
  }
  EXPECT_EQ(tracker.state(0), resilience::BreakerState::kOpen);
  EXPECT_EQ(tracker.state(1), resilience::BreakerState::kClosed);
}

#ifndef MITT_OBS_DISABLED
TEST_F(BreakerTest, TransitionsRecordResilienceSpans) {
  obs::Tracer tracer(64);
  sim_.set_tracer(&tracer);
  resilience::ReplicaHealthTracker tracker(&sim_, 2, DefaultOptions(), 5);
  for (int i = 0; i < 8; ++i) {
    tracker.OnReply(0, Micros(300), true);
  }
  sim_.Schedule(Millis(41), [] {});
  sim_.Run();
  ASSERT_EQ(tracker.state(0), resilience::BreakerState::kHalfOpen);
  ASSERT_TRUE(tracker.AcquireProbe(0));
  tracker.OnReply(0, Micros(300), false);

  int opens = 0;
  int half_opens = 0;
  int closes = 0;
  for (const obs::SpanRecord& s : tracer.OrderedSpans()) {
    opens += s.kind == obs::SpanKind::kBreakerOpen && s.node == 0;
    half_opens += s.kind == obs::SpanKind::kBreakerHalfOpen && s.node == 0;
    closes += s.kind == obs::SpanKind::kBreakerClose && s.node == 0;
  }
  EXPECT_EQ(opens, 1);
  EXPECT_EQ(half_opens, 1);
  EXPECT_EQ(closes, 1);
}
#endif  // MITT_OBS_DISABLED

// ------------------------------------------------- Resilient client, e2e

// 3-node DocStore cluster; optionally flood `noisy_nodes` with continuous
// contention (the ClientFixture pattern from client_test.cc).
class ResilientClientTest : public ::testing::Test {
 protected:
  void Build(const std::vector<int>& noisy_nodes,
             cluster::NetworkParams net = cluster::NetworkParams{}, int intensity = 3) {
    cluster::Cluster::Options opt;
    opt.num_nodes = 3;
    opt.node.num_keys = 1 << 18;
    opt.node.os.backend = os::BackendKind::kDiskCfq;
    opt.node.os.mitt_enabled = true;
    opt.network = net;
    cluster_ = std::make_unique<cluster::Cluster>(&sim_, opt);
    for (const int node : noisy_nodes) {
      kv::DocStoreNode& n = cluster_->node(node);
      const int64_t size = 100LL << 30;
      const uint64_t file = n.os().CreateFile(size);
      noise::IoNoiseInjector::Options nopt;
      nopt.streams_per_intensity = 2;
      injectors_.push_back(std::make_unique<noise::IoNoiseInjector>(
          &sim_, &n.os(), file, size,
          std::vector<noise::NoiseEpisode>{{0, Seconds(30), intensity}}, nopt,
          static_cast<uint64_t>(node) + 7));
      injectors_.back()->Start();
    }
  }

  uint64_t KeyWithPrimary(int node, int skip = 0) {
    for (uint64_t key = 0;; ++key) {
      if (cluster_->ReplicasOf(key)[0] == node && skip-- == 0) {
        return key;
      }
    }
  }

  DurationNs RunOneGet(client::GetStrategy& strategy, uint64_t key,
                       client::GetResult* out = nullptr) {
    const TimeNs start = sim_.Now();
    TimeNs done = -1;
    client::GetResult result;
    strategy.Get(key, {}, [&](const client::GetResult& r) {
      result = r;
      done = sim_.Now();
    });
    sim_.RunUntilPredicate([&] { return done >= 0; });
    if (out != nullptr) {
      *out = result;
    }
    return done - start;
  }

  sim::Simulator sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::vector<std::unique_ptr<noise::IoNoiseInjector>> injectors_;
};

TEST_F(ResilientClientTest, FailsOverInstantlyOffNoisyPrimary) {
  Build({0});
  client::ResilientOptions opt;
  opt.deadline = Millis(15);
  client::ResilientMittosStrategy res(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  client::GetResult result;
  const DurationNs latency = RunOneGet(res, KeyWithPrimary(0), &result);
  EXPECT_TRUE(result.status.ok());
  // The paper's property survives the resilience layer: EBUSY failover is
  // instant, well inside the SLO.
  EXPECT_LT(latency, Millis(15));
  EXPECT_GT(res.ebusy_failovers(), 0u);
  EXPECT_EQ(res.degraded_gets(), 0u);  // A clean replica existed.
}

TEST_F(ResilientClientTest, AllBusyCompletesViaBoundedDegradedPath) {
  Build({0, 1, 2});
  client::ResilientOptions opt;
  opt.deadline = Millis(10);
  client::ResilientMittosStrategy res(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  client::GetResult result;
  RunOneGet(res, 5, &result);
  // Graceful degradation: the user still gets an answer...
  EXPECT_TRUE(result.status.ok());
  EXPECT_GE(res.degraded_gets(), 1u);
  // ...and no hop ever carried a disabled or negative deadline. The largest
  // deadline on the wire is bounded by the server-side escalation cap.
  EXPECT_GE(res.max_sent_deadline(), 0);
  EXPECT_LE(res.max_sent_deadline(), Seconds(2));
}

TEST_F(ResilientClientTest, BreakerRoutesWalkAwayFromPersistentlySickPrimary) {
  Build({0}, cluster::NetworkParams{}, /*intensity=*/4);
  client::ResilientOptions opt;
  opt.deadline = Millis(15);
  opt.health.min_samples = 4;
  opt.health.open_base = Millis(200);  // Keep the breaker open through the test.
  client::ResilientMittosStrategy res(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  // Every key's walk starts on the sick node, so the EBUSY EWMA sees it.
  for (int i = 0; i < 12; ++i) {
    RunOneGet(res, KeyWithPrimary(0, i));
  }
  EXPECT_GE(res.health().breaker_opens(), 1u);
  // With the breaker open the walk starts on a healthy replica: no more
  // wasted round trips to node 0.
  const uint64_t failovers_before = res.ebusy_failovers();
  for (int i = 0; i < 4; ++i) {
    RunOneGet(res, KeyWithPrimary(0, 12 + i));
  }
  EXPECT_EQ(res.ebusy_failovers(), failovers_before);
}

TEST_F(ResilientClientTest, SlowLinkNeverSendsNegativeOrDisabledDeadline) {
  // Regression for the deadline-underflow audit: with an 8 ms one-way link
  // and a 10 ms SLO, the budget is gone before the second hop can even be
  // computed — the remaining deadline math underflows. The client must send
  // 0 ("no time left"), never a negative value aliasing sched::kNoDeadline.
  cluster::NetworkParams net;
  net.one_way = Millis(8);
  net.jitter = 0;
  Build({0}, net);
  client::ResilientOptions opt;
  opt.deadline = Millis(10);
  client::ResilientMittosStrategy res(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  client::GetResult result;
  RunOneGet(res, KeyWithPrimary(0), &result);
  EXPECT_TRUE(result.status.ok());  // Degraded path still answers.
  EXPECT_GE(res.max_sent_deadline(), 0);
  EXPECT_LE(res.max_sent_deadline(), Seconds(2));
  // The budget observed the burned RTT: either it exhausted outright or the
  // degraded path took over; both are bounded outcomes.
  EXPECT_GE(res.degraded_gets() + res.deadline_exhausted(), 1u);
}

TEST_F(ResilientClientTest, ExhaustedBudgetSurfacesStatusWhenDegradationDisabled) {
  cluster::NetworkParams net;
  net.one_way = Millis(8);
  net.jitter = 0;
  Build({0, 1, 2}, net);
  client::ResilientOptions opt;
  opt.deadline = Millis(5);
  opt.degraded_enabled = false;
  client::ResilientMittosStrategy res(&sim_, cluster_.get(), 1, opt);
  sim_.RunUntil(Millis(100));
  client::GetResult result;
  RunOneGet(res, 5, &result);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExhausted);
  EXPECT_GE(res.deadline_exhausted(), 1u);
}

// ---------------------------------------------- Riak ring over LevelDB, all-EBUSY

// A 3-node kLsm ring (Riak over LevelDB, §5) with the client strategies as
// its coordinator: MittOS the naive one, MittOS+res the resilient one.
class RingResilienceTest : public ::testing::Test {
 protected:
  void Build() {
    cluster::Cluster::Options copt;
    copt.num_nodes = 3;
    copt.seed = 5;
    copt.node.access = kv::AccessPath::kLsm;
    copt.node.num_keys = 20000;
    copt.node.os.backend = os::BackendKind::kDiskCfq;
    copt.node.os.mitt_enabled = true;
    cluster_ = std::make_unique<cluster::Cluster>(&sim_, copt);
  }

  void SaturateAllNodes() {
    for (int i = 0; i < cluster_->num_nodes(); ++i) {
      SaturateOs(cluster_->node(i).os());
    }
  }

  Status RunOneGet(client::GetStrategy& strategy, uint64_t key) {
    Status status = Status::Internal();
    TimeNs done = -1;
    strategy.Get(key, {}, [&](const client::GetResult& r) {
      status = r.status;
      done = sim_.Now();
    });
    sim_.RunUntilPredicate([&] { return done >= 0; });
    return status;
  }

  static client::ResilientOptions ResilientRingOptions() {
    client::ResilientOptions opt;
    opt.deadline = Millis(12);
    return opt;
  }

  sim::Simulator sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
};

TEST_F(RingResilienceTest, NaiveAllEbusyDisablesDeadlineOnLastTry) {
  Build();
  client::MittosStrategy::Options mopt;
  mopt.deadline = Millis(12);
  client::MittosStrategy mittos(&sim_, cluster_.get(), 5, mopt);
  SaturateAllNodes();
  const Status status = RunOneGet(mittos, 123);
  EXPECT_TRUE(status.ok());  // Completes, but only by dropping the SLO.
  EXPECT_GE(mittos.ebusy_failovers(), 2u);
  EXPECT_GE(mittos.unbounded_tries(), 1u);  // The behaviour under audit.
}

TEST_F(RingResilienceTest, ResilientAllEbusyCompletesWithBoundedDeadlines) {
  Build();
  client::ResilientMittosStrategy res(&sim_, cluster_.get(), 5, ResilientRingOptions());
  SaturateAllNodes();
  const Status status = RunOneGet(res, 123);
  EXPECT_TRUE(status.ok());  // 0 user-visible errors in the all-busy world.
  EXPECT_GE(res.degraded_gets(), 1u);
  EXPECT_GE(res.max_sent_deadline(), 0);
  EXPECT_LE(res.max_sent_deadline(), Seconds(2));
}

TEST_F(RingResilienceTest, ResilientQuietClusterStaysOnFastPath) {
  Build();
  client::ResilientMittosStrategy res(&sim_, cluster_.get(), 5, ResilientRingOptions());
  const Status status = RunOneGet(res, 123);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(res.ebusy_failovers(), 0u);
  EXPECT_EQ(res.degraded_gets(), 0u);
}

// ---------------------------------------------- Done-exactly-once property

// Every GetStrategy must call done exactly once per get, under EBUSY races,
// timeout/backoff races, drop-retransmit races, and the degraded path.
// ~1000 seeded get-shuffles across the strategy set, per access path: the
// flat data file (kRead) and a Riak ring over LevelDB (kLsm).
class DoneOncePropertyTest : public ::testing::TestWithParam<uint64_t> {};

void CheckDoneOnce(uint64_t seed, kv::AccessPath access) {
  SCOPED_TRACE(access == kv::AccessPath::kLsm ? "kLsm" : "kRead");
  Rng rng(seed);
  sim::Simulator sim;
  cluster::Cluster::Options copt;
  copt.num_nodes = 3;
  copt.node.num_keys = 1 << 16;
  copt.node.access = access;
  copt.node.os.backend = os::BackendKind::kDiskCfq;
  copt.node.os.mitt_enabled = true;
  copt.seed = seed;
  cluster::Cluster cluster(&sim, copt);

  // A hostile world: one noisy node plus lossy links (drops are modeled as
  // lost-then-retransmitted, so late replies race client timers).
  kv::DocStoreNode& noisy = cluster.node(static_cast<int>(seed % 3));
  const int64_t size = 100LL << 30;
  const uint64_t file = noisy.os().CreateFile(size);
  noise::IoNoiseInjector::Options nopt;
  noise::IoNoiseInjector injector(&sim, &noisy.os(), file, size,
                                  {noise::NoiseEpisode{0, Seconds(30), 3}}, nopt, seed + 7);
  injector.Start();
  cluster.network().SetLinkDropProbability(cluster::Network::kNoPeer,
                                           0.05 + 0.1 * rng.Uniform(0.0, 1.0));

  client::TimeoutStrategy::Options topt;
  topt.timeout = Millis(12);
  client::MittosStrategy::Options mopt;
  mopt.deadline = Millis(12);
  client::MittosWaitStrategy::Options wopt;
  wopt.deadline = Millis(12);
  client::ResilientOptions ropt;
  ropt.deadline = Millis(12);
  ropt.health.min_samples = 4;
  client::TimeoutStrategy timeout(&sim, &cluster, seed, topt);
  client::MittosStrategy mittos(&sim, &cluster, seed, mopt);
  client::MittosWaitStrategy mittos_wait(&sim, &cluster, seed, wopt);
  client::ResilientMittosStrategy resilient(&sim, &cluster, seed, ropt);
  std::vector<client::GetStrategy*> strategies = {&timeout, &mittos, &mittos_wait, &resilient};

  sim.RunUntil(Millis(50));
  constexpr int kGetsPerStrategy = 25;  // x4 strategies x10 seeds = 1000 gets.
  int completed = 0;
  std::vector<int> calls;
  calls.reserve(strategies.size() * kGetsPerStrategy);
  for (int i = 0; i < kGetsPerStrategy; ++i) {
    // Shuffle strategy order per round so their events interleave differently
    // every seed.
    for (size_t s = strategies.size(); s > 1; --s) {
      std::swap(strategies[s - 1],
                strategies[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(s) - 1))]);
    }
    for (client::GetStrategy* strategy : strategies) {
      calls.push_back(0);
      int* slot = &calls.back();
      strategy->Get(rng.UniformInt(0, copt.node.num_keys - 1), {},
                    [slot, &completed](const client::GetResult&) {
                      ++*slot;
                      ++completed;
                    });
    }
    const int expected = static_cast<int>(calls.size());
    sim.RunUntilPredicate([&] { return completed >= expected; });
  }
  sim.Run();  // Drain stragglers (late retransmits, backoff timers).

  ASSERT_EQ(calls.size(), strategies.size() * kGetsPerStrategy);
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i], 1) << "get " << i << " seed " << seed;
  }
}

TEST_P(DoneOncePropertyTest, EveryStrategyCallsDoneExactlyOnce) {
  for (const kv::AccessPath access : {kv::AccessPath::kRead, kv::AccessPath::kLsm}) {
    CheckDoneOnce(GetParam(), access);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoneOncePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ------------------------------------------------------- Scorecard export

TEST(ScorecardJsonTest, HostileScenarioNamesAreEscaped) {
  harness::StrategyScore s;
  s.scenario = "fail\"slow\\disk\n";
  s.strategy = "Mitt\"OS";
  const std::string json = harness::ScorecardJson({s}, Millis(13));
  EXPECT_TRUE(obs::ValidateJsonSyntax(json));
  EXPECT_NE(json.find("fail\\\"slow\\\\disk\\n"), std::string::npos);
}

// ------------------------------------------------- Scorecard determinism

TEST(ResilienceDeterminismTest, ScorecardBitIdenticalAcrossWorkerCounts) {
  harness::ExperimentOptions opt;
  opt.num_nodes = 3;
  opt.num_clients = 2;
  opt.measure_requests = 300;
  opt.warmup_requests = 30;
  opt.pin_primary_node = 0;
  opt.noise = harness::NoiseKind::kContinuous;
  opt.deadline = Millis(15);
  opt.seed = 99;
  fault::FaultPlanBuilder b;
  b.FailSlowDisk(/*node=*/0, Millis(20), Millis(400), 6.0);
  opt.fault_plan = b.Build();

  std::vector<harness::Trial> trials;
  for (const auto kind : {harness::StrategyKind::kMittos, harness::StrategyKind::kMittosResilient}) {
    trials.push_back({opt, kind, ""});
  }
  const auto serial = harness::RunTrialsParallel(trials, /*workers=*/1);
  const auto fanned = harness::RunTrialsParallel(trials, /*workers=*/4);

  ASSERT_EQ(serial.size(), fanned.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const harness::RunResult& a = serial[i];
    const harness::RunResult& f = fanned[i];
    EXPECT_EQ(a.get_latencies.samples(), f.get_latencies.samples()) << a.name;
    EXPECT_EQ(a.ebusy_failovers, f.ebusy_failovers) << a.name;
    EXPECT_EQ(a.degraded_gets, f.degraded_gets) << a.name;
    EXPECT_EQ(a.degraded_sheds, f.degraded_sheds) << a.name;
    EXPECT_EQ(a.deadline_exhausted, f.deadline_exhausted) << a.name;
    EXPECT_EQ(a.retry_denied, f.retry_denied) << a.name;
    EXPECT_EQ(a.max_sent_deadline, f.max_sent_deadline) << a.name;
    EXPECT_EQ(a.user_errors, f.user_errors) << a.name;
  }
}

}  // namespace
}  // namespace mitt
