#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "src/common/inline_function.h"
#include "src/common/latency_recorder.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/common/time.h"

namespace mitt {
namespace {

TEST(TimeTest, UnitConstants) {
  EXPECT_EQ(Micros(1), 1000);
  EXPECT_EQ(Millis(1), 1'000'000);
  EXPECT_EQ(Seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(13)), 13.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(8) + Millis(500)), 8.5);
}

TEST(TimeTest, FormatPicksUnit) {
  EXPECT_EQ(FormatDuration(820), "820ns");
  EXPECT_EQ(FormatDuration(Micros(5)), "5.000us");
  EXPECT_EQ(FormatDuration(Millis(13)), "13.000ms");
  EXPECT_EQ(FormatDuration(Seconds(2)), "2.000s");
}

TEST(StatusTest, Basics) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_FALSE(Status::Ok().busy());
  EXPECT_TRUE(Status::Ebusy().busy());
  EXPECT_FALSE(Status::Ebusy().ok());
  EXPECT_EQ(Status::Ebusy().name(), "EBUSY");
  EXPECT_EQ(Status::NotFound().name(), "NOT_FOUND");
  EXPECT_EQ(Status(), Status::Ok());
}

TEST(StatusTest, WaitHintIsPayloadNotIdentity) {
  const Status busy = Status::Ebusy(Millis(7));
  EXPECT_TRUE(busy.busy());
  EXPECT_EQ(busy.wait_hint(), Millis(7));
  EXPECT_EQ(busy, Status::Ebusy());  // operator== compares codes only.
  EXPECT_EQ(Status::Ebusy().wait_hint(), 0);
  EXPECT_EQ(Status::Unavailable(Micros(90)).wait_hint(), Micros(90));
  EXPECT_EQ(Status::Unavailable(Micros(90)), Status::Unavailable());
  EXPECT_EQ(Status::Ok().wait_hint(), 0);
  EXPECT_EQ(Status(StatusCode::kTimeout).wait_hint(), 0);
  EXPECT_FALSE(Status::Ebusy(Millis(7)) == Status::Unavailable(Millis(7)));
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, ForkIndependent) {
  Rng a(7);
  Rng fork = a.Fork();
  EXPECT_NE(a.Next(), fork.Next());
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, BoundedParetoRange) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.BoundedPareto(1.0, 100.0, 1.3);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 100.0);
  }
}

TEST(ZipfianTest, RangeAndSkew) {
  Rng rng(29);
  ZipfianGenerator zipf(1000);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = zipf.Next(rng);
    EXPECT_LT(v, 1000u);
    if (v < 10) {
      ++head;
    }
  }
  // YCSB-zipfian: the hottest 1% of keys should draw far more than 1% of
  // accesses.
  EXPECT_GT(head, n / 10);
}

TEST(LatencyRecorderTest, Percentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    rec.Record(Millis(i));
  }
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_EQ(rec.Percentile(50), Millis(50));
  EXPECT_EQ(rec.Percentile(95), Millis(95));
  EXPECT_EQ(rec.Percentile(100), Millis(100));
  EXPECT_EQ(rec.Min(), Millis(1));
  EXPECT_EQ(rec.Max(), Millis(100));
  EXPECT_NEAR(rec.MeanNs(), static_cast<double>(Millis(50)) + Millis(1) / 2.0,
              static_cast<double>(Millis(1)));
}

TEST(LatencyRecorderTest, BatchPercentilesMatchPerCallQueries) {
  LatencyRecorder rec;
  Rng rng(37);
  for (int i = 0; i < 3000; ++i) {
    rec.Record(rng.UniformInt(0, Millis(50)));
  }
  const std::vector<double> ps = {0, 0.1, 1, 25, 50, 90, 95, 99, 99.9, 100};
  const std::vector<DurationNs> batch = rec.Percentiles(ps);
  ASSERT_EQ(batch.size(), ps.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(batch[i], rec.Percentile(ps[i])) << "p" << ps[i];
  }
  // The batch result must track later Records, same as per-call queries.
  rec.Record(Millis(500));
  const double p100[] = {100.0};
  EXPECT_EQ(rec.Percentiles(p100).front(), Millis(500));
}

TEST(LatencyRecorderTest, BatchPercentilesEmptyReturnsZeros) {
  LatencyRecorder rec;
  const std::vector<double> ps = {50, 95, 99};
  const std::vector<DurationNs> batch = rec.Percentiles(ps);
  ASSERT_EQ(batch.size(), ps.size());
  for (const DurationNs v : batch) {
    EXPECT_EQ(v, 0);
  }
}

TEST(LatencyRecorderTest, CdfSeriesTinyPointCounts) {
  // Regression: points=1 used to return only the max, leaving the low end of
  // the distribution unrepresented. The first point must cover the low end.
  LatencyRecorder rec;
  for (int i = 1; i <= 10; ++i) {
    rec.Record(Millis(i));
  }
  const auto one = rec.CdfSeries(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].latency, Millis(1));  // The minimum, not the max.
  EXPECT_DOUBLE_EQ(one[0].fraction, 0.1);
  const auto two = rec.CdfSeries(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].latency, Millis(1));
  EXPECT_DOUBLE_EQ(two[0].fraction, 0.1);
  EXPECT_EQ(two[1].latency, Millis(10));
  EXPECT_DOUBLE_EQ(two[1].fraction, 1.0);
}

TEST(LatencyRecorderTest, EmptyIsSafe) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.Percentile(95), 0);
  EXPECT_EQ(rec.Min(), 0);
  EXPECT_EQ(rec.Max(), 0);
  EXPECT_DOUBLE_EQ(rec.MeanNs(), 0.0);
  EXPECT_TRUE(rec.CdfSeries(10).empty());
}

TEST(LatencyRecorderTest, FractionBelow) {
  LatencyRecorder rec;
  for (int i = 1; i <= 10; ++i) {
    rec.Record(Millis(i));
  }
  EXPECT_DOUBLE_EQ(rec.FractionBelow(Millis(5)), 0.5);
  EXPECT_DOUBLE_EQ(rec.FractionBelow(Millis(100)), 1.0);
  EXPECT_DOUBLE_EQ(rec.FractionBelow(0), 0.0);
}

TEST(LatencyRecorderTest, CdfSeriesMonotone) {
  LatencyRecorder rec;
  Rng rng(31);
  for (int i = 0; i < 5000; ++i) {
    rec.Record(rng.UniformInt(0, Millis(100)));
  }
  const auto cdf = rec.CdfSeries(50);
  ASSERT_EQ(cdf.size(), 50u);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].latency, cdf[i - 1].latency);
    EXPECT_GT(cdf[i].fraction, cdf[i - 1].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(LatencyRecorderTest, PercentileInterleavedWithRecord) {
  // Exercise the scratch-buffer state machine: query, record more, query
  // again — the second query must see the new samples.
  LatencyRecorder rec;
  for (int i = 1; i <= 50; ++i) {
    rec.Record(Millis(i));
  }
  EXPECT_EQ(rec.Percentile(100), Millis(50));
  EXPECT_EQ(rec.Percentile(50), Millis(25));  // Second query on same snapshot.
  for (int i = 51; i <= 100; ++i) {
    rec.Record(Millis(i));
  }
  EXPECT_EQ(rec.Percentile(100), Millis(100));
  EXPECT_EQ(rec.Percentile(50), Millis(50));
  // And mixing in a full-sort consumer keeps selection queries correct.
  EXPECT_DOUBLE_EQ(rec.FractionBelow(Millis(10)), 0.1);
  EXPECT_EQ(rec.Percentile(95), Millis(95));
}

TEST(InlineFunctionTest, SmallCaptureStoredInline) {
  int a = 3, b = 4;
  InlineFunction<int()> fn = [a, b] { return a * b; };
  static_assert(InlineFunction<int()>::kFitsInline<decltype([a, b] { return a * b; })>);
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(fn(), 12);
}

TEST(InlineFunctionTest, MoveEmptiesSource) {
  InlineFunction<int()> fn = [] { return 7; };
  InlineFunction<int()> moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(moved));
  EXPECT_EQ(moved(), 7);
}

TEST(InlineFunctionTest, MoveOnlyCapture) {
  auto p = std::make_unique<int>(41);
  InlineFunction<int()> fn = [p = std::move(p)] { return *p + 1; };
  EXPECT_EQ(fn(), 42);
  // std::function could not hold this lambda at all (target must be copyable).
  InlineFunction<int()> moved = std::move(fn);
  EXPECT_EQ(moved(), 42);
}

TEST(InlineFunctionTest, EmptyStdFunctionStaysEmpty) {
  std::function<int()> empty_std;
  InlineFunction<int()> from_std = empty_std;
  EXPECT_FALSE(static_cast<bool>(from_std));
  InlineFunction<int()> engaged = std::function<int()>([] { return 3; });
  ASSERT_TRUE(static_cast<bool>(engaged));
  EXPECT_EQ(engaged(), 3);
}

TEST(InlineFunctionTest, OversizedCaptureFallsBackToHeap) {
  std::array<int64_t, 16> big{};  // 128 bytes: over the 48-byte inline buffer.
  big[0] = 5;
  big[15] = 6;
  auto lambda = [big] { return big[0] + big[15]; };
  static_assert(!InlineFunction<int64_t()>::kFitsInline<decltype(lambda)>);
  InlineFunction<int64_t()> fn = lambda;
  EXPECT_EQ(fn(), 11);
  InlineFunction<int64_t()> moved = std::move(fn);  // Steals the heap pointer.
  EXPECT_FALSE(static_cast<bool>(fn));              // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved(), 11);
}

TEST(InlineFunctionTest, DestroysCaptureOnResetAndReassign) {
  int destroyed = 0;
  struct Tracker {
    int* counter;
    explicit Tracker(int* c) : counter(c) {}
    Tracker(Tracker&& o) noexcept : counter(o.counter) { o.counter = nullptr; }
    ~Tracker() {
      if (counter != nullptr) {
        ++*counter;
      }
    }
  };
  {
    InlineFunction<void()> fn = [t = Tracker(&destroyed)] {};
    EXPECT_EQ(destroyed, 0);
    fn = nullptr;  // Reset destroys the capture.
    EXPECT_EQ(destroyed, 1);
    EXPECT_FALSE(static_cast<bool>(fn));
  }
  {
    InlineFunction<void()> fn = [t = Tracker(&destroyed)] {};
    fn = [] {};  // Reassignment destroys the old target first.
    EXPECT_EQ(destroyed, 2);
  }
  {
    InlineFunction<void()> fn = [t = Tracker(&destroyed)] {};
  }  // Destructor path.
  EXPECT_EQ(destroyed, 3);
}

TEST(InlineFunctionTest, ForwardsArgumentsAndReturn) {
  InlineFunction<int(int, int)> fn = [](int x, int y) { return x - y; };
  EXPECT_EQ(fn(10, 4), 6);
  InlineFunction<std::string(std::string)> echo = [](std::string s) { return s + "!"; };
  EXPECT_EQ(echo("hi"), "hi!");
}

TEST(ReductionTest, PaperFormula) {
  // Footnote 2: (T_other - T_mitt) / T_other.
  EXPECT_DOUBLE_EQ(ReductionPercent(Millis(10), Millis(13)), 100.0 * 3 / 13);
  EXPECT_DOUBLE_EQ(ReductionPercent(Millis(13), Millis(13)), 0.0);
  EXPECT_LT(ReductionPercent(Millis(20), Millis(13)), 0.0);  // Mitt slower -> negative.
  EXPECT_DOUBLE_EQ(ReductionPercent(Millis(5), DurationNs{0}), 0.0);
}

TEST(TableTest, AlignsColumns) {
  Table t({"name", "p95"});
  t.AddRow({"Hedged", "13.0"});
  t.AddRow({"MittCFQ", "10.0"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("MittCFQ  10.0"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(10, 0), "10");
}

}  // namespace
}  // namespace mitt
