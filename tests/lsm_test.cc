#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/kv/ring_coordinator.h"
#include "src/lsm/bloom.h"
#include "src/lsm/lsm_node.h"
#include "src/lsm/lsm_tree.h"
#include "src/lsm/memtable.h"
#include "src/lsm/sstable.h"
#include "src/common/rng.h"
#include "src/noise/noise_injector.h"
#include "src/sim/simulator.h"

namespace mitt::lsm {
namespace {

// Queues 40 x 1 MB bypass-cache reads on `node_os`: hundreds of ms of
// backlog, so every bounded read behind it sees EBUSY.
void Saturate(os::Os& node_os) {
  const uint64_t noise_file = node_os.CreateFile(100LL << 30);
  for (int i = 0; i < 40; ++i) {
    os::Os::ReadArgs args;
    args.file = noise_file;
    args.offset = static_cast<int64_t>(i) << 30;
    args.size = 1 << 20;
    args.pid = 99;
    args.bypass_cache = true;
    node_os.Read(args, nullptr);
  }
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  for (uint64_t k = 0; k < 1000; ++k) {
    bloom.Add(k * 7919);
  }
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(bloom.MayContain(k * 7919));
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter bloom(1000);
  for (uint64_t k = 0; k < 1000; ++k) {
    bloom.Add(k * 7919);
  }
  int fp = 0;
  const int probes = 10000;
  for (uint64_t k = 0; k < probes; ++k) {
    if (bloom.MayContain(k * 7919 + 3)) {
      ++fp;
    }
  }
  EXPECT_LT(fp, probes / 50);  // Under 2%.
}

TEST(MemTableTest, PutContainsClear) {
  MemTable mem;
  EXPECT_TRUE(mem.empty());
  mem.Put(1, 1024);
  mem.Put(2, 1024);
  mem.Put(1, 1024);  // Update, not new entry.
  EXPECT_EQ(mem.entry_count(), 2u);
  EXPECT_TRUE(mem.Contains(1));
  EXPECT_FALSE(mem.Contains(3));
  EXPECT_EQ(mem.approximate_bytes(), 2 * (1024 + 8));
  const auto keys = mem.SortedKeys();
  EXPECT_EQ(keys, (std::vector<uint64_t>{1, 2}));
  mem.Clear();
  EXPECT_TRUE(mem.empty());
}

TEST(SsTableTest, LookupFindsBlocks) {
  std::vector<uint64_t> keys(100);
  std::iota(keys.begin(), keys.end(), 1000);
  SsTable table(1, 7, keys, /*level=*/1, /*block_size=*/4096, /*keys_per_block=*/4);
  EXPECT_EQ(table.min_key(), 1000u);
  EXPECT_EQ(table.max_key(), 1099u);
  EXPECT_EQ(table.size_bytes(), 25 * 4096);
  int64_t offset = -1;
  ASSERT_TRUE(table.Lookup(1000, &offset));
  EXPECT_EQ(offset, 0);
  ASSERT_TRUE(table.Lookup(1007, &offset));
  EXPECT_EQ(offset, 4096);  // Rank 7 -> block 1.
  EXPECT_FALSE(table.Lookup(999, &offset));
  EXPECT_FALSE(table.Lookup(5000, &offset));
}

TEST(SsTableTest, MayContainRangeAndBloom) {
  std::vector<uint64_t> keys = {10, 20, 30};
  SsTable table(1, 7, keys, 0);
  EXPECT_TRUE(table.MayContain(20));
  EXPECT_FALSE(table.MayContain(5));
  EXPECT_FALSE(table.MayContain(35));
}

class LsmTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    os::OsOptions opt;
    opt.backend = os::BackendKind::kDiskCfq;
    opt.mitt_enabled = false;
    os_ = std::make_unique<os::Os>(&sim_, opt);
  }

  sim::Simulator sim_;
  std::unique_ptr<os::Os> os_;
};

TEST_F(LsmTreeTest, PutsFlushToL0) {
  LsmTree::Options opt;
  opt.memtable_flush_bytes = 64 << 10;  // Tiny, to force flushes.
  LsmTree tree(&sim_, os_.get(), opt);
  int acked = 0;
  for (uint64_t k = 0; k < 200; ++k) {
    tree.Put(k, [&](Status s) {
      EXPECT_TRUE(s.ok());
      ++acked;
    });
  }
  sim_.Run();
  EXPECT_EQ(acked, 200);
  EXPECT_GT(tree.flushes_done(), 0u);
  EXPECT_GT(tree.level_size(0) + tree.level_size(1), 0u);
}

TEST_F(LsmTreeTest, CompactionMergesL0IntoL1) {
  LsmTree::Options opt;
  opt.memtable_flush_bytes = 32 << 10;
  opt.l0_compaction_trigger = 3;
  LsmTree tree(&sim_, os_.get(), opt);
  for (uint64_t k = 0; k < 500; ++k) {
    tree.Put(k * 13, nullptr);
  }
  sim_.Run();
  EXPECT_GT(tree.compactions_done(), 0u);
  EXPECT_LT(tree.level_size(0), 3u);
  EXPECT_GT(tree.level_size(1), 0u);
}

TEST_F(LsmTreeTest, GetFromMemtableIsInstant) {
  LsmTree tree(&sim_, os_.get(), LsmTree::Options{});
  tree.Put(42, nullptr);
  sim_.Run();
  Status status = Status::Internal();
  tree.Get(42, sched::kNoDeadline, [&](Status s) { status = s; });
  EXPECT_TRUE(status.ok());  // Synchronous memtable hit.
}

TEST_F(LsmTreeTest, GetFromSstableCostsOneRead) {
  LsmTree tree(&sim_, os_.get(), LsmTree::Options{});
  std::vector<uint64_t> keys(5000);
  std::iota(keys.begin(), keys.end(), 0);
  tree.BulkLoad(keys);
  Status status = Status::Internal();
  TimeNs done = -1;
  tree.Get(777, sched::kNoDeadline, [&](Status s) {
    status = s;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.ok());
  EXPECT_GT(done, kMillisecond);  // One disk block read.
  EXPECT_LT(done, Millis(15));
}

TEST_F(LsmTreeTest, MissingKeyNotFoundWithoutIo) {
  LsmTree tree(&sim_, os_.get(), LsmTree::Options{});
  std::vector<uint64_t> keys(1000);
  std::iota(keys.begin(), keys.end(), 0);
  tree.BulkLoad(keys);
  Status status = Status::Internal();
  tree.Get(999999, sched::kNoDeadline, [&](Status s) { status = s; });
  // Range check rejects instantly; no IO, synchronous NotFound.
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(LsmTreeTest, EbusyPropagatesFromReadPath) {
  // Rebuild the OS with MittOS enabled.
  os::OsOptions opt;
  opt.backend = os::BackendKind::kDiskCfq;
  opt.mitt_enabled = true;
  os_ = std::make_unique<os::Os>(&sim_, opt);
  LsmTree tree(&sim_, os_.get(), LsmTree::Options{});
  std::vector<uint64_t> keys(5000);
  std::iota(keys.begin(), keys.end(), 0);
  tree.BulkLoad(keys);
  Saturate(*os_);
  Status status = Status::Internal();
  TimeNs done = -1;
  tree.Get(777, Millis(10), [&](Status s) {
    status = s;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.busy());
  EXPECT_LT(done, kMillisecond);  // Fast rejection, no queueing.
}

class RingTest : public ::testing::Test {
 protected:
  void Build(bool mitt_enabled) {
    network_ = std::make_unique<cluster::Network>(&sim_, cluster::NetworkParams{}, 5);
    std::vector<uint64_t> keys(20000);
    std::iota(keys.begin(), keys.end(), 0);
    for (int i = 0; i < 3; ++i) {
      LsmNode::Options opt;
      opt.os.backend = os::BackendKind::kDiskCfq;
      opt.os.mitt_enabled = mitt_enabled;
      nodes_.push_back(std::make_unique<LsmNode>(&sim_, i, opt));
      nodes_.back()->lsm().BulkLoad(keys);
    }
    kv::RingCoordinator::Options copt;
    copt.deadline = Millis(12);
    copt.mitt_enabled = mitt_enabled;
    coordinator_ = std::make_unique<kv::RingCoordinator>(
        &sim_,
        std::vector<LsmNode*>{nodes_[0].get(), nodes_[1].get(), nodes_[2].get()},
        network_.get(), copt);
  }

  sim::Simulator sim_;
  std::unique_ptr<cluster::Network> network_;
  std::vector<std::unique_ptr<LsmNode>> nodes_;
  std::unique_ptr<kv::RingCoordinator> coordinator_;
};

TEST_F(RingTest, GetSucceedsQuietCluster) {
  Build(true);
  Status status = Status::Internal();
  TimeNs done = -1;
  coordinator_->Get(123, [&](Status s) {
    status = s;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(coordinator_->failovers(), 0u);
}

TEST_F(RingTest, EbusyTriggersReplicaFailover) {
  Build(true);
  // Saturate the primary replica of key 123.
  const int primary = coordinator_->ReplicasOf(123)[0];
  Saturate(nodes_[static_cast<size_t>(primary)]->os());
  Status status = Status::Internal();
  TimeNs done = -1;
  const TimeNs start = sim_.Now();
  coordinator_->Get(123, [&](Status s) {
    status = s;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.ok());
  EXPECT_GE(coordinator_->failovers(), 1u);
  EXPECT_LT(done - start, Millis(15));  // No waiting on the busy primary.
}

TEST_F(RingTest, PutReplicatesAndAcks) {
  Build(true);
  Status status = Status::Internal();
  TimeNs done = -1;
  coordinator_->Put(55, [&](Status s) {
    status = s;
    done = sim_.Now();
  });
  sim_.RunUntilPredicate([&] { return done >= 0; });
  EXPECT_TRUE(status.ok());
  EXPECT_LT(done, Millis(2));  // WAL hits NVRAM; buffered ack.
  sim_.Run();
  for (auto& node : nodes_) {
    EXPECT_GT(node->lsm().memtable_entries(), 0u);
  }
}

// --- Ring+LSM stream pin ---
//
// A 3-node RingCoordinator over LsmNodes with overlapping 1 MB-read noise
// episodes on every node: EBUSY propagates out of LevelDB's block reads, the
// naive coordinator fails over (deadline disabled on the last try) and the
// resilient one walks into the nodes' degraded path when every replica
// rejects. Each get's (latency, status code, failovers so far) is folded into
// an FNV-1a hash, so any change to EBUSY propagation, wait hints, event order
// or failover decisions shows up as a changed string.

uint64_t Fnv(uint64_t hash, uint64_t v) { return (hash ^ v) * 0x100000001b3ULL; }

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::string RingPinScorecard(bool resilience_enabled) {
  sim::Simulator sim;
  cluster::Network network(&sim, cluster::NetworkParams{}, 77);
  std::vector<uint64_t> keys(20000);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<std::unique_ptr<LsmNode>> nodes;
  std::vector<std::unique_ptr<noise::IoNoiseInjector>> injectors;
  for (int i = 0; i < 3; ++i) {
    LsmNode::Options opt;
    opt.os.backend = os::BackendKind::kDiskCfq;
    opt.os.cache.capacity_pages = 1 << 10;  // 4 MiB: most block reads miss.
    opt.os.seed = 41 + static_cast<uint64_t>(i);
    nodes.push_back(std::make_unique<LsmNode>(&sim, i, opt));
    nodes.back()->lsm().BulkLoad(keys);
    os::Os& node_os = nodes.back()->os();
    const int64_t noise_size = 50LL << 30;
    // Staggered episodes: one busy node at a time early on, all three busy
    // together in the second episode.
    const std::vector<noise::NoiseEpisode> schedule = {
        {Millis(40 + 60 * i), Millis(120), 2},
        {Millis(400), Millis(250), 2},
    };
    injectors.push_back(std::make_unique<noise::IoNoiseInjector>(
        &sim, &node_os, node_os.CreateFile(noise_size), noise_size, schedule,
        noise::IoNoiseInjector::Options{}, 0xAB0ULL + static_cast<uint64_t>(i)));
    injectors.back()->Start();
  }
  kv::RingCoordinator::Options copt;
  copt.deadline = Millis(13);
  copt.resilience_enabled = resilience_enabled;
  kv::RingCoordinator coordinator(
      &sim, {nodes[0].get(), nodes[1].get(), nodes[2].get()}, &network, copt);

  constexpr int kGets = 300;
  Rng rng(2024);
  uint64_t hash = kFnvBasis;
  int issued = 0;
  int completed = 0;
  std::function<void()> issue = [&] {
    if (issued >= kGets) {
      return;
    }
    ++issued;
    const TimeNs start = sim.Now();
    coordinator.Get(static_cast<uint64_t>(rng.UniformInt(0, 19999)), [&, start](Status s) {
      hash = Fnv(hash, static_cast<uint64_t>(sim.Now() - start));
      hash = Fnv(hash, static_cast<uint64_t>(s.code()));
      hash = Fnv(hash, coordinator.failovers());
      ++completed;
      issue();
    });
  };
  for (int c = 0; c < 4; ++c) {
    issue();
  }
  sim.RunUntilPredicate([&] { return completed >= kGets; });

  // Degraded leg: direct degraded reads on node 0 behind a fresh backlog,
  // with deadlines under and over the device floor. The LSM loop's
  // escalation and inter-attempt waits feed on the wait hint it reports.
  Saturate(nodes[0]->os());
  int degraded_done = 0;
  const DurationNs deadlines[] = {Micros(1), Millis(2), Millis(13), sched::kNoDeadline};
  for (const DurationNs d : deadlines) {
    const TimeNs start = sim.Now();
    nodes[0]->HandleDegradedGet(static_cast<uint64_t>(rng.UniformInt(0, 19999)), d,
                                [&, start](Status s) {
                                  hash = Fnv(hash, static_cast<uint64_t>(sim.Now() - start));
                                  hash = Fnv(hash, static_cast<uint64_t>(s.code()));
                                  ++degraded_done;
                                });
  }
  sim.RunUntilPredicate([&] { return degraded_done == 4; });
  hash = Fnv(hash, static_cast<uint64_t>(nodes[0]->degraded().max_deadline()));

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "gets=%d hash=%016llx failovers=%llu unbounded=%llu degraded=%llu sheds=%llu "
                "sim_events=%llu",
                completed, static_cast<unsigned long long>(hash),
                static_cast<unsigned long long>(coordinator.failovers()),
                static_cast<unsigned long long>(coordinator.unbounded_tries()),
                static_cast<unsigned long long>(coordinator.degraded_gets()),
                static_cast<unsigned long long>(coordinator.degraded_sheds_seen()),
                static_cast<unsigned long long>(sim.executed_events()));
  return buf;
}

TEST(RingPinTest, NaiveRingMatchesPinnedStream) {
  EXPECT_EQ(RingPinScorecard(/*resilience_enabled=*/false),
            "gets=300 hash=231a92c76ae8de69 failovers=121 unbounded=49 degraded=0 sheds=0 "
            "sim_events=2713");
}

TEST(RingPinTest, ResilientRingMatchesPinnedStream) {
  EXPECT_EQ(RingPinScorecard(/*resilience_enabled=*/true),
            "gets=300 hash=49a4030fa7199d9a failovers=142 unbounded=0 degraded=37 sheds=0 "
            "sim_events=2960");
}

}  // namespace
}  // namespace mitt::lsm
