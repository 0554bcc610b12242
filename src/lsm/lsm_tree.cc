#include "src/lsm/lsm_tree.h"

#include <algorithm>
#include <set>

namespace mitt::lsm {

LsmTree::LsmTree(sim::Simulator* sim, os::Os* node_os, const Options& options)
    : sim_(sim), os_(node_os), options_(options) {
  levels_.resize(2);
  wal_file_ = os_->CreateFile(64 << 20);
}

std::shared_ptr<SsTable> LsmTree::BuildTable(std::vector<uint64_t> sorted_keys, int level) {
  const auto blocks = (static_cast<int64_t>(sorted_keys.size()) + options_.keys_per_block - 1) /
                      options_.keys_per_block;
  const uint64_t file = os_->CreateFile(std::max<int64_t>(1, blocks) * options_.block_size);
  return std::make_shared<SsTable>(next_table_id_++, file, std::move(sorted_keys), level,
                                   options_.block_size, options_.keys_per_block);
}

void LsmTree::Put(uint64_t key, std::function<void(Status)> done) {
  os::Os::WriteArgs wal;
  wal.file = wal_file_;
  wal.offset = wal_offset_;
  wal.size = static_cast<int64_t>(sizeof(uint64_t)) + options_.value_size;
  wal.pid = options_.server_pid;
  wal.sync = options_.wal_sync;
  wal_offset_ = (wal_offset_ + wal.size) % (48 << 20);  // Circular log region.
  os_->Write(wal, [this, key, done = std::move(done)](Status s) {
    memtable_.Put(key, options_.value_size);
    MaybeFlushMemtable();
    if (done) {
      done(s);
    }
  });
}

void LsmTree::MaybeFlushMemtable() {
  if (memtable_.approximate_bytes() < options_.memtable_flush_bytes) {
    return;
  }
  auto table = BuildTable(memtable_.SortedKeys(), /*level=*/0);
  memtable_.Clear();
  ++flushes_done_;
  // Write the table contents as buffered (background-flushed) IO.
  os::Os::WriteArgs w;
  w.file = table->file();
  w.offset = 0;
  w.size = table->size_bytes();
  w.pid = options_.server_pid;
  w.sync = false;
  os_->Write(w, nullptr);
  levels_[0].insert(levels_[0].begin(), table);  // Newest first.
  MaybeStartCompaction();
}

void LsmTree::MaybeStartCompaction() {
  if (compaction_running_ ||
      levels_[0].size() < static_cast<size_t>(options_.l0_compaction_trigger)) {
    return;
  }
  compaction_running_ = true;

  // Merge every L0 table with all of L1 (single-shard simplification of
  // LevelDB's range-overlap selection; our tables span wide key ranges, so
  // overlap is near-total anyway).
  std::set<uint64_t> merged;
  int64_t input_bytes = 0;
  for (const auto& level : levels_) {
    for (const auto& table : level) {
      merged.insert(table->keys().begin(), table->keys().end());
      input_bytes += table->size_bytes();
    }
  }
  std::vector<uint64_t> all(merged.begin(), merged.end());

  // Split into ~8MB output tables.
  const auto keys_per_out = static_cast<size_t>(
      (8LL << 20) / options_.block_size * static_cast<int64_t>(options_.keys_per_block));
  std::vector<std::shared_ptr<SsTable>> new_l1;
  for (size_t i = 0; i < all.size(); i += keys_per_out) {
    const size_t end = std::min(all.size(), i + keys_per_out);
    new_l1.push_back(
        BuildTable(std::vector<uint64_t>(all.begin() + static_cast<int64_t>(i),
                                         all.begin() + static_cast<int64_t>(end)),
                   /*level=*/1));
  }

  // Compaction IO: read all inputs, write all outputs, chained at Idle class
  // so foreground reads keep CFQ priority — yet the device still sees the
  // load (the §3.3 "maintenance jobs" noise source).
  struct CompactionIo {
    uint64_t file;
    int64_t offset;
    int64_t size;
    bool write;
  };
  auto ios = std::make_shared<std::vector<CompactionIo>>();
  constexpr int64_t kChunk = 256 << 10;
  for (const auto& level : levels_) {
    for (const auto& table : level) {
      for (int64_t off = 0; off < table->size_bytes(); off += kChunk) {
        ios->push_back({table->file(), off, std::min(kChunk, table->size_bytes() - off), false});
      }
    }
  }
  for (const auto& table : new_l1) {
    for (int64_t off = 0; off < table->size_bytes(); off += kChunk) {
      ios->push_back({table->file(), off, std::min(kChunk, table->size_bytes() - off), true});
    }
  }

  // The pending IO callback holds the strong ref; the lambda only keeps a
  // weak self-reference (a strong one would be a cycle and leak).
  auto step = std::make_shared<std::function<void(size_t)>>();
  *step = [this, ios, new_l1,
           wstep = std::weak_ptr<std::function<void(size_t)>>(step)](size_t idx) {
    if (idx >= ios->size()) {
      FinishCompaction(new_l1);
      return;
    }
    const auto step = wstep.lock();
    const CompactionIo& io = (*ios)[idx];
    if (io.write) {
      os::Os::WriteArgs w;
      w.file = io.file;
      w.offset = io.offset;
      w.size = io.size;
      w.pid = options_.server_pid + 1000;  // Compaction thread.
      w.io_class = sched::IoClass::kIdle;
      w.priority = 7;
      w.sync = true;
      os_->Write(w, [step, idx](Status) { (*step)(idx + 1); });
    } else {
      os::Os::ReadArgs r;
      r.file = io.file;
      r.offset = io.offset;
      r.size = io.size;
      r.pid = options_.server_pid + 1000;
      r.io_class = sched::IoClass::kIdle;
      r.priority = 7;
      r.bypass_cache = true;
      os_->Read(r, [step, idx](Status) { (*step)(idx + 1); });
    }
  };
  (*step)(0);
}

void LsmTree::FinishCompaction(std::vector<std::shared_ptr<SsTable>> new_l1) {
  levels_[0].clear();
  levels_[1] = std::move(new_l1);
  compaction_running_ = false;
  ++compactions_done_;
  MaybeStartCompaction();
}

void LsmTree::BulkLoad(const std::vector<uint64_t>& sorted_keys) {
  const auto keys_per_out = static_cast<size_t>(
      (8LL << 20) / options_.block_size * static_cast<int64_t>(options_.keys_per_block));
  for (size_t i = 0; i < sorted_keys.size(); i += keys_per_out) {
    const size_t end = std::min(sorted_keys.size(), i + keys_per_out);
    levels_[1].push_back(
        BuildTable(std::vector<uint64_t>(sorted_keys.begin() + static_cast<int64_t>(i),
                                         sorted_keys.begin() + static_cast<int64_t>(end)),
                   /*level=*/1));
  }
}

size_t LsmTree::level_size(int level) const {
  return levels_[static_cast<size_t>(level)].size();
}

void LsmTree::Get(uint64_t key, DurationNs deadline, std::function<void(Status)> done,
                  obs::TraceContext trace) {
  if (memtable_.Contains(key)) {
    done(Status::Ok());  // Served from memory; cost is negligible vs the net.
    return;
  }
  // Snapshot the candidate tables (compaction may swap levels mid-lookup).
  auto candidates = std::make_shared<std::vector<std::shared_ptr<SsTable>>>();
  for (const auto& table : levels_[0]) {
    if (table->MayContain(key)) {
      candidates->push_back(table);
    }
  }
  for (const auto& table : levels_[1]) {
    if (table->MayContain(key)) {
      candidates->push_back(table);
    }
  }
  GetFromTables(key, deadline, trace, std::move(candidates), 0, std::move(done));
}

void LsmTree::GetFromTables(uint64_t key, DurationNs deadline, obs::TraceContext trace,
                            std::shared_ptr<std::vector<std::shared_ptr<SsTable>>> candidates,
                            size_t idx, std::function<void(Status)> done) {
  if (idx >= candidates->size()) {
    done(Status::NotFound());
    return;
  }
  const auto& table = (*candidates)[idx];
  int64_t block_offset = 0;
  if (!table->Lookup(key, &block_offset)) {
    // Bloom false positive; try the next candidate without IO.
    GetFromTables(key, deadline, trace, std::move(candidates), idx + 1, std::move(done));
    return;
  }
  os::Os::ReadArgs r;
  r.file = table->file();
  r.offset = block_offset;
  r.size = options_.block_size;
  r.deadline = deadline;
  r.pid = options_.server_pid;
  r.trace = trace;
  os_->Read(r, [done = std::move(done)](Status s) {
    // Either the block read succeeded (key found) or MittOS rejected it; both
    // terminate the lookup (an EBUSY must propagate to the replication layer,
    // §5: "the returned EBUSY is propagated to Riak where the read failover
    // takes place").
    done(s);
  });
}

}  // namespace mitt::lsm
