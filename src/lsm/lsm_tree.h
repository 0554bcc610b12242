// LevelDB-style LSM tree on top of one MittOS instance (§5's second
// application).
//
// Writes: WAL append (sync, absorbed by the drive's NVRAM) + memtable
// insert; a full memtable flushes to a new L0 SSTable with buffered writes.
// Reads: memtable, then L0 tables newest-first, then L1+ by key range; each
// candidate table costs one data-block read issued through read(...,
// deadline) — the first EBUSY aborts the whole lookup so the caller (Riak)
// can fail over to another replica.
// Compaction: when L0 grows past a threshold, L0 and overlapping L1 tables
// merge into new L1 tables; compaction IO runs at Idle class with no
// deadline, providing the paper's background-maintenance contention.

#ifndef MITTOS_LSM_LSM_TREE_H_
#define MITTOS_LSM_LSM_TREE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/lsm/memtable.h"
#include "src/lsm/sstable.h"
#include "src/obs/trace.h"
#include "src/os/os.h"
#include "src/sim/simulator.h"

namespace mitt::lsm {

class LsmTree {
 public:
  struct Options {
    int64_t memtable_flush_bytes = 4 << 20;
    int l0_compaction_trigger = 4;
    int64_t block_size = 4096;
    int keys_per_block = 4;
    uint32_t value_size = 1024;
    int32_t server_pid = 1;
    bool wal_sync = true;
  };

  LsmTree(sim::Simulator* sim, os::Os* node_os, const Options& options);

  // Insert/update. `done` fires after the WAL write and memtable insert.
  void Put(uint64_t key, std::function<void(Status)> done);

  // Point lookup with an SLO. Calls `done` with:
  //   kOk        — found (or definitively absent after all candidate tables);
  //   kNotFound  — key in no layer;
  //   kEbusy     — some required data-block IO was rejected by MittOS.
  // `trace` ties every data-block read's spans to the originating client
  // request (src/obs/; default: untraced).
  void Get(uint64_t key, DurationNs deadline, std::function<void(Status)> done,
           obs::TraceContext trace = {});

  // Bulk-loads sorted keys directly into L1 tables (dataset setup), bypassing
  // the write path; optionally pre-warms nothing (reads hit the device).
  void BulkLoad(const std::vector<uint64_t>& sorted_keys);

  size_t level_size(int level) const;
  size_t memtable_entries() const { return memtable_.entry_count(); }
  uint64_t compactions_done() const { return compactions_done_; }
  uint64_t flushes_done() const { return flushes_done_; }
  bool compaction_running() const { return compaction_running_; }

 private:
  void MaybeFlushMemtable();
  void MaybeStartCompaction();
  void FinishCompaction(std::vector<std::shared_ptr<SsTable>> new_l1);
  std::shared_ptr<SsTable> BuildTable(std::vector<uint64_t> sorted_keys, int level);
  // Continues the lookup at candidate index `idx` of `candidates`.
  void GetFromTables(uint64_t key, DurationNs deadline, obs::TraceContext trace,
                     std::shared_ptr<std::vector<std::shared_ptr<SsTable>>> candidates,
                     size_t idx, std::function<void(Status)> done);

  sim::Simulator* sim_;
  os::Os* os_;
  Options options_;

  MemTable memtable_;
  uint64_t wal_file_ = 0;
  int64_t wal_offset_ = 0;
  uint64_t next_table_id_ = 1;

  // levels_[0] is L0 (newest first); levels_[1] is L1 (sorted, disjoint).
  std::vector<std::vector<std::shared_ptr<SsTable>>> levels_;
  bool compaction_running_ = false;
  uint64_t compactions_done_ = 0;
  uint64_t flushes_done_ = 0;
};

}  // namespace mitt::lsm

#endif  // MITTOS_LSM_LSM_TREE_H_
