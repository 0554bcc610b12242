// One Riak-style storage node: an LsmTree (LevelDB) over its own MittOS
// instance, with handler CPU accounting, servicing get/put requests arriving
// over the network (§5, §7.8.4).

#ifndef MITTOS_LSM_LSM_NODE_H_
#define MITTOS_LSM_LSM_NODE_H_

#include <functional>
#include <memory>

#include "src/cluster/cpu_pool.h"
#include "src/lsm/lsm_tree.h"
#include "src/os/os.h"
#include "src/resilience/degraded_read.h"
#include "src/sim/simulator.h"

namespace mitt::lsm {

class LsmNode {
 public:
  struct Options {
    os::OsOptions os;
    LsmTree::Options lsm;
    int cpu_cores = 8;
    DurationNs handler_cpu = Micros(30);

    // Degraded (all-replicas-busy) read path (src/resilience/): bounded
    // admission + bounded escalating deadlines, the loop DocStoreNode uses.
    resilience::DegradedReadOptions degraded;
  };

  LsmNode(sim::Simulator* sim, int node_id, const Options& options);

  // In-flight requests and the degraded-read hooks hold `this`.
  LsmNode(const LsmNode&) = delete;
  LsmNode& operator=(const LsmNode&) = delete;

  void HandleGet(uint64_t key, DurationNs deadline, std::function<void(Status)> reply);

  // Degraded read through resilience::DegradedReadLoop: kUnavailable when
  // over capacity; admitted reads retry EBUSY with escalated (capped, never
  // disabled) deadlines. Every EBUSY the loop sees reports the device floor
  // as its wait hint, not the OS' predicted wait: a LevelDB get walks
  // several candidate tables and fails on whichever block read was rejected,
  // so that one IO's queue estimate is not the get's wait. The floor makes
  // the loop re-poll soon and escalate by doubling; it is also the hint
  // bench_fig13_riak and RingPinTest were produced with.
  void HandleDegradedGet(uint64_t key, DurationNs deadline, std::function<void(Status)> reply);

  void HandlePut(uint64_t key, std::function<void(Status)> reply);

  int node_id() const { return node_id_; }
  os::Os& os() { return *os_; }
  LsmTree& lsm() { return *lsm_; }
  uint64_t ebusy_returned() const { return ebusy_returned_; }
  const resilience::DegradedReadLoop& degraded() const { return degraded_; }

 private:
  sim::Simulator* sim_;
  int node_id_;
  Options options_;
  std::unique_ptr<os::Os> os_;
  std::unique_ptr<cluster::CpuPool> cpu_;
  std::unique_ptr<LsmTree> lsm_;
  uint64_t ebusy_returned_ = 0;
  resilience::DegradedReadLoop degraded_;
};

}  // namespace mitt::lsm

#endif  // MITTOS_LSM_LSM_NODE_H_
