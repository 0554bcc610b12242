// Tournament-tree min index over per-shard event frontiers.
//
// The sharded engine needs, at every conservative barrier: the earliest
// pending event time across shards (the window frontier) and the set of
// shards with events below a window end. A flat rescan is O(S) per window
// and was the dominant bookkeeping term in low-density worlds where windows
// hold ~11 events; this index makes every update O(log S) and lets the
// per-window cost scale with the shards that actually moved.
//
// Layout: a complete binary tree over `cap` (= S rounded up to a power of
// two) leaves, stored as the classic implicit array of 2*cap nodes; leaf s
// lives at cap+s and every internal node holds the min of its children.
// Absent frontiers (shard has no runnable event) are stored as kEmpty =
// INT64_MAX so min() composition needs no special cases. All operations are
// single-threaded (engine-coordinator only) and allocation-free after
// construction.

#ifndef MITTOS_SIM_FRONTIER_INDEX_H_
#define MITTOS_SIM_FRONTIER_INDEX_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/time.h"

namespace mitt::sim {

class FrontierIndex {
 public:
  static constexpr TimeNs kEmpty = std::numeric_limits<TimeNs>::max();

  explicit FrontierIndex(int num_shards) : n_(num_shards) {
    cap_ = 1;
    while (cap_ < n_) {
      cap_ <<= 1;
    }
    tree_.assign(static_cast<size_t>(cap_) * 2, kEmpty);
  }

  // Sets shard s's frontier (kEmpty = no runnable event) and repairs the
  // min path to the root. O(log S).
  void Set(int s, TimeNs t) {
    size_t i = static_cast<size_t>(cap_ + s);
    if (tree_[i] == t) {
      return;
    }
    tree_[i] = t;
    for (i >>= 1; i >= 1; i >>= 1) {
      const TimeNs m = std::min(tree_[i * 2], tree_[i * 2 + 1]);
      if (tree_[i] == m) {
        break;  // Upper path already correct.
      }
      tree_[i] = m;
    }
  }

  // Earliest frontier over all shards (kEmpty when none has events). O(1).
  TimeNs Min() const { return tree_[1]; }

  // Calls f(shard) for every shard with frontier < bound, in ascending shard
  // order (left-to-right descent). Skips whole subtrees that cannot match,
  // so the cost is O(hits * log S) rather than O(S).
  template <typename F>
  void ForEachBelow(TimeNs bound, F&& f) const {
    CollectBelow(1, bound, f);
  }

 private:
  template <typename F>
  void CollectBelow(size_t i, TimeNs bound, F& f) const {
    if (tree_[i] >= bound) {
      return;
    }
    if (i >= static_cast<size_t>(cap_)) {
      const int s = static_cast<int>(i - static_cast<size_t>(cap_));
      if (s < n_) {
        f(s);
      }
      return;
    }
    CollectBelow(i * 2, bound, f);
    CollectBelow(i * 2 + 1, bound, f);
  }

  int n_;
  int cap_;
  std::vector<TimeNs> tree_;
};

}  // namespace mitt::sim

#endif  // MITTOS_SIM_FRONTIER_INDEX_H_
