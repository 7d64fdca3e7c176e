// Release Queue (RelQue) of the extended mechanism (paper §4, Figure 7).
//
// One level per *pending* (unverified) branch, in decode order. A level
// holds the conditional release schedulings made by NV instructions decoded
// while that branch was the newest pending one:
//   - RwNS ("Release when Non-Speculative"): physical registers whose LU
//     instruction has already committed; they release as soon as the level
//     reaches the bottom of the queue (oldest branch confirms).
//   - RwC ("Release when Commit"): rel1/rel2/reld bits keyed by the LU
//     instruction, to be synchronized with its commit. When the LU commits
//     while the scheduling is still conditional, the bits decode into
//     physical registers and move to the same level's RwNS (paper Step 5).
//
// Branch confirmation merges a level into the next-older one; confirming the
// *oldest* level releases its RwNS set and merges its RwC bits into the
// unconditional RwC0 (the ROS rel bits, owned by the caller). Misprediction
// of branch n drops level n and every younger level (paper Step 3).
//
// The paper implements levels as a physical two-dimensional shift register;
// here the levels sit in a fixed ring with one slot per checkpoint the core
// can hold, and each level keeps its RwNS registers and RwC schedulings in
// flat arrays that are cleared, never freed, when the slot is reused. After
// warm-up no operation allocates (the paper notes the population is bounded
// by the ROS size, §4.2). A level's RwC array is kept in LU order: RwC
// entries only name in-flight LUs and LUs commit in program order, so a
// committing LU can only be the first live entry of each level, and an
// LU commit costs one comparison per level.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace erel::core {

class ReleaseQueue {
 public:
  /// One RwC scheduling: rel bits to set on LU instruction `lu_seq`.
  struct RwcEntry {
    InstSeq lu_seq = kNoSeq;
    std::uint8_t bits = 0;
  };

  /// What confirming the oldest level hands back. The views point into the
  /// queue's storage and stay valid until the next push_level().
  struct ConfirmResult {
    /// Registers to free right now (RwNS of the confirmed oldest level).
    std::span<const PhysReg> release_now;
    /// RwC schedulings that became unconditional, in ascending LU order: the
    /// caller must OR these bits into the ROS rel-bit fields (RwC0) of the
    /// LU instructions.
    std::span<const RwcEntry> to_rwc0;
  };

  /// `max_levels`: the most branches that can be pending at once.
  explicit ReleaseQueue(unsigned max_levels);

  /// Step 1: a conditional branch was decoded; append an empty level.
  void push_level(InstSeq branch_seq);

  /// Step 2 (LU already committed): schedule `p` in the newest level's RwNS.
  void schedule_committed(PhysReg p);

  /// Step 2 (LU in flight): schedule rel bits for `lu_seq` in the newest
  /// level's RwC.
  void schedule_inflight(InstSeq lu_seq, std::uint8_t bits);

  /// Step 5: `lu_seq` committed; convert its RwC bits in every level into
  /// RwNS entries using the physical ids from its ROS record. Must be called
  /// in commit order for every LU that has RwC bits scheduled.
  void on_lu_commit(InstSeq lu_seq, PhysReg p1, PhysReg p2, PhysReg pd);

  /// Step 4 / Step 6: branch verified correct. Merges its level downward;
  /// when it was the oldest level the result carries the releases.
  ConfirmResult confirm(InstSeq branch_seq);

  /// Step 3: branch mispredicted; drops its level and all younger ones.
  void mispredict(InstSeq branch_seq);

  /// Exception flush: every scheduling is dropped.
  void clear() { count_ = 0; }

  [[nodiscard]] std::size_t num_levels() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] bool has_level(InstSeq branch_seq) const;

  /// Total number of schedulings across all levels (paper §4.2 bounds this
  /// by the number of in-flight instructions with destinations).
  [[nodiscard]] std::size_t total_scheduled() const;

 private:
  struct Level {
    InstSeq branch_seq = kNoSeq;
    std::vector<PhysReg> rwns;
    std::vector<RwcEntry> rwc;  // [rwc_head, end): one entry per LU, by LU
    std::size_t rwc_head = 0;   // entries before it migrated at LU commit
  };

  /// Ring slot of the i-th pending level, 0 = oldest (i < capacity()).
  [[nodiscard]] std::size_t slot(std::size_t i) const {
    const std::size_t s = head_ + i;
    return s < ring_.size() ? s : s - ring_.size();
  }
  Level& level(std::size_t i) { return ring_[slot(i)]; }
  const Level& level(std::size_t i) const { return ring_[slot(i)]; }

  /// Position of the level attached to `branch_seq`; count_ when absent.
  [[nodiscard]] std::size_t level_index(InstSeq branch_seq) const;

  std::vector<Level> ring_;
  std::size_t head_ = 0;   // ring slot of the oldest pending level
  std::size_t count_ = 0;  // pending levels
  std::vector<RwcEntry> merged_;  // scratch for merging RwC arrays
};

}  // namespace erel::core
