// Release Queue (paper §4.2): level push, conditional scheduling, LU-commit
// migration (RwC -> RwNS), out-of-order confirmation merging, misprediction
// clearing, the population bound, the fixed level ring, and the RwC marks
// the extended policy leaves on LU records.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/release_policy.hpp"
#include "core/release_queue.hpp"
#include "core/rename_history.hpp"
#include "fake_hooks.hpp"

namespace erel::core {
namespace {

constexpr unsigned kLevels = 20;

TEST(ReleaseQueue, OldestConfirmReleasesRwns) {
  ReleaseQueue q(kLevels);
  q.push_level(10);
  q.schedule_committed(40);
  q.schedule_committed(41);
  const auto result = q.confirm(10);
  EXPECT_EQ(result.release_now.size(), 2u);
  EXPECT_TRUE(result.to_rwc0.empty());
  EXPECT_EQ(q.num_levels(), 0u);
}

TEST(ReleaseQueue, OldestConfirmMovesRwcToRwc0) {
  ReleaseQueue q(kLevels);
  q.push_level(10);
  q.schedule_inflight(/*lu=*/5, kRel1 | kRelD);
  const auto result = q.confirm(10);
  EXPECT_TRUE(result.release_now.empty());
  ASSERT_EQ(result.to_rwc0.size(), 1u);
  EXPECT_EQ(result.to_rwc0[0].lu_seq, 5u);
  EXPECT_EQ(result.to_rwc0[0].bits, kRel1 | kRelD);
}

TEST(ReleaseQueue, MiddleConfirmMergesDownward) {
  ReleaseQueue q(kLevels);
  q.push_level(10);
  q.schedule_committed(40);
  q.push_level(20);
  q.schedule_committed(41);
  q.schedule_inflight(7, kRel2);
  // Branch 20 (second-oldest) confirms: its content merges into level 10.
  const auto mid = q.confirm(20);
  EXPECT_TRUE(mid.release_now.empty());
  EXPECT_TRUE(mid.to_rwc0.empty());
  EXPECT_EQ(q.num_levels(), 1u);
  // Now the oldest confirms and everything drains.
  const auto oldest = q.confirm(10);
  EXPECT_EQ(oldest.release_now.size(), 2u);
  ASSERT_EQ(oldest.to_rwc0.size(), 1u);
  EXPECT_EQ(oldest.to_rwc0[0].bits, kRel2);
}

TEST(ReleaseQueue, OutOfOrderConfirmationOfYoungest) {
  ReleaseQueue q(kLevels);
  q.push_level(10);
  q.push_level(20);
  q.push_level(30);
  q.schedule_committed(50);  // lands in level 30 (TAIL)
  const auto r30 = q.confirm(30);  // youngest confirms first
  EXPECT_TRUE(r30.release_now.empty());
  EXPECT_EQ(q.num_levels(), 2u);
  q.confirm(20);
  const auto r10 = q.confirm(10);
  EXPECT_EQ(r10.release_now.size(), 1u);
  EXPECT_EQ(r10.release_now[0], 50);
}

TEST(ReleaseQueue, LuCommitConvertsBitsUsingPrid) {
  ReleaseQueue q(kLevels);
  q.push_level(10);
  q.schedule_inflight(/*lu=*/5, kRel1);
  q.push_level(20);
  q.schedule_inflight(/*lu=*/5, kRel2);  // same LU in another level
  q.on_lu_commit(5, /*p1=*/60, /*p2=*/61, /*pd=*/62);
  // Both levels now hold decoded registers; confirm in order and collect.
  q.confirm(20);  // merges 61 into level 10
  const auto result = q.confirm(10);
  ASSERT_EQ(result.release_now.size(), 2u);
  EXPECT_TRUE((result.release_now[0] == 60 && result.release_now[1] == 61) ||
              (result.release_now[0] == 61 && result.release_now[1] == 60));
  EXPECT_TRUE(result.to_rwc0.empty());
}

TEST(ReleaseQueue, MispredictDropsLevelAndYounger) {
  ReleaseQueue q(kLevels);
  q.push_level(10);
  q.schedule_committed(40);
  q.push_level(20);
  q.schedule_committed(41);
  q.push_level(30);
  q.schedule_committed(42);
  q.mispredict(20);
  EXPECT_EQ(q.num_levels(), 1u);
  EXPECT_TRUE(q.has_level(10));
  EXPECT_FALSE(q.has_level(20));
  EXPECT_FALSE(q.has_level(30));
  const auto result = q.confirm(10);
  ASSERT_EQ(result.release_now.size(), 1u);
  EXPECT_EQ(result.release_now[0], 40);
}

TEST(ReleaseQueue, PopulationCountsBothKinds) {
  ReleaseQueue q(kLevels);
  q.push_level(10);
  q.schedule_committed(40);
  q.schedule_inflight(5, kRel1 | kRel2 | kRelD);
  EXPECT_EQ(q.total_scheduled(), 4u);
  q.clear();
  EXPECT_EQ(q.total_scheduled(), 0u);
  EXPECT_EQ(q.num_levels(), 0u);
}

TEST(ReleaseQueue, RingStaysWithinMaxLevels) {
  constexpr unsigned kDepth = 3;
  ReleaseQueue q(kDepth);
  EXPECT_EQ(q.capacity(), kDepth);
  // Drive many times around the ring: push to the limit, then retire the
  // oldest, a middle level or a mispredicted suffix in turn.
  InstSeq branch = 1;
  std::vector<InstSeq> pending;
  for (unsigned round = 0; round < 200; ++round) {
    while (q.num_levels() < kDepth) {
      q.push_level(branch);
      q.schedule_committed(static_cast<PhysReg>(40 + branch % 50));
      q.schedule_inflight(/*lu=*/branch, kRel1);
      pending.push_back(branch++);
    }
    EXPECT_EQ(q.num_levels(), kDepth);
    switch (round % 3) {
      case 0: {
        const auto r = q.confirm(pending.front());
        EXPECT_FALSE(r.release_now.empty());
        ASSERT_FALSE(r.to_rwc0.empty());
        EXPECT_EQ(r.to_rwc0[0].lu_seq, pending.front());
        EXPECT_EQ(r.to_rwc0.size(), r.release_now.size());
        pending.erase(pending.begin());
        break;
      }
      case 1:
        q.confirm(pending[1]);  // merges into the oldest level
        pending.erase(pending.begin() + 1);
        break;
      default:
        q.mispredict(pending[1]);
        pending.resize(1);
        break;
    }
    EXPECT_EQ(q.num_levels(), pending.size());
    for (const InstSeq b : pending) EXPECT_TRUE(q.has_level(b));
  }
  EXPECT_EQ(q.capacity(), kDepth);
}

TEST(ReleaseQueue, ToRwc0AscendingAfterMiddleMerges) {
  ReleaseQueue q(kLevels);
  q.push_level(10);
  q.schedule_inflight(/*lu=*/9, kRel1);
  q.schedule_inflight(/*lu=*/3, kRel1);
  q.schedule_inflight(/*lu=*/2, kRel1);
  q.push_level(20);
  q.schedule_inflight(/*lu=*/7, kRelD);
  q.schedule_inflight(/*lu=*/4, kRel2);
  q.schedule_inflight(/*lu=*/3, kRel2);  // same LU as in level 10
  q.push_level(30);
  q.schedule_inflight(/*lu=*/5, kRel1);
  q.schedule_inflight(/*lu=*/2, kRelD);
  q.on_lu_commit(2, 60, 61, 62);  // LU 2 commits: leaves RwC for RwNS
  EXPECT_TRUE(q.confirm(20).to_rwc0.empty());  // middle level merges down
  EXPECT_TRUE(q.confirm(30).to_rwc0.empty());  // youngest merges down
  const auto result = q.confirm(10);
  const std::vector<std::pair<InstSeq, std::uint8_t>> want = {
      {3, kRel1 | kRel2}, {4, kRel2}, {5, kRel1}, {7, kRelD}, {9, kRel1}};
  ASSERT_EQ(result.to_rwc0.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(result.to_rwc0[i].lu_seq, want[i].first);
    EXPECT_EQ(result.to_rwc0[i].bits, want[i].second);
  }
  const std::vector<PhysReg> released(result.release_now.begin(),
                                      result.release_now.end());
  EXPECT_EQ(released, (std::vector<PhysReg>{60, 62}));
}

TEST(ReleaseQueue, ReleasesKeepSchedulingOrderAcrossMerges) {
  ReleaseQueue q(kLevels);
  q.push_level(10);
  q.schedule_committed(40);
  q.schedule_inflight(/*lu=*/4, kRel1 | kRel2);
  q.push_level(20);
  q.schedule_committed(41);
  q.schedule_inflight(/*lu=*/4, kRelD);
  q.on_lu_commit(4, 50, 51, 52);  // oldest level first, p1 before p2
  q.confirm(20);
  const auto result = q.confirm(10);
  const std::vector<PhysReg> want = {40, 50, 51, 41, 52};
  EXPECT_EQ(std::vector<PhysReg>(result.release_now.begin(),
                                 result.release_now.end()),
            want);
}

TEST(ReleaseQueue, LuOfDroppedLevelCommitsWithoutReleasing) {
  ReleaseQueue q(kLevels);
  q.push_level(10);
  q.schedule_committed(40);
  q.push_level(20);
  q.schedule_inflight(/*lu=*/5, kRel1);
  q.mispredict(20);
  q.on_lu_commit(5, 60, 61, 62);  // the LU survived the squash
  EXPECT_EQ(q.total_scheduled(), 1u);
  const auto result = q.confirm(10);
  ASSERT_EQ(result.release_now.size(), 1u);
  EXPECT_EQ(result.release_now[0], 40);
  EXPECT_TRUE(result.to_rwc0.empty());
}

// ---- the RwC mark, through the extended policy ----

/// Extended policy over one class, renaming "rd = op(rs1)" and recovering
/// from mispredictions the way the RenameUnit and the pipeline do.
struct MarkFixture {
  MarkFixture() : history(kLevels), rf(RC::Int, 40) {
    rf.map.attach(history);
    rf.lus.attach(history);
    policy = make_policy(PolicyKind::Extended, rf, hooks, kLevels);
  }

  void branch(InstSeq seq) {
    hooks.pending.push_back(seq);
    history.open(seq);
    policy->on_branch_decoded(seq);
  }

  /// Squashes every in-flight instruction younger than `seq`.
  void mispredict(InstSeq seq) {
    while (!hooks.inflight.empty() && hooks.inflight.rbegin()->first > seq) {
      rf.release(hooks.inflight.rbegin()->second.pd, 0, /*squashed=*/true);
      hooks.inflight.erase(std::prev(hooks.inflight.end()));
    }
    std::erase_if(hooks.pending, [seq](InstSeq b) { return b >= seq; });
    history.rollback(seq);
    policy->on_branch_mispredicted(seq);
  }

  void confirm(InstSeq seq) {
    std::erase(hooks.pending, seq);
    history.close(seq);
    policy->on_branch_confirmed(seq, seq);
  }

  RenameRec& rename(InstSeq seq, unsigned rd, int rs1 = -1) {
    RenameRec& rec = hooks.inflight[seq];
    if (rs1 >= 0) {
      rec.r1 = static_cast<std::uint8_t>(rs1);
      rec.c1 = isa::RegClass::Int;
      rec.p1 = rf.map.get(static_cast<unsigned>(rs1)).phys;
      rec.p1_token = rf.tracker.token(rec.p1);
      policy->record_src_use(static_cast<unsigned>(rs1), seq, UseKind::Src1);
    }
    rec.rd = static_cast<std::uint8_t>(rd);
    rec.cd = isa::RegClass::Int;
    EXPECT_FALSE(policy->plan_dest(rd, seq, rec, 0).reuse);
    rec.pd = rf.alloc(rec.rd, 0);
    rf.map.set(rd, rec.pd);
    policy->record_dst_use(rd, seq);
    return rec;
  }

  void commit(InstSeq seq) {
    RenameRec& rec = hooks.inflight.at(seq);
    if (rec.c1 != isa::RegClass::None)
      rf.tracker.on_consumer_commit(rec.p1, rec.p1_token, seq);
    rf.write_value(rec.pd, 0, seq);
    rf.tracker.on_definer_commit(rec.pd, seq);
    rf.iomt.set(rec.rd, rec.pd);
    rf.lus.on_commit(seq);
    policy->on_commit(rec, seq, seq);
    hooks.inflight.erase(seq);
  }

  RenameHistory history;
  RegFileState rf;
  FakeHooks hooks;
  std::unique_ptr<ReleasePolicy> policy;
};

TEST(ReleaseQueueMark, LuWhoseRwcLevelWasDroppedCommitsWithoutRelease) {
  MarkFixture f;
  f.rename(1, 5);
  f.rename(2, 6, /*rs1=*/5);  // LU of r5's version, in flight
  f.rename(3, 7);
  f.branch(3);
  const RenameRec& nv = f.rename(4, 5);  // speculative: RwC filed on LU 2
  EXPECT_TRUE(f.hooks.inflight.at(2).rwc_filed);
  EXPECT_FALSE(nv.rwc_filed);
  EXPECT_EQ(f.policy->relque_population(), 1u);
  // Branch 3 mispredicts: the NV is squashed and its level dropped.
  f.mispredict(3);
  EXPECT_EQ(f.policy->relque_population(), 0u);
  EXPECT_TRUE(f.hooks.inflight.at(2).rwc_filed);  // the mark stays
  const PhysReg v1 = f.hooks.inflight.at(2).p1;
  const std::size_t free_before = f.rf.free_list.size();
  const PolicyStats before = f.policy->stats();
  f.commit(1);
  f.commit(2);  // marked LU commits: nothing to migrate, nothing released
  EXPECT_FALSE(f.rf.free_list.is_free(v1));
  EXPECT_EQ(f.rf.free_list.size(), free_before);
  EXPECT_EQ(f.policy->stats().early_commit_releases,
            before.early_commit_releases);
  EXPECT_EQ(f.policy->stats().branch_confirm_releases,
            before.branch_confirm_releases);
  EXPECT_EQ(f.policy->relque_population(), 0u);
}

TEST(ReleaseQueueMark, MarkLeftOnSurvivingLuIsHarmless) {
  MarkFixture f;
  f.rename(1, 5);
  f.rename(2, 6, /*rs1=*/5);  // LU 2, in flight
  f.rename(3, 7);
  f.branch(3);
  f.rename(4, 5);  // files RwC on LU 2 under level 3
  f.mispredict(3);
  // The correct path (reusing the squashed sequence numbers) redefines r5
  // under a new branch: the same LU gets a fresh RwC filing on top of the
  // mark the dropped one left.
  f.rename(4, 8);
  f.branch(4);
  f.rename(5, 5);
  EXPECT_EQ(f.policy->relque_population(), 1u);
  const PhysReg v1 = f.hooks.inflight.at(2).p1;
  f.commit(1);
  f.commit(2);  // RwC -> RwNS in level 4 only
  EXPECT_FALSE(f.rf.free_list.is_free(v1));
  EXPECT_EQ(f.policy->relque_population(), 1u);
  f.commit(3);
  f.commit(4);
  f.confirm(4);  // released exactly once
  EXPECT_TRUE(f.rf.free_list.is_free(v1));
  EXPECT_EQ(f.policy->stats().branch_confirm_releases, 1u);
  EXPECT_EQ(f.policy->relque_population(), 0u);
}

TEST(ReleaseQueueDeath, CommitPastAScheduledLuAborts) {
  ReleaseQueue q(kLevels);
  q.push_level(10);
  q.schedule_inflight(/*lu=*/5, kRel1);
  // LUs commit in order, so LU 5's bits can never be left behind by a
  // younger commit.
  EXPECT_DEATH(q.on_lu_commit(6, 60, 61, 62), "committed LU");
}

TEST(ReleaseQueueDeath, PushBeyondCapacityAborts) {
  ReleaseQueue q(2);
  q.push_level(10);
  q.push_level(20);
  EXPECT_DEATH(q.push_level(30), "full");
}

TEST(ReleaseQueueDeath, ScheduleWithoutLevelAborts) {
  ReleaseQueue q(kLevels);
  EXPECT_DEATH(q.schedule_committed(40), "no pending branch");
}

TEST(ReleaseQueueDeath, DuplicateSchedulingAborts) {
  ReleaseQueue q(kLevels);
  q.push_level(10);
  q.schedule_inflight(5, kRel1);
  EXPECT_DEATH(q.schedule_inflight(5, kRel1), "duplicate");
}

TEST(ReleaseQueueDeath, OutOfOrderPushAborts) {
  ReleaseQueue q(kLevels);
  q.push_level(20);
  EXPECT_DEATH(q.push_level(10), "decode order");
}

TEST(ReleaseQueueDeath, ConfirmUnknownAborts) {
  ReleaseQueue q(kLevels);
  EXPECT_DEATH(q.confirm(99), "unknown");
}

}  // namespace
}  // namespace erel::core
