// LUs Table semantics (paper §3.1/§3.2): last-use recording, C bits from
// the commit frontier (including in entries a checkpoint restore brings
// back), rollback through the rename history, architectural reset.
#include <gtest/gtest.h>

#include "core/lus_table.hpp"
#include "core/rename_history.hpp"

namespace erel::core {
namespace {

TEST(LUsTable, InitialStateIsArchitecturalCommitted) {
  LUsTable t;
  for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
    EXPECT_EQ(t.lookup(r).kind, UseKind::Arch);
    EXPECT_TRUE(t.lookup(r).committed);
    EXPECT_EQ(t.lookup(r).seq, kNoSeq);
  }
}

TEST(LUsTable, RecordUseOverwritesInProgramOrder) {
  LUsTable t;
  t.record_use(4, 100, UseKind::Src1);
  t.record_use(4, 101, UseKind::Src2);
  t.record_use(4, 102, UseKind::Dst);
  const LUsEntry& e = t.lookup(4);
  EXPECT_EQ(e.seq, 102u);
  EXPECT_EQ(e.kind, UseKind::Dst);
  EXPECT_FALSE(e.committed);
}

TEST(LUsTable, CommitSetsCOnMatchingEntriesOnly) {
  LUsTable t;
  t.record_use(1, 100, UseKind::Src1);
  t.record_use(2, 100, UseKind::Src2);  // same instruction, two registers
  t.record_use(3, 101, UseKind::Dst);
  t.on_commit(100);
  EXPECT_TRUE(t.lookup(1).committed);
  EXPECT_TRUE(t.lookup(2).committed);
  EXPECT_FALSE(t.lookup(3).committed);
}

TEST(LUsTable, CommitsAfterCheckpointReachRestoredEntries) {
  RenameHistory history(4);
  LUsTable t;
  t.attach(history);
  t.record_use(5, 200, UseKind::Src1);
  t.record_use(6, 201, UseKind::Dst);
  history.open(/*branch=*/202);          // checkpoint: r5 -> 200, r6 -> 201
  t.record_use(5, 203, UseKind::Src1);  // younger uses in the working copy
  t.record_use(6, 204, UseKind::Src2);
  // Instruction 200 commits after the checkpoint was taken (paper: the C
  // update is "extended to all LUs Table copies").
  t.on_commit(200);
  EXPECT_FALSE(t.lookup(5).committed);  // working copy points to 203
  history.rollback(202);
  // Every restored entry naming a committed instruction reads C=1, the
  // rest C=0; untouched registers stay in the committed Arch state.
  EXPECT_EQ(t.lookup(5).seq, 200u);
  EXPECT_TRUE(t.lookup(5).committed);
  EXPECT_EQ(t.lookup(6).seq, 201u);
  EXPECT_FALSE(t.lookup(6).committed);
  EXPECT_EQ(t.lookup(7).kind, UseKind::Arch);
  EXPECT_TRUE(t.lookup(7).committed);
  t.on_commit(201);
  EXPECT_TRUE(t.lookup(6).committed);
}

TEST(LUsTable, SquashedSeqReusedByNewInstructionReadsUncommitted) {
  RenameHistory history(4);
  LUsTable t;
  t.attach(history);
  t.record_use(3, 9, UseKind::Dst);
  history.open(/*branch=*/10);
  t.record_use(3, 11, UseKind::Src1);  // wrong path
  t.record_use(4, 12, UseKind::Dst);   // wrong path
  history.rollback(10);                // 11 and 12 squashed
  t.on_commit(9);
  t.on_commit(10);
  EXPECT_TRUE(t.lookup(3).committed);
  // Sequence numbers 11 and 12 are handed out again after the squash.
  t.record_use(4, 11, UseKind::Src2);
  EXPECT_EQ(t.lookup(4).seq, 11u);
  EXPECT_FALSE(t.lookup(4).committed);
  t.on_commit(11);
  EXPECT_TRUE(t.lookup(4).committed);
}

TEST(LUsTable, RestoreBringsBackOlderLastUses) {
  RenameHistory history(4);
  LUsTable t;
  t.attach(history);
  t.record_use(7, 300, UseKind::Dst);
  history.open(/*branch=*/301);
  t.record_use(7, 350, UseKind::Src2);  // wrong-path uses
  t.record_use(7, 351, UseKind::Src1);
  history.rollback(301);
  EXPECT_EQ(t.lookup(7).seq, 300u);
  EXPECT_EQ(t.lookup(7).kind, UseKind::Dst);
  EXPECT_EQ(history.size(), 0u);
}

TEST(LUsTable, WritesWithNoOpenCheckpointAreNotLogged) {
  RenameHistory history(4);
  LUsTable t;
  t.attach(history);
  t.record_use(7, 300, UseKind::Dst);
  EXPECT_EQ(history.size(), 0u);
  history.open(/*branch=*/301);
  t.record_use(7, 302, UseKind::Src1);
  EXPECT_EQ(history.size(), 1u);
  history.close(301);  // confirmed: nothing left to roll back to
  EXPECT_EQ(history.size(), 0u);
  EXPECT_EQ(t.lookup(7).seq, 302u);
}

TEST(LUsTable, ResetArchitecturalClearsEverything) {
  LUsTable t;
  t.record_use(0, 1, UseKind::Src1);
  t.record_use(31, 2, UseKind::Dst);
  t.reset_architectural();
  EXPECT_EQ(t.lookup(0).kind, UseKind::Arch);
  EXPECT_TRUE(t.lookup(31).committed);
}

TEST(LUsTable, RelBitMapping) {
  EXPECT_EQ(rel_bit_for(UseKind::Src1), kRel1);
  EXPECT_EQ(rel_bit_for(UseKind::Src2), kRel2);
  EXPECT_EQ(rel_bit_for(UseKind::Dst), kRelD);
  EXPECT_EQ(rel_bit_for(UseKind::Arch), 0);
}

}  // namespace
}  // namespace erel::core
