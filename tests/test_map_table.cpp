// MapTable / IOMT: identity reset, snapshot/restore, stale bits, undo
// through the rename history.
#include <gtest/gtest.h>

#include "core/map_table.hpp"
#include "core/rename_history.hpp"

namespace erel::core {
namespace {

TEST(MapTable, IdentityInitialization) {
  MapTable mt;
  for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
    EXPECT_EQ(mt.get(r).phys, r);
    EXPECT_FALSE(mt.get(r).stale);
  }
}

TEST(MapTable, SetInstallsFreshMapping) {
  MapTable mt;
  mt.set(5, 77);
  EXPECT_EQ(mt.get(5).phys, 77);
  EXPECT_FALSE(mt.get(5).stale);
}

TEST(MapTable, SetClearsStale) {
  MapTable mt;
  mt.mark_stale(5);
  EXPECT_TRUE(mt.get(5).stale);
  mt.set(5, 40);
  EXPECT_FALSE(mt.get(5).stale);
}

TEST(MapTable, SnapshotRestoreRoundTrip) {
  MapTable mt;
  mt.set(1, 50);
  mt.set(2, 51);
  mt.mark_stale(2);
  const MapTable::Snapshot snap = mt.snapshot();
  mt.set(1, 60);
  mt.set(2, 61);
  mt.set(3, 62);
  mt.restore(snap);
  EXPECT_EQ(mt.get(1).phys, 50);
  EXPECT_EQ(mt.get(2).phys, 51);
  EXPECT_TRUE(mt.get(2).stale);
  EXPECT_EQ(mt.get(3).phys, 3);
}

TEST(MapTable, SnapshotIsByValue) {
  MapTable mt;
  const MapTable::Snapshot snap = mt.snapshot();
  mt.set(0, 99);
  EXPECT_EQ(snap[0].phys, 0);  // unaffected by later mutation
}

TEST(MapTable, HistoryRollbackUndoesWritesAndStaleMarks) {
  RenameHistory history(4);
  MapTable mt;
  mt.attach(history);
  mt.set(1, 50);
  history.open(/*branch=*/10);
  mt.set(1, 60);
  mt.mark_stale(1);
  mt.set(2, 61);
  history.open(/*branch=*/20);
  mt.set(2, 62);
  history.close(10);  // the older branch confirms out of order
  history.rollback(20);
  EXPECT_EQ(mt.get(2).phys, 61);  // only branch 20's write is undone
  EXPECT_TRUE(mt.get(1).stale);
  history.open(/*branch=*/30);
  mt.set(1, 70);
  mt.set(3, 71);
  history.rollback(30);
  EXPECT_EQ(mt.get(1).phys, 60);
  EXPECT_TRUE(mt.get(1).stale);
  EXPECT_EQ(mt.get(3).phys, 3);
  EXPECT_EQ(history.open_checkpoints(), 0u);
}

TEST(MapTable, HistoryRingGrowsPastItsInitialSize) {
  RenameHistory history(2);
  MapTable mt;
  mt.attach(history);
  history.open(/*branch=*/1);
  for (unsigned i = 0; i < 5000; ++i)
    mt.set(i % isa::kNumLogicalRegs, static_cast<PhysReg>(100 + i % 7));
  history.open(/*branch=*/2);
  mt.set(4, 99);
  history.close(1);  // drops the 5000 entries only branch 1 needed
  EXPECT_EQ(history.size(), 1u);
  history.rollback(2);
  EXPECT_EQ(mt.get(4).phys, static_cast<PhysReg>(100 + 4996 % 7));
  history.open(/*branch=*/3);
  for (unsigned i = 0; i < 3000; ++i) mt.set(5, static_cast<PhysReg>(i));
  history.rollback(3);
  EXPECT_EQ(mt.get(5).phys, static_cast<PhysReg>(100 + 4997 % 7));
}

}  // namespace
}  // namespace erel::core
