// RenameUnit: cross-class renaming, checkpoint stack management, commit
// plumbing, squash/un-reuse, exception flush — driven directly with a fake
// pipeline (complementing the policy-level tests) — and a randomized
// differential test of rename recovery against a full-snapshot reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <map>
#include <random>
#include <vector>

#include "core/rename_unit.hpp"
#include "fake_hooks.hpp"

namespace erel::core {
namespace {

isa::DecodedInst make_inst(isa::Opcode op, unsigned rd, unsigned rs1,
                           unsigned rs2) {
  isa::DecodedInst inst;
  inst.op = op;
  inst.rd = static_cast<std::uint8_t>(rd);
  inst.rs1 = static_cast<std::uint8_t>(rs1);
  inst.rs2 = static_cast<std::uint8_t>(rs2);
  return inst;
}

class RenameUnitTest : public testing::Test {
 protected:
  void init(PolicyKind kind, unsigned phys_int = 40, unsigned phys_fp = 40) {
    unit = std::make_unique<RenameUnit>(
        RenameConfig{phys_int, phys_fp, kind, 4, nullptr}, hooks);
  }

  RenameRec& rename(const isa::DecodedInst& inst, InstSeq seq,
                    std::uint64_t cycle = 0) {
    RenameRec& rec = hooks.inflight[seq];
    rec = RenameRec{};
    EXPECT_TRUE(unit->try_rename(inst, seq, rec, cycle));
    return rec;
  }

  FakeHooks hooks;
  std::unique_ptr<RenameUnit> unit;
};

TEST_F(RenameUnitTest, MixedClassOperandsRouteToTheirFiles) {
  init(PolicyKind::Conventional);
  // fsd f3, 0(r5): int base source + fp data source, no destination.
  const auto fsd = make_inst(isa::Opcode::FSD, 0, 5, 3);
  RenameRec& rec = rename(fsd, 1);
  EXPECT_EQ(rec.c1, isa::RegClass::Int);
  EXPECT_EQ(rec.c2, isa::RegClass::Fp);
  EXPECT_EQ(rec.p1, unit->rf(RC::Int).map.get(5).phys);
  EXPECT_EQ(rec.p2, unit->rf(RC::Fp).map.get(3).phys);
  EXPECT_FALSE(rec.has_dst());
}

TEST_F(RenameUnitTest, CrossClassDestination) {
  init(PolicyKind::Conventional);
  // cvtid r7, f2: fp source, int destination.
  RenameRec& rec = rename(make_inst(isa::Opcode::CVTID, 7, 2, 0), 1);
  EXPECT_EQ(rec.cd, isa::RegClass::Int);
  EXPECT_EQ(rec.c1, isa::RegClass::Fp);
  EXPECT_EQ(unit->rf(RC::Int).map.get(7).phys, rec.pd);
  EXPECT_NE(rec.pd, rec.old_pd);
}

TEST_F(RenameUnitTest, IntR0NeverRenamed) {
  init(PolicyKind::Conventional);
  RenameRec& rec = rename(make_inst(isa::Opcode::ADDI, 0, 3, 0), 1);
  EXPECT_FALSE(rec.has_dst());
  EXPECT_EQ(unit->rf(RC::Int).map.get(0).phys, 0);
}

TEST_F(RenameUnitTest, RenameStallLeavesNoSideEffects) {
  init(PolicyKind::Conventional, /*phys_int=*/33);  // one rename register
  rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1);
  EXPECT_TRUE(unit->rf(RC::Int).free_list.empty());
  // Second rename must fail without touching the map.
  const PhysReg before = unit->rf(RC::Int).map.get(6).phys;
  RenameRec rec;
  EXPECT_FALSE(
      unit->try_rename(make_inst(isa::Opcode::ADDI, 6, 3, 0), 2, rec, 0));
  EXPECT_EQ(unit->rf(RC::Int).map.get(6).phys, before);
  EXPECT_EQ(unit->rename_stalls(RC::Int), 1u);
}

TEST_F(RenameUnitTest, CheckpointStackDepthEnforced) {
  init(PolicyKind::Extended);
  for (InstSeq seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(unit->can_checkpoint());
    unit->note_branch_decoded(seq);
    hooks.pending.push_back(seq);
  }
  EXPECT_FALSE(unit->can_checkpoint());
  EXPECT_EQ(unit->pending_checkpoints(), 4u);
  // Confirming the youngest (out of order) frees a slot.
  hooks.pending.pop_back();
  unit->on_branch_confirmed(4, 10);
  EXPECT_TRUE(unit->can_checkpoint());
}

TEST_F(RenameUnitTest, MispredictRestoresBothClassesAndDropsYounger) {
  init(PolicyKind::Basic);
  const PhysReg int5 = unit->rf(RC::Int).map.get(5).phys;
  const PhysReg fp3 = unit->rf(RC::Fp).map.get(3).phys;
  unit->note_branch_decoded(1);
  hooks.pending.push_back(1);
  unit->note_branch_decoded(2);
  hooks.pending.push_back(2);
  // Wrong path: redefine r5 (int) and f3 (fp).
  RenameRec& a = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 3);
  RenameRec& b = rename(make_inst(isa::Opcode::FADD, 3, 1, 2), 4);
  EXPECT_NE(unit->rf(RC::Int).map.get(5).phys, int5);
  // Squash back to branch 1: free wrong-path destinations, restore maps.
  unit->on_squash_entry(b, 5);
  unit->on_squash_entry(a, 5);
  hooks.inflight.erase(3);
  hooks.inflight.erase(4);
  unit->on_branch_mispredicted(1);
  hooks.pending.clear();
  EXPECT_EQ(unit->rf(RC::Int).map.get(5).phys, int5);
  EXPECT_EQ(unit->rf(RC::Fp).map.get(3).phys, fp3);
  EXPECT_EQ(unit->pending_checkpoints(), 0u);
  // Conservation after recovery.
  EXPECT_EQ(unit->rf(RC::Int).free_list.size() +
                unit->rf(RC::Int).tracker.allocated_count(),
            40u);
}

TEST_F(RenameUnitTest, CommitUpdatesIomtAndTracksConsumers) {
  init(PolicyKind::Conventional);
  RenameRec& def = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1);
  unit->rf(RC::Int).write_value(def.pd, 42, 1);
  unit->on_commit(def, 1, 2);
  EXPECT_EQ(unit->rf(RC::Int).iomt.get(5).phys, def.pd);

  RenameRec& use = rename(make_inst(isa::Opcode::ADD, 6, 5, 5), 2);
  unit->rf(RC::Int).write_value(use.pd, 84, 3);
  unit->on_commit(use, 2, 4);  // consumer-commit checks pass
  EXPECT_EQ(unit->rf(RC::Int).iomt.get(6).phys, use.pd);
}

TEST_F(RenameUnitTest, SquashedReuseStaysAllocated) {
  init(PolicyKind::Basic);
  // First redefinition of r5 reuses the architectural register.
  RenameRec& nv = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1);
  ASSERT_TRUE(nv.reused_prev);
  const PhysReg p = nv.pd;
  unit->on_squash_entry(nv, 2);
  // The storage still backs the architectural mapping: not freed.
  EXPECT_FALSE(unit->rf(RC::Int).free_list.is_free(p));
  EXPECT_TRUE(unit->rf(RC::Int).tracker.is_allocated(p));
  EXPECT_TRUE(unit->rf(RC::Int).ready[p]);  // dead value readable
}

TEST_F(RenameUnitTest, ExceptionFlushRestoresFromIomt) {
  init(PolicyKind::Extended);
  // Commit one redefinition (architectural), leave a second in flight.
  RenameRec& first = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1, 1);
  unit->rf(RC::Int).write_value(first.pd, 1, 1);
  unit->on_commit(first, 1, 2);
  const PhysReg committed = first.pd;
  RenameRec& second = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 2, 3);
  EXPECT_NE(unit->rf(RC::Int).map.get(5).phys, committed);
  // Flush: squash the in-flight one, restore the architectural map.
  unit->on_squash_entry(second, 4);
  hooks.inflight.clear();
  unit->on_exception_flush(4);
  EXPECT_EQ(unit->rf(RC::Int).map.get(5).phys, committed);
  EXPECT_EQ(unit->pending_checkpoints(), 0u);
  EXPECT_EQ(unit->rf(RC::Int).free_list.size() +
                unit->rf(RC::Int).tracker.allocated_count(),
            40u);
}

namespace {
int g_counting_policy_plans = 0;
}

TEST_F(RenameUnitTest, CustomPolicyFactoryIsUsed) {
  struct CountingPolicy final : ReleasePolicy {
    using ReleasePolicy::ReleasePolicy;
    DestPlan plan_dest(unsigned rd, InstSeq, RenameRec& rec,
                       std::uint64_t) override {
      ++g_counting_policy_plans;
      rec.old_pd = rf_.map.get(rd).phys;
      rec.rel_old = true;
      return {};
    }
  };
  g_counting_policy_plans = 0;
  RenameConfig config;
  config.phys_int = config.phys_fp = 40;
  config.policy_factory = [](RC, RegFileState& rf, PipelineHooks& hooks) {
    return std::make_unique<CountingPolicy>(rf, hooks);
  };
  unit = std::make_unique<RenameUnit>(config, hooks);
  rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1);
  EXPECT_EQ(g_counting_policy_plans, 1);
}

// ---------------------------------------------------------------------------
// Randomized differential test of rename recovery.
//
// The reference model below is an independent restatement of the rename
// unit and the three policies in the paper's terms: every branch takes full
// copies of the Map and LUs Tables, LUs C bits are stored and a commit
// broadcasts its C-bit update into the working table and every copy (§3.2),
// and the Release Queue keeps one ordered map of RwC bits per level. The
// RenameUnit under test is driven through the same seeded stream of
// renames, branches, out-of-order confirms, mispredictions at every depth,
// commits and exception flushes as the pipeline would drive it, and after
// every operation both must agree on the Map Tables, the IOMTs, every LUs
// lookup (C bit included), the free lists, the allocated counts, the
// Release Queue population and the in-flight rename records.
// ---------------------------------------------------------------------------

class ReferenceRename {
 public:
  ReferenceRename(PolicyKind kind, unsigned phys)
      : kind_(kind), phys_(phys) {
    for (RegFile& f : files_) {
      for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
        f.map[r] = f.iomt[r] = Mapping{static_cast<PhysReg>(r), false};
        f.logical_of.push_back(static_cast<std::uint8_t>(r));
      }
      reset_lus(f);
      f.allocated.assign(phys, false);
      f.logical_of.resize(phys, 0);
      for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) f.allocated[r] = true;
      for (unsigned p = isa::kNumLogicalRegs; p < phys; ++p)
        f.free.push_back(static_cast<PhysReg>(p));
    }
  }

  /// Mirrors RenameUnit::try_rename; false on a free-list stall.
  bool rename(const isa::DecodedInst& inst, InstSeq seq,
              const std::vector<InstSeq>& pending) {
    if (inst.has_dst()) {
      const bool self_src_use =
          (inst.src1_class() == inst.dst_class() && inst.rs1 == inst.rd) ||
          (inst.src2_class() == inst.dst_class() && inst.rs2 == inst.rd);
      if (!can_rename_dest(file(inst.dst_class()), inst.rd, seq,
                           self_src_use, pending))
        return false;
    }
    RenameRec& rec = recs_[seq];
    rec = RenameRec{};
    rec.r1 = inst.rs1;
    rec.r2 = inst.rs2;
    rec.rd = inst.rd;
    rec.c1 = inst.src1_class();
    rec.c2 = inst.src2_class();
    rec.cd = inst.has_dst() ? inst.dst_class() : isa::RegClass::None;
    if (rec.c1 != isa::RegClass::None) {
      rec.p1 = file(rec.c1).map[rec.r1].phys;
      record_use(file(rec.c1), rec.r1, seq, UseKind::Src1);
    }
    if (rec.c2 != isa::RegClass::None) {
      rec.p2 = file(rec.c2).map[rec.r2].phys;
      record_use(file(rec.c2), rec.r2, seq, UseKind::Src2);
    }
    if (rec.cd == isa::RegClass::None) return true;
    RegFile& f = file(rec.cd);
    const Mapping old = f.map[rec.rd];
    rec.old_pd = old.phys;
    bool reuse = false;
    if (kind_ == PolicyKind::Conventional) {
      rec.rel_old = !old.stale;
    } else if (kind_ == PolicyKind::Basic) {
      switch (basic_case(f, rec.rd, seq, pending)) {
        case Case::Stale: break;
        case Case::Fallback: rec.rel_old = true; break;
        case Case::AtLu: set_rel_bit(f.lus[rec.rd]); break;
        case Case::Reuse: reuse = true; break;
      }
    } else if (!old.stale) {
      const Lus lu = f.lus[rec.rd];
      if (pending.empty() && lu.committed) {
        release(f, old.phys);
      } else if (pending.empty()) {
        set_rel_bit(lu);
      } else if (lu.committed) {
        f.levels.back().rwns.push_back(old.phys);
      } else {
        std::uint8_t& bits = f.levels.back().rwc[lu.seq];
        EXPECT_EQ(bits & rel_bit_for(lu.kind), 0);
        bits |= rel_bit_for(lu.kind);
      }
    }
    if (reuse) {
      rec.pd = old.phys;
      rec.reused_prev = true;
    } else {
      rec.pd = f.free.front();
      f.free.pop_front();
      f.allocated[rec.pd] = true;
      f.logical_of[rec.pd] = rec.rd;
    }
    f.map[rec.rd] = Mapping{rec.pd, false};
    record_use(f, rec.rd, seq, UseKind::Dst);
    return true;
  }

  void branch(InstSeq seq) {
    for (RegFile& f : files_) {
      f.copies.push_back(Copy{seq, f.map, f.lus});
      if (kind_ == PolicyKind::Extended) f.levels.push_back(Level{seq, {}, {}});
    }
  }

  void confirm(InstSeq seq) {
    for (RegFile& f : files_) {
      std::erase_if(f.copies, [seq](const Copy& c) { return c.branch == seq; });
      if (kind_ != PolicyKind::Extended) continue;
      const std::size_t i = level_of(f, seq);
      if (i == 0) {
        for (const PhysReg p : f.levels[0].rwns) release(f, p);
        for (const auto& [lu, bits] : f.levels[0].rwc) {
          EXPECT_EQ(recs_.at(lu).rel_bits & bits, 0);
          recs_.at(lu).rel_bits |= bits;
        }
      } else {
        Level& older = f.levels[i - 1];
        older.rwns.insert(older.rwns.end(), f.levels[i].rwns.begin(),
                          f.levels[i].rwns.end());
        for (const auto& [lu, bits] : f.levels[i].rwc) older.rwc[lu] |= bits;
      }
      f.levels.erase(f.levels.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  /// The pipeline's squash of one in-flight instruction (youngest first).
  void squash(InstSeq seq) {
    const RenameRec& rec = recs_.at(seq);
    if (rec.cd != isa::RegClass::None && !rec.reused_prev)
      release(file(rec.cd), rec.pd);
    recs_.erase(seq);
  }

  void mispredict(InstSeq seq) {
    recs_.at(seq).rel_bits = 0;
    for (RegFile& f : files_) {
      std::size_t i = 0;
      while (f.copies[i].branch != seq) ++i;
      f.map = f.copies[i].map;
      f.lus = f.copies[i].lus;
      f.copies.resize(i);
      if (kind_ == PolicyKind::Extended) f.levels.resize(level_of(f, seq));
    }
  }

  void commit(InstSeq seq) {
    const RenameRec rec = recs_.at(seq);
    recs_.erase(seq);
    if (rec.cd != isa::RegClass::None)
      file(rec.cd).iomt[rec.rd] = Mapping{rec.pd, false};
    for (unsigned c = 0; c < kNumClasses; ++c) {
      RegFile& f = files_[c];
      const auto broadcast = [seq](LusTable& lus) {
        for (Lus& e : lus)
          if (e.seq == seq) e.committed = true;
      };
      broadcast(f.lus);
      for (Copy& copy : f.copies) broadcast(copy.lus);
      if (kind_ == PolicyKind::Extended) {
        for (Level& level : f.levels) {
          const auto it = level.rwc.find(seq);
          if (it == level.rwc.end()) continue;
          if (it->second & kRel1) level.rwns.push_back(rec.p1);
          if (it->second & kRel2) level.rwns.push_back(rec.p2);
          if (it->second & kRelD) level.rwns.push_back(rec.pd);
          level.rwc.erase(it);
        }
      }
      const auto mine = [c](isa::RegClass cls) {
        return cls != isa::RegClass::None &&
               static_cast<unsigned>(rc_from(cls)) == c;
      };
      if ((rec.rel_bits & kRel1) && mine(rec.c1)) release(f, rec.p1);
      if ((rec.rel_bits & kRel2) && mine(rec.c2)) release(f, rec.p2);
      if ((rec.rel_bits & kRelD) && mine(rec.cd)) release(f, rec.pd);
      if (mine(rec.cd) && rec.rel_old) release(f, rec.old_pd);
    }
  }

  void exception_flush() {
    for (RegFile& f : files_) {
      f.map = f.iomt;
      reset_lus(f);
      f.copies.clear();
      f.levels.clear();
    }
  }

  /// Compares every piece of observable rename state with `unit`.
  void expect_matches(const RenameUnit& unit,
                      const std::map<InstSeq, RenameRec>& recs) const {
    for (unsigned c = 0; c < kNumClasses; ++c) {
      const RegFile& f = files_[c];
      const RegFileState& rfs = unit.rf(static_cast<RC>(c));
      for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
        EXPECT_EQ(rfs.map.get(r).phys, f.map[r].phys) << "map r" << r;
        EXPECT_EQ(rfs.map.get(r).stale, f.map[r].stale) << "map r" << r;
        EXPECT_EQ(rfs.iomt.get(r).phys, f.iomt[r].phys) << "iomt r" << r;
        EXPECT_EQ(rfs.iomt.get(r).stale, f.iomt[r].stale) << "iomt r" << r;
        const LUsEntry e = rfs.lus.lookup(r);
        EXPECT_EQ(e.seq, f.lus[r].seq) << "lus r" << r;
        EXPECT_EQ(e.kind, f.lus[r].kind) << "lus r" << r;
        EXPECT_EQ(e.committed, f.lus[r].committed) << "lus C r" << r;
      }
      EXPECT_EQ(rfs.free_list.size(), f.free.size());
      unsigned allocated = 0;
      for (unsigned p = 0; p < phys_; ++p) {
        EXPECT_EQ(rfs.free_list.is_free(static_cast<PhysReg>(p)),
                  !f.allocated[p])
            << "p" << p;
        allocated += f.allocated[p] ? 1 : 0;
      }
      EXPECT_EQ(rfs.tracker.allocated_count(), allocated);
      std::size_t population = 0;
      for (const Level& level : f.levels) {
        population += level.rwns.size();
        for (const auto& [lu, bits] : level.rwc)
          population += static_cast<std::size_t>(std::popcount(bits));
      }
      EXPECT_EQ(unit.policy(static_cast<RC>(c)).relque_population(),
                population);
    }
    ASSERT_EQ(recs.size(), recs_.size());
    for (const auto& [seq, rec] : recs) {
      const RenameRec& want = recs_.at(seq);
      EXPECT_EQ(rec.pd, want.pd) << "seq " << seq;
      EXPECT_EQ(rec.old_pd, want.old_pd) << "seq " << seq;
      EXPECT_EQ(rec.rel_old, want.rel_old) << "seq " << seq;
      EXPECT_EQ(rec.rel_bits, want.rel_bits) << "seq " << seq;
      EXPECT_EQ(rec.reused_prev, want.reused_prev) << "seq " << seq;
    }
  }

 private:
  struct Lus {
    InstSeq seq = kNoSeq;
    UseKind kind = UseKind::Arch;
    bool committed = true;
  };
  using LusTable = std::array<Lus, isa::kNumLogicalRegs>;
  using MapArray = std::array<Mapping, isa::kNumLogicalRegs>;
  struct Copy {
    InstSeq branch;
    MapArray map;
    LusTable lus;
  };
  struct Level {
    InstSeq branch;
    std::vector<PhysReg> rwns;
    std::map<InstSeq, std::uint8_t> rwc;
  };
  struct RegFile {
    MapArray map, iomt;
    LusTable lus;
    std::deque<PhysReg> free;
    std::vector<bool> allocated;
    std::vector<std::uint8_t> logical_of;
    std::vector<Copy> copies;   // oldest first
    std::vector<Level> levels;  // oldest first
  };
  enum class Case { Stale, Fallback, AtLu, Reuse };

  RegFile& file(isa::RegClass cls) {
    return files_[static_cast<unsigned>(rc_from(cls))];
  }

  static void reset_lus(RegFile& f) { f.lus.fill(Lus{}); }

  void record_use(RegFile& f, unsigned logical, InstSeq seq, UseKind kind) {
    if (kind_ != PolicyKind::Conventional)
      f.lus[logical] = Lus{seq, kind, false};
  }

  void set_rel_bit(const Lus& lu) {
    std::uint8_t& bits = recs_.at(lu.seq).rel_bits;
    EXPECT_EQ(bits & rel_bit_for(lu.kind), 0);
    bits |= rel_bit_for(lu.kind);
  }

  static Case basic_case(const RegFile& f, unsigned rd, InstSeq nv,
                         const std::vector<InstSeq>& pending) {
    if (f.map[rd].stale) return Case::Stale;
    const Lus& lu = f.lus[rd];
    const InstSeq lu_seq = lu.seq == kNoSeq ? 0 : lu.seq;
    for (const InstSeq b : pending)
      if (b > lu_seq && b < nv) return Case::Fallback;
    return lu.committed ? Case::Reuse : Case::AtLu;
  }

  bool can_rename_dest(const RegFile& f, unsigned rd, InstSeq nv,
                       bool self_src_use,
                       const std::vector<InstSeq>& pending) const {
    if (!f.free.empty()) return true;
    if (self_src_use || f.map[rd].stale) return false;
    if (kind_ == PolicyKind::Basic)
      return basic_case(f, rd, nv, pending) == Case::Reuse;
    return kind_ == PolicyKind::Extended && pending.empty() &&
           f.lus[rd].committed;
  }

  static void release(RegFile& f, PhysReg p) {
    ASSERT_TRUE(f.allocated[p]) << "double release of p" << p;
    const std::uint8_t logical = f.logical_of[p];
    if (f.iomt[logical].phys == p) f.iomt[logical].stale = true;
    f.allocated[p] = false;
    f.free.push_back(p);
  }

  static std::size_t level_of(const RegFile& f, InstSeq seq) {
    std::size_t i = 0;
    while (f.levels[i].branch != seq) ++i;
    return i;
  }

  PolicyKind kind_;
  unsigned phys_;
  std::array<RegFile, kNumClasses> files_;
  std::map<InstSeq, RenameRec> recs_;
};

/// Instruction mix covering both classes, cross-class operands, self-use,
/// destination-less stores and checkpointing branches (one with a link
/// destination).
isa::DecodedInst random_inst(std::mt19937_64& rng) {
  static constexpr isa::Opcode kOps[] = {
      isa::Opcode::ADD,   isa::Opcode::ADDI, isa::Opcode::ADD,
      isa::Opcode::FADD,  isa::Opcode::FMUL, isa::Opcode::CVTDI,
      isa::Opcode::CVTID, isa::Opcode::FEQ,  isa::Opcode::LD,
      isa::Opcode::FLD,   isa::Opcode::SD,   isa::Opcode::FSD,
      isa::Opcode::BEQ,   isa::Opcode::BNE,  isa::Opcode::JALR};
  // A few hot registers make redefinitions and shared last uses frequent.
  const auto reg = [&rng] {
    return static_cast<unsigned>(rng() % 4 == 0 ? rng() % 32 : 1 + rng() % 6);
  };
  const isa::Opcode op = kOps[rng() % std::size(kOps)];
  return make_inst(op, reg(), reg(), reg());
}

struct DiffStats {
  unsigned renames = 0, stalls = 0, mispredicts = 0, confirms = 0,
           commits = 0, flushes = 0, max_depth = 0;
};

DiffStats run_differential(PolicyKind kind, std::uint64_t seed,
                           unsigned steps) {
  constexpr unsigned kPhys = 44;
  constexpr unsigned kDepth = 6;
  constexpr std::size_t kMaxInflight = 40;
  FakeHooks hooks;
  RenameUnit unit(RenameConfig{kPhys, kPhys, kind, kDepth, nullptr}, hooks);
  ReferenceRename ref(kind, kPhys);
  std::mt19937_64 rng(seed);
  DiffStats stats;
  InstSeq next_seq = 1;
  std::uint64_t cycle = 0;

  const auto squash_younger_than = [&](InstSeq boundary) {
    while (!hooks.inflight.empty() && hooks.inflight.rbegin()->first > boundary) {
      const InstSeq seq = hooks.inflight.rbegin()->first;
      unit.on_squash_entry(hooks.inflight.rbegin()->second, cycle);
      ref.squash(seq);
      hooks.inflight.erase(seq);
    }
  };

  for (unsigned step = 0; step < steps; ++step) {
    ++cycle;
    const unsigned roll = static_cast<unsigned>(rng() % 100);
    if (roll < 50) {
      if (hooks.inflight.size() >= kMaxInflight) continue;
      // A stale mapping names a dead version, released early before an
      // exception flush; programs redefine such a register before reading
      // it (§4.3), so the stream does too.
      const auto reads_dead = [&unit](const isa::DecodedInst& i) {
        const auto dead = [&unit](isa::RegClass cls, unsigned r) {
          return cls != isa::RegClass::None &&
                 unit.rf(rc_from(cls)).map.get(r).stale;
        };
        return dead(i.src1_class(), i.rs1) || dead(i.src2_class(), i.rs2);
      };
      isa::DecodedInst inst = random_inst(rng);
      while (reads_dead(inst)) inst = random_inst(rng);
      const bool checkpoint = inst.is_cond_branch() || inst.is_indirect_jump();
      if (checkpoint && !unit.can_checkpoint()) continue;
      const InstSeq seq = next_seq;
      RenameRec& rec = hooks.inflight[seq];
      const bool renamed = unit.try_rename(inst, seq, rec, cycle);
      EXPECT_EQ(ref.rename(inst, seq, hooks.pending), renamed);
      if (!renamed) {
        hooks.inflight.erase(seq);
        ++stats.stalls;
        continue;
      }
      ++next_seq;
      ++stats.renames;
      if (checkpoint) {
        unit.note_branch_decoded(seq);
        ref.branch(seq);
        hooks.pending.push_back(seq);
        stats.max_depth = std::max(stats.max_depth, unit.pending_checkpoints());
      }
    } else if (roll < 62) {
      if (hooks.pending.empty()) continue;
      const std::size_t i = rng() % hooks.pending.size();
      const InstSeq branch = hooks.pending[i];
      hooks.pending.erase(hooks.pending.begin() + static_cast<std::ptrdiff_t>(i));
      unit.on_branch_confirmed(branch, cycle);
      ref.confirm(branch);
      ++stats.confirms;
    } else if (roll < 70) {
      if (hooks.pending.empty()) continue;
      const InstSeq branch = hooks.pending[rng() % hooks.pending.size()];
      squash_younger_than(branch);
      hooks.inflight.at(branch).rel_bits = 0;
      std::erase_if(hooks.pending, [branch](InstSeq b) { return b >= branch; });
      unit.on_branch_mispredicted(branch);
      ref.mispredict(branch);
      next_seq = branch + 1;  // squashed sequence numbers are reused
      ++stats.mispredicts;
    } else if (roll < 99) {
      if (hooks.inflight.empty()) continue;
      const InstSeq seq = hooks.inflight.begin()->first;
      if (std::find(hooks.pending.begin(), hooks.pending.end(), seq) !=
          hooks.pending.end())
        continue;  // an unresolved branch cannot commit
      RenameRec rec = hooks.inflight.begin()->second;
      if (rec.has_dst())
        unit.rf(rc_from(rec.cd)).write_value(rec.pd, seq, cycle);
      unit.on_commit(rec, seq, cycle);
      hooks.inflight.erase(seq);
      ref.commit(seq);
      ++stats.commits;
    } else {
      squash_younger_than(0);
      hooks.pending.clear();
      unit.on_exception_flush(cycle);
      ref.exception_flush();
      ++stats.flushes;
    }
    ref.expect_matches(unit, hooks.inflight);
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "diverged at step " << step << " (seed " << seed << ")";
      break;
    }
  }
  return stats;
}

TEST(RenameRecoveryDifferential, MatchesFullSnapshotReference) {
  for (const PolicyKind kind : all_policies()) {
    DiffStats total;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(testing::Message() << policy_name(kind) << " seed " << seed);
      const DiffStats s = run_differential(kind, seed, 4000);
      total.renames += s.renames;
      total.stalls += s.stalls;
      total.mispredicts += s.mispredicts;
      total.confirms += s.confirms;
      total.commits += s.commits;
      total.flushes += s.flushes;
      total.max_depth = std::max(total.max_depth, s.max_depth);
      if (HasFailure()) return;
    }
    // The stream really exercised recovery at full checkpoint depth.
    EXPECT_GT(total.mispredicts, 200u) << policy_name(kind);
    EXPECT_GT(total.confirms, 200u) << policy_name(kind);
    EXPECT_GT(total.stalls, 0u) << policy_name(kind);
    EXPECT_GT(total.flushes, 5u) << policy_name(kind);
    EXPECT_EQ(total.max_depth, 6u) << policy_name(kind);
  }
}

}  // namespace
}  // namespace erel::core
