// Last-Uses Table (paper §3.1, Figure 5).
//
// One entry per logical register, recording the instruction that used the
// register most recently in decode order (`ROSid` — here a monotone sequence
// number), the role of that use (`Kind`: src1/src2/dst) and whether that
// instruction has already committed (`C`).
//
// The C bit is not stored: it is derived from the commit frontier, the
// sequence number of the last committed instruction. An entry's C bit is set
// exactly when its instruction is in the Arch state or no younger than the
// frontier. That is the value the paper's commit-time update gives ("this
// action on bit C has to be extended to all LUs Table copies", §3.2): commits
// happen in program order, every entry names a live or committed instruction
// (a misprediction rolls back the entries of squashed instructions before
// their sequence numbers are reused), so "committed" and "at or before the
// frontier" coincide, in the working table and in every restored checkpoint
// alike. The hardware broadcast becomes one store per commit.
//
// Writes are logged to the rename history (see rename_history.hpp), which
// restores older last uses on a misprediction. After an exception flush the
// table resets to the `Arch` state: every entry says "the architectural
// version's last use has committed", which lets the next redefinition
// release the mapped version immediately (unless the mapping is stale).
#pragma once

#include <array>
#include <cstdint>

#include "common/log.hpp"
#include "core/rename_history.hpp"
#include "core/types.hpp"

namespace erel::core {

struct LUsEntry {
  InstSeq seq = kNoSeq;            // paper: ROSid (kNoSeq in the Arch state)
  UseKind kind = UseKind::Arch;    // paper: Kind
  bool committed = true;           // paper: C
};

class LUsTable {
 public:
  LUsTable() { reset_architectural(); }

  /// The entry of `logical`, its C bit derived from the commit frontier.
  [[nodiscard]] LUsEntry lookup(unsigned logical) const {
    EREL_CHECK(logical < isa::kNumLogicalRegs);
    const LastUse& use = table_[logical];
    return LUsEntry{use.seq, use.kind,
                    use.seq == kNoSeq || use.seq <= committed_};
  }

  /// Records instruction `seq` as the new last use of `logical` (Renaming
  /// step 1 / step 3 of §3.2).
  void record_use(unsigned logical, InstSeq seq, UseKind kind) {
    EREL_CHECK(logical < isa::kNumLogicalRegs);
    EREL_CHECK(kind != UseKind::Arch);
    if (history_ != nullptr) history_->save(table_[logical]);
    table_[logical] = LastUse{seq, kind};
  }

  /// Instruction `seq` committed (in program order): it becomes the commit
  /// frontier, which sets the C bit of every entry naming it.
  void on_commit(InstSeq seq) {
    EREL_CHECK(seq >= committed_, "commit out of program order: ", seq);
    committed_ = seq;
  }

  /// Exception flush: every entry becomes {Arch, committed}. Not logged:
  /// the flush drops the rename history as well.
  void reset_architectural() { table_.fill(LastUse{kNoSeq, UseKind::Arch}); }

  /// From now on every record_use() is logged to `history`.
  void attach(RenameHistory& history) { history_ = &history; }

 private:
  struct LastUse {
    InstSeq seq;
    UseKind kind;
  };

  std::array<LastUse, isa::kNumLogicalRegs> table_;
  InstSeq committed_ = 0;  // commit frontier (sequence numbers start at 1)
  RenameHistory* history_ = nullptr;
};

}  // namespace erel::core
