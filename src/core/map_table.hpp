// Map Table (speculative logical->physical mapping) and In-Order Map Table
// (IOMT, the architectural mapping updated at commit) — Figure 1 of the
// paper. Both carry a per-logical-register `stale` bit: set when the mapped
// version was released early while still architectural (the §4.3 situation),
// so that the next redefinition must not release or reuse it again. The
// paper's precise-exception argument relies on such versions being dead; the
// stale bit is the bookkeeping that makes the hardware single-release.
//
// The speculative Map Table logs every write to the rename history (see
// rename_history.hpp) so a misprediction can undo it; the IOMT has no
// history attached.
#pragma once

#include <array>
#include <cstdint>

#include "common/log.hpp"
#include "core/rename_history.hpp"
#include "core/types.hpp"

namespace erel::core {

/// One logical->physical mapping with the stale (dead-version) bit.
struct Mapping {
  PhysReg phys = kNoReg;
  bool stale = false;
};

class MapTable {
 public:
  using Snapshot = std::array<Mapping, isa::kNumLogicalRegs>;

  /// Identity-initializes: logical r -> physical r (the conventional reset
  /// state; requires at least kNumLogicalRegs physical registers).
  MapTable() {
    for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r)
      map_[r] = Mapping{static_cast<PhysReg>(r), false};
  }

  [[nodiscard]] const Mapping& get(unsigned logical) const {
    EREL_CHECK(logical < isa::kNumLogicalRegs);
    return map_[logical];
  }

  /// Installs a new mapping; a fresh version is never stale.
  void set(unsigned logical, PhysReg phys) {
    EREL_CHECK(logical < isa::kNumLogicalRegs);
    if (history_ != nullptr) history_->save(map_[logical]);
    map_[logical] = Mapping{phys, false};
  }

  void mark_stale(unsigned logical) {
    EREL_CHECK(logical < isa::kNumLogicalRegs);
    if (history_ != nullptr) history_->save(map_[logical]);
    map_[logical].stale = true;
  }

  /// From now on every set()/mark_stale() is logged to `history`.
  void attach(RenameHistory& history) { history_ = &history; }

  /// Whole-table copy, not logged (exception recovery from the IOMT, which
  /// happens with the history cleared).
  [[nodiscard]] Snapshot snapshot() const { return map_; }
  void restore(const Snapshot& snapshot) { map_ = snapshot; }

 private:
  Snapshot map_;
  RenameHistory* history_ = nullptr;
};

/// The IOMT is structurally a MapTable updated in commit order.
using InOrderMapTable = MapTable;

}  // namespace erel::core
