// Register rename unit: Map Tables, LUs Tables, Free Lists, IOMT, branch
// checkpoints and the release policy instances for both register classes
// (Figure 1 of the paper plus the §3/§4 extensions).
//
// Branch checkpoints are positions in one rename history (an undo log of
// Map and LUs Table writes, see rename_history.hpp) rather than table
// copies, and LUs C bits derive from the commit frontier (see
// lus_table.hpp), so commit work is O(1) whatever the number of open
// checkpoints. The modelled checkpoint stack is unchanged: at most
// `max_pending_branches` checkpoints are open at once.
//
// The pipeline drives it through five entry points:
//   try_rename()            - decode/rename stage, per instruction
//   note_branch_decoded()   - after taking a checkpoint slot for a branch
//   on_branch_confirmed() / on_branch_mispredicted()
//   on_commit()             - per committing instruction, in order
//   on_squash_entry() + on_exception_flush() - recovery
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/reg_state.hpp"
#include "core/release_policy.hpp"
#include "core/rename_history.hpp"
#include "core/types.hpp"
#include "isa/isa.hpp"

namespace erel::core {

/// Builds a policy instance for one register class. Custom factories let
/// users plug their own ReleasePolicy subclasses into the pipeline (see
/// examples/custom_release_policy.cpp).
using PolicyFactory = std::function<std::unique_ptr<ReleasePolicy>(
    RC cls, RegFileState&, PipelineHooks&)>;

struct RenameConfig {
  unsigned phys_int = 96;
  unsigned phys_fp = 96;
  PolicyKind policy = PolicyKind::Conventional;
  unsigned max_pending_branches = 20;  // checkpoint stack depth (Table 2)
  PolicyFactory policy_factory;        // overrides `policy` when set
};

class RenameUnit {
 public:
  RenameUnit(const RenameConfig& config, PipelineHooks& hooks);
  // The tables keep a pointer to history_: the unit stays where it was built.
  RenameUnit(const RenameUnit&) = delete;
  RenameUnit& operator=(const RenameUnit&) = delete;

  RegFileState& rf(RC cls) { return *state_[static_cast<unsigned>(cls)]; }
  const RegFileState& rf(RC cls) const {
    return *state_[static_cast<unsigned>(cls)];
  }
  ReleasePolicy& policy(RC cls) {
    return *policy_[static_cast<unsigned>(cls)];
  }
  const ReleasePolicy& policy(RC cls) const {
    return *policy_[static_cast<unsigned>(cls)];
  }

  /// True if a conditional/indirect branch can take a checkpoint now.
  [[nodiscard]] bool can_checkpoint() const {
    return history_.open_checkpoints() < config_.max_pending_branches;
  }

  /// Renames one instruction into `rec` (which must already be registered so
  /// PipelineHooks::find_inflight(seq) resolves to it). Returns false and
  /// leaves all state untouched when a destination register cannot be
  /// obtained (free-list stall — the stall this paper attacks).
  bool try_rename(const isa::DecodedInst& inst, InstSeq seq, RenameRec& rec,
                  std::uint64_t cycle);

  /// Opens the Map Table + LUs Table checkpoint of branch `seq` (paper §3.1:
  /// "an LUs Table copy is made at each branch prediction").
  void note_branch_decoded(InstSeq seq);

  void on_branch_confirmed(InstSeq seq, std::uint64_t cycle);

  /// Restores the checkpoint of `seq` (undoing the rename history back to
  /// it) and drops it plus all younger ones.
  /// The pipeline must free the squashed instructions' destinations via
  /// on_squash_entry() separately.
  void on_branch_mispredicted(InstSeq seq);

  /// Commit processing for one instruction, in program order: consumer/
  /// definer tracking, IOMT update, LUs commit frontier, then the policy's
  /// release actions.
  void on_commit(const RenameRec& rec, InstSeq seq, std::uint64_t cycle);

  /// Returns the destination register of a squashed in-flight instruction.
  void on_squash_entry(const RenameRec& rec, std::uint64_t cycle);

  /// Exception recovery: pipeline already squashed everything; restore the
  /// speculative map from the IOMT, reset the LUs Tables and policy state.
  void on_exception_flush(std::uint64_t cycle);

  [[nodiscard]] unsigned pending_checkpoints() const {
    return history_.open_checkpoints();
  }

  /// Free-list-empty rename stalls observed (per class).
  [[nodiscard]] std::uint64_t rename_stalls(RC cls) const {
    return rename_stalls_[static_cast<unsigned>(cls)];
  }

 private:
  RenameConfig config_;
  // Declared before state_: the tables log into it until they are destroyed.
  RenameHistory history_;
  std::array<std::unique_ptr<RegFileState>, kNumClasses> state_;
  std::array<std::unique_ptr<ReleasePolicy>, kNumClasses> policy_;
  std::array<std::uint64_t, kNumClasses> rename_stalls_{};
};

}  // namespace erel::core
