// Rename history: the undo log behind the branch checkpoints.
//
// The paper's hardware copies the Map Table and the LUs Table at every
// branch prediction and restores the copy on a misprediction (§3.1). The
// simulator models the same checkpoints with one history buffer: while any
// branch checkpoint is open, every Map Table and LUs Table write first logs
// the previous contents of the entry it overwrites. A checkpoint is the
// branch sequence number plus the log position at its decode; undoing the
// log back to that position restores exactly the tables a copy would hold.
// Only the simulator's representation changes: the number of open
// checkpoints is still bounded by the configured stack depth.
//
// The log is a power-of-two ring addressed by absolute positions. Entries
// older than the oldest open checkpoint are dropped as checkpoints close, so
// the ring holds at most the writes of the in-flight instructions and stops
// growing once it has reached that size.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/log.hpp"
#include "core/types.hpp"

namespace erel::core {

class RenameHistory {
 public:
  explicit RenameHistory(unsigned max_checkpoints) : ring_(kInitialEntries) {
    marks_.reserve(max_checkpoints);
  }

  /// Logs the current contents of `slot`, which the caller is about to
  /// overwrite. A no-op while no checkpoint is open: nothing could roll back.
  template <class T>
  void save(T& slot) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= kSlotBytes);
    if (marks_.empty()) return;
    if (tail_ - head_ == ring_.size()) grow();
    Entry& e = ring_[tail_++ & (ring_.size() - 1)];
    e.slot = &slot;
    e.restore = &restore_slot<T>;
    std::memcpy(e.old, &slot, sizeof(T));
  }

  /// Opens the checkpoint of branch `branch_seq` at the current position.
  void open(InstSeq branch_seq) {
    EREL_CHECK(marks_.empty() || marks_.back().branch_seq < branch_seq,
               "checkpoints must open in decode order");
    marks_.push_back(Mark{branch_seq, tail_});
  }

  /// Branch verified correct: its checkpoint closes (branches verify out of
  /// order). Log entries no open checkpoint needs are dropped.
  void close(InstSeq branch_seq) {
    const std::size_t idx = find(branch_seq);
    EREL_CHECK(idx != marks_.size(), "confirm of unknown branch ",
               branch_seq);
    marks_.erase(marks_.begin() + static_cast<std::ptrdiff_t>(idx));
    if (idx == 0) head_ = marks_.empty() ? tail_ : marks_.front().pos;
  }

  /// Branch mispredicted: undoes every write logged since its checkpoint
  /// opened, newest first, and closes it together with every younger one.
  void rollback(InstSeq branch_seq) {
    const std::size_t idx = find(branch_seq);
    EREL_CHECK(idx != marks_.size(), "mispredict of unknown branch ",
               branch_seq);
    const std::uint64_t pos = marks_[idx].pos;
    while (tail_ != pos) {
      const Entry& e = ring_[--tail_ & (ring_.size() - 1)];
      e.restore(e.slot, e.old);
    }
    marks_.resize(idx);
    if (idx == 0) head_ = tail_;
  }

  /// Exception flush: every checkpoint and log entry is dropped.
  void clear() {
    marks_.clear();
    head_ = tail_;
  }

  [[nodiscard]] unsigned open_checkpoints() const {
    return static_cast<unsigned>(marks_.size());
  }

  /// Log entries currently retained (observability for tests).
  [[nodiscard]] std::size_t size() const { return tail_ - head_; }

 private:
  static constexpr std::size_t kSlotBytes = 16;
  static constexpr std::size_t kInitialEntries = 1024;

  struct Entry {
    void* slot = nullptr;  // the overwritten table entry
    void (*restore)(void* slot, const unsigned char* old) = nullptr;
    unsigned char old[kSlotBytes] = {};
  };

  // One instance per table entry type: a fixed-size copy, so a rollback
  // costs a few moves per entry rather than a library memcpy call.
  template <class T>
  static void restore_slot(void* slot, const unsigned char* old) {
    std::memcpy(slot, old, sizeof(T));
  }
  struct Mark {
    InstSeq branch_seq;
    std::uint64_t pos;  // log position at the branch's decode
  };

  [[nodiscard]] std::size_t find(InstSeq branch_seq) const {
    std::size_t idx = 0;
    while (idx < marks_.size() && marks_[idx].branch_seq != branch_seq) ++idx;
    return idx;
  }

  void grow() {
    std::vector<Entry> bigger(ring_.size() * 2);
    for (std::uint64_t p = head_; p != tail_; ++p)
      bigger[p & (bigger.size() - 1)] = ring_[p & (ring_.size() - 1)];
    ring_.swap(bigger);
  }

  std::vector<Entry> ring_;    // power-of-two size
  std::uint64_t head_ = 0;     // oldest retained position
  std::uint64_t tail_ = 0;     // next write position
  std::vector<Mark> marks_;    // open checkpoints, oldest first
};

}  // namespace erel::core
