#include "core/release_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/log.hpp"

namespace erel::core {

ReleaseQueue::ReleaseQueue(unsigned max_levels) : ring_(max_levels) {
  EREL_CHECK(max_levels > 0, "release queue needs at least one level");
}

void ReleaseQueue::push_level(InstSeq branch_seq) {
  EREL_CHECK(count_ < ring_.size(), "release queue full (", ring_.size(),
             " levels)");
  EREL_CHECK(count_ == 0 || level(count_ - 1).branch_seq < branch_seq,
             "levels must be pushed in decode order");
  Level& fresh = level(count_++);
  fresh.branch_seq = branch_seq;
  fresh.rwns.clear();
  fresh.rwc.clear();
  fresh.rwc_head = 0;
}

void ReleaseQueue::schedule_committed(PhysReg p) {
  EREL_CHECK(count_ != 0, "conditional scheduling with no pending branch");
  level(count_ - 1).rwns.push_back(p);
}

void ReleaseQueue::schedule_inflight(InstSeq lu_seq, std::uint8_t bits) {
  EREL_CHECK(count_ != 0, "conditional scheduling with no pending branch");
  EREL_CHECK(bits != 0);
  Level& lv = level(count_ - 1);
  const auto it = std::lower_bound(
      lv.rwc.begin() + static_cast<std::ptrdiff_t>(lv.rwc_head),
      lv.rwc.end(), lu_seq,
      [](const RwcEntry& e, InstSeq seq) { return e.lu_seq < seq; });
  if (it != lv.rwc.end() && it->lu_seq == lu_seq) {
    EREL_CHECK((it->bits & bits) == 0, "duplicate scheduling for LU ",
               lu_seq);
    it->bits |= bits;
    return;
  }
  lv.rwc.insert(it, RwcEntry{lu_seq, bits});
}

void ReleaseQueue::on_lu_commit(InstSeq lu_seq, PhysReg p1, PhysReg p2,
                                PhysReg pd) {
  for (std::size_t i = 0; i < count_; ++i) {
    Level& lv = level(i);
    if (lv.rwc_head == lv.rwc.size()) continue;
    const RwcEntry& entry = lv.rwc[lv.rwc_head];
    EREL_CHECK(entry.lu_seq >= lu_seq, "RwC bits left for committed LU ",
               entry.lu_seq);
    if (entry.lu_seq != lu_seq) continue;
    if (entry.bits & kRel1) lv.rwns.push_back(p1);
    if (entry.bits & kRel2) lv.rwns.push_back(p2);
    if (entry.bits & kRelD) lv.rwns.push_back(pd);
    ++lv.rwc_head;
  }
}

std::size_t ReleaseQueue::level_index(InstSeq branch_seq) const {
  std::size_t i = 0;
  while (i < count_ && level(i).branch_seq != branch_seq) ++i;
  return i;
}

bool ReleaseQueue::has_level(InstSeq branch_seq) const {
  return level_index(branch_seq) != count_;
}

ReleaseQueue::ConfirmResult ReleaseQueue::confirm(InstSeq branch_seq) {
  const std::size_t idx = level_index(branch_seq);
  EREL_CHECK(idx != count_, "confirm of unknown branch ", branch_seq);
  Level& lv = level(idx);
  if (idx == 0) {
    // Oldest pending branch: its releases become final (Step 6,
    // "Branch-Confirm Release") and its RwC bits merge into RwC0. The slot
    // leaves the ring untouched, so the views stay valid until it is reused.
    head_ = slot(1);
    --count_;
    return ConfirmResult{lv.rwns, std::span(lv.rwc).subspan(lv.rwc_head)};
  }
  // Middle level: OR into the next older level (Step 4, Figure 8a), merging
  // the two RwC arrays in LU order...
  Level& older = level(idx - 1);
  older.rwns.insert(older.rwns.end(), lv.rwns.begin(), lv.rwns.end());
  merged_.clear();
  std::size_t a = older.rwc_head;
  std::size_t b = lv.rwc_head;
  while (a < older.rwc.size() || b < lv.rwc.size()) {
    if (b == lv.rwc.size() ||
        (a < older.rwc.size() && older.rwc[a].lu_seq < lv.rwc[b].lu_seq)) {
      merged_.push_back(older.rwc[a++]);
    } else if (a == older.rwc.size() ||
               lv.rwc[b].lu_seq < older.rwc[a].lu_seq) {
      merged_.push_back(lv.rwc[b++]);
    } else {
      merged_.push_back(
          RwcEntry{older.rwc[a].lu_seq,
                   static_cast<std::uint8_t>(older.rwc[a].bits |
                                             lv.rwc[b].bits)});
      ++a;
      ++b;
    }
  }
  older.rwc.swap(merged_);
  older.rwc_head = 0;
  // ...and close the gap: younger levels move down one slot, the merged
  // level's storage moves up to the free end of the ring.
  for (std::size_t i = idx; i + 1 < count_; ++i)
    std::swap(level(i), level(i + 1));
  --count_;
  return {};
}

void ReleaseQueue::mispredict(InstSeq branch_seq) {
  const std::size_t idx = level_index(branch_seq);
  EREL_CHECK(idx != count_, "mispredict of unknown branch ", branch_seq);
  count_ = idx;
}

std::size_t ReleaseQueue::total_scheduled() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const Level& lv = level(i);
    total += lv.rwns.size();
    for (std::size_t e = lv.rwc_head; e < lv.rwc.size(); ++e)
      total += static_cast<unsigned>(std::popcount(lv.rwc[e].bits));
  }
  return total;
}

}  // namespace erel::core
