// The pipeline stand-in shared by the rename and release-policy unit tests:
// a map of in-flight rename records plus an explicit pending-branch list,
// both set directly by the test.
#pragma once

#include <map>
#include <vector>

#include "core/types.hpp"

namespace erel::core {

class FakeHooks : public PipelineHooks {
 public:
  RenameRec* find_inflight(InstSeq seq) override {
    const auto it = inflight.find(seq);
    return it == inflight.end() ? nullptr : &it->second;
  }
  bool branch_pending_between(InstSeq lo, InstSeq hi) const override {
    for (const InstSeq b : pending)
      if (b > lo && b < hi) return true;
    return false;
  }
  unsigned pending_branch_count() const override {
    return static_cast<unsigned>(pending.size());
  }

  std::map<InstSeq, RenameRec> inflight;
  std::vector<InstSeq> pending;  // unverified branches, oldest first
};

}  // namespace erel::core
