#include "src/server/epoch.h"

#include <algorithm>
#include <utility>

namespace ivy {

std::shared_ptr<EpochSnapshot> BuildEpochSnapshot(uint64_t id,
                                                  const SessionResult& result,
                                                  const AnnoDb& link_table) {
  auto snap = std::make_shared<EpochSnapshot>();
  snap->id = id;
  snap->findings = result.findings;
  snap->findings_canon.reserve(snap->findings.size());
  for (const Finding& f : snap->findings) {
    snap->findings_canon.push_back(f.ToJson(nullptr).Dump(-1));
  }
  snap->summaries = link_table.summaries();
  snap->summaries_canon.reserve(snap->summaries.size());
  for (const FuncSummary& row : snap->summaries) {
    snap->summaries_canon.push_back(row.Canonical());
  }
  snap->modules = static_cast<int>(result.modules.size());
  snap->compile_failures = result.compile_failures;
  return snap;
}

void EpochPublisher::Publish(std::shared_ptr<const EpochSnapshot> snap) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(snap));
  while (static_cast<int>(ring_.size()) > retain_) {
    ring_.pop_front();
  }
}

std::shared_ptr<const EpochSnapshot> EpochPublisher::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.empty() ? nullptr : ring_.back();
}

std::shared_ptr<const EpochSnapshot> EpochPublisher::Get(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& snap : ring_) {
    if (snap->id == id) {
      return snap;
    }
  }
  return nullptr;
}

uint64_t EpochPublisher::current_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.empty() ? 0 : ring_.back()->id;
}

}  // namespace ivy
