#include "src/server/epoch.h"

#include <algorithm>
#include <functional>
#include <unordered_set>
#include <utility>

namespace ivy {

namespace {

// Hashes the module and location, a subset of the members operator==
// compares, so equal findings always hash alike; == settles every hit.
struct FindingPtrHash {
  size_t operator()(const Finding* f) const {
    size_t h = std::hash<std::string>()(f->module);
    for (int32_t v : {f->loc.file, f->loc.line, f->loc.col}) {
      h = h * 31 + static_cast<size_t>(v);
    }
    return h;
  }
};

struct FindingPtrEq {
  bool operator()(const Finding* a, const Finding* b) const { return *a == *b; }
};

}  // namespace

std::shared_ptr<EpochSnapshot> BuildEpochSnapshot(uint64_t id,
                                                  const SessionResult& result,
                                                  const AnnoDb& link_table,
                                                  const EpochSnapshot* prev) {
  static const EpochSnapshot kNone;
  const EpochSnapshot& base = prev != nullptr ? *prev : kNone;
  auto snap = std::make_shared<EpochSnapshot>();
  snap->id = id;
  snap->findings = result.findings;
  snap->summaries = link_table.summaries();

  // Findings: any row of `base` equal to this one has the right bytes.
  std::unordered_set<const Finding*, FindingPtrHash, FindingPtrEq> seen;
  seen.reserve(base.findings.size());
  for (const Finding& f : base.findings) {
    seen.insert(&f);
  }
  snap->findings_canon.reserve(snap->findings.size());
  for (const Finding& f : snap->findings) {
    auto hit = seen.find(&f);
    if (hit != seen.end()) {
      snap->findings_canon.push_back(base.findings_canon[*hit - base.findings.data()]);
    } else {
      snap->findings_canon.push_back(f.ToJson(nullptr).Dump(-1));
      ++snap->rendered;
    }
  }

  // Summary rows: both tables are in Key() order, so one merge walk meets
  // each row's same-key predecessor, if any.
  snap->summaries_canon.reserve(snap->summaries.size());
  size_t j = 0;
  for (const FuncSummary& row : snap->summaries) {
    while (j < base.summaries.size() && base.summaries[j].Key() < row.Key()) {
      ++j;
    }
    if (j < base.summaries.size() && base.summaries[j] == row) {
      snap->summaries_canon.push_back(base.summaries_canon[j]);
    } else {
      snap->summaries_canon.push_back(row.Canonical());
      ++snap->rendered;
    }
  }
  snap->modules = static_cast<int>(result.modules.size());
  snap->compile_failures = result.compile_failures;
  return snap;
}

std::shared_ptr<const EpochSnapshot> EpochPublisher::Publish(
    std::shared_ptr<const EpochSnapshot> snap) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(snap));
  std::shared_ptr<const EpochSnapshot> evicted;
  if (static_cast<int>(ring_.size()) > retain_) {  // one push evicts at most one
    evicted = std::move(ring_.front());
    ring_.pop_front();
  }
  return evicted;
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
