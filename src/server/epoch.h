// Reader/writer epochs over a warm AnalysisSession.
//
// Every completed relink publishes one immutable EpochSnapshot — the
// session's merged findings plus the summary table, frozen into
// plain data with no pointers back into the session. Publication is a
// shared_ptr swap under a small mutex; queries pin an epoch by copying the
// shared_ptr and then read with no lock held, so a query never blocks on an
// in-flight link and a relink never waits for readers. Responses carry
// the epoch id so clients can detect staleness.
//
// Retention: the publisher keeps the last `retain` snapshots (default 8), so
// a client that pinned epoch N can keep querying N by id while N+1, N+2
// converge behind it; older epochs are evicted and queries for them get an
// "evicted" error rather than silently upgraded data.
//
// Byte-identity contract: a snapshot's canonical rows (CanonicalFindings /
// canonical summary JSON) are exactly what a cold batch RunLinked() over the
// same sources produces — the stress test in tests/server_test.cc holds the
// server to that at every published epoch.
#ifndef SRC_SERVER_EPOCH_H_
#define SRC_SERVER_EPOCH_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/annodb/annodb.h"
#include "src/tool/session.h"

namespace ivy {

// One immutable published view of a corpus. Built once by the relink thread,
// then only ever read.
struct EpochSnapshot {
  uint64_t id = 0;
  // The session merge, module-stamped, in the session's deterministic order.
  std::vector<Finding> findings;
  // Canonical JSON per finding, index-parallel with `findings` (cached so
  // query handlers never re-serialize under load).
  std::vector<std::string> findings_canon;
  // The summary table in (module, function) key order.
  std::vector<FuncSummary> summaries;
  std::vector<std::string> summaries_canon;
  int modules = 0;
  int compile_failures = 0;
  LinkStats link;
  // Mutations that failed to apply during the relink that produced this
  // epoch (e.g. ReplaceFunction on a function that does not exist). The
  // relink still ran; these edits are dropped, not retried.
  std::vector<std::string> apply_errors;
};

// Builds a snapshot from one completed RunLinked() result. Shared by the
// server's relink thread and annodb_query's offline --from-synth mode, so
// "what the server serves" and "what a cold batch run prints" are the same
// bytes by construction. Returned mutable so the builder can stamp link
// stats / apply errors before handing it to Publish (const from then on).
std::shared_ptr<EpochSnapshot> BuildEpochSnapshot(uint64_t id,
                                                  const SessionResult& result,
                                                  const AnnoDb& link_table);

// The swap point between the relink writer and concurrent query readers.
class EpochPublisher {
 public:
  explicit EpochPublisher(int retain = 8) : retain_(retain < 1 ? 1 : retain) {}

  void Publish(std::shared_ptr<const EpochSnapshot> snap);

  // The latest published snapshot (null before the first publication).
  std::shared_ptr<const EpochSnapshot> Current() const;

  // A specific epoch, or null if never published / already evicted.
  std::shared_ptr<const EpochSnapshot> Get(uint64_t id) const;

  uint64_t current_id() const;

 private:
  mutable std::mutex mu_;
  std::deque<std::shared_ptr<const EpochSnapshot>> ring_;  // ascending ids
  int retain_;
};

}  // namespace ivy

#endif  // SRC_SERVER_EPOCH_H_
