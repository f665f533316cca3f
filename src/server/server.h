// annod: the persistent analysis-server daemon (the ROADMAP's "annodb as a
// long-lived analysis server" — kernel-quality static checking as an
// always-available service, not a batch job).
//
// One AnnodServer owns one warm AnalysisSession per opened corpus and serves
// three request families over the framed wire protocol (src/server/wire.h):
//
//   queries    kQueryFindings / kQuerySummaries — answered from the pinned
//              EpochSnapshot only; a query NEVER touches the session and
//              never blocks on an in-flight link.
//   mutations  kUpsertModule / kReplaceFunction / kRemoveModule — appended
//              to the corpus's edit queue; a background relink task on the
//              corpus's single-worker WorkQueue drains the queue, applies
//              the edits to the warm session, runs RunLinked(), and
//              publishes the next epoch.
//   control    kOpenCorpus / kCloseCorpus / kStats / kSync / kShutdown /
//              kPing.
//
// Threading model (who touches what):
//   - the AnalysisSession of a corpus is touched ONLY by its relink tasks,
//     which are serialized by a one-worker WorkQueue — no lock needed;
//   - connection handler threads read the EpochPublisher (shared_ptr pin)
//     and the corpus's small control state (mutex mu);
//   - Corpus::mu guards the edit queue, counters, and the sync/closing
//     condition; it is never held across analysis work.
//
// Shutdown is a drain, not an abort-at-any-cost: RequestShutdown() stops the
// acceptor, cancels queued relink tasks (TaskGroup::Cancel — payloads
// skipped), cancels the in-flight link cooperatively
// (AnalysisSession::RequestCancel — stops before the next phase), and
// unblocks every connection. A cancelled relink publishes NOTHING: epochs
// are only ever whole completed snapshots (regression-tested by
// ServerTest.ShutdownWhileRelinking).
#ifndef SRC_SERVER_SERVER_H_
#define SRC_SERVER_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/server/epoch.h"
#include "src/server/wire.h"
#include "src/support/socket.h"
#include "src/support/trace.h"
#include "src/support/work_queue.h"
#include "src/tool/session.h"

namespace ivy {

class AnnodServer {
 public:
  struct Options {
    Pipeline pipeline;    // session template: every opened corpus runs this
    int epoch_retain = 8;  // published snapshots kept for pinned queries
    // When non-empty, each corpus persists its findings and table to
    // <store_dir>/<corpus>.store (src/store/store.h): the first relink
    // after open warm-starts from the file, and the drain on close/shutdown
    // writes it back — a restarted daemon's first link costs one
    // incremental relink instead of a cold corpus analysis.
    std::string store_dir;
  };

  explicit AnnodServer(Options opts);
  ~AnnodServer();

  AnnodServer(const AnnodServer&) = delete;
  AnnodServer& operator=(const AnnodServer&) = delete;

  // Binds + starts the acceptor thread. Address syntax per support/socket.h;
  // "host:0" resolves an ephemeral port, see bound_address().
  bool Start(const std::string& address, std::string* err);
  const std::string& bound_address() const { return listener_.bound_address(); }

  // Graceful drain (idempotent, any thread — including a connection handler
  // serving kShutdown). Signals only; the join happens in Wait()/dtor.
  void RequestShutdown();

  // Blocks until RequestShutdown() (wire or direct), then joins every
  // thread and drains every corpus. Returns once fully stopped.
  void Wait();

  // ------------------------------------------------------------------
  // In-process control plane: the same operations the wire handlers run,
  // callable directly — annod's main uses it to seed corpora before
  // Start(), tests and the benchmark use it to steer without a socket.
  // ------------------------------------------------------------------
  bool OpenCorpus(const std::string& name);
  bool CloseCorpus(const std::string& name);
  bool EnqueueUpsert(const std::string& corpus, ModuleSources module);
  bool EnqueueReplaceFunction(const std::string& corpus, const std::string& module,
                              const std::string& function, const std::string& definition);
  bool EnqueueRemoveModule(const std::string& corpus, const std::string& module);
  // Blocks until the corpus's edit queue is empty and no relink is queued or
  // running, then returns the latest epoch id (0: no corpus / nothing
  // published / server closing).
  uint64_t SyncEpoch(const std::string& corpus);
  // Pins an epoch (id 0 = latest). Null if unknown corpus/epoch.
  std::shared_ptr<const EpochSnapshot> Snapshot(const std::string& corpus,
                                                uint64_t epoch = 0);

  std::vector<std::string> CorpusNames() const;

 private:
  struct Edit {
    enum Kind { kUpsert, kReplace, kRemove } kind = kUpsert;
    ModuleSources upsert;     // kUpsert
    std::string module;       // kReplace / kRemove
    std::string function;     // kReplace
    std::string definition;   // kReplace
  };

  // Field order is the shutdown order in reverse: relink_group's destructor
  // drains against relink_queue, which must still be alive; both go before
  // session so no task can outlive the state it touches.
  struct Corpus {
    Corpus(Pipeline pipeline, int retain)
        : session(std::move(pipeline)), epochs(retain), relink_queue(1),
          relink_group(relink_queue) {}

    std::mutex mu;
    std::condition_variable cv;    // sync waiters + drain
    std::deque<Edit> edits;
    int pending_relinks = 0;       // scheduled or running relink tasks
    int64_t relinks_done = 0;
    bool closing = false;
    uint64_t next_epoch = 1;
    std::vector<std::string> apply_errors;  // rolling window, capped
    std::string store_path;        // empty: no persistence (set at open)
    // Deepest the edit queue has been since open (under mu). Served by
    // kStats so operators can see backlog pressure between relinks.
    uint32_t edit_queue_peak = 0;
    // Converged-relink -> snapshot-visible wall time. Always-on (not gated
    // on trace::Enabled()): kStats must serve live percentiles from an
    // untraced daemon. Histogram::Record is two relaxed atomic adds.
    trace::Histogram publish_us;

    AnalysisSession session;       // relink tasks only
    EpochPublisher epochs;
    WorkQueue relink_queue;        // 1 worker: relinks are serialized
    TaskGroup relink_group;
  };

  std::shared_ptr<Corpus> FindCorpus(const std::string& name) const;
  void ScheduleRelink(const std::shared_ptr<Corpus>& c);
  void RelinkTask(const std::shared_ptr<Corpus>& c);
  void DrainCorpus(const std::shared_ptr<Corpus>& c);

  void AcceptLoop();
  void HandleConnection(uint64_t conn_id, Socket sock);
  // One request -> one response frame. Returns false when the connection
  // should close (shutdown handshake).
  bool Dispatch(const Frame& req, Socket& sock);
  void ReapFinishedConnections();

  Options opts_;
  ListenSocket listener_;
  std::thread acceptor_;

  // Per-request Dispatch wall time across every connection and request
  // type. Always-on for the same reason as Corpus::publish_us: the kStats
  // metrics block is live operational data, not a tracing artifact.
  trace::Histogram request_latency_us_;

  mutable std::mutex corpora_mu_;
  std::map<std::string, std::shared_ptr<Corpus>> corpora_;

  std::mutex conns_mu_;
  std::map<uint64_t, std::thread> conns_;
  std::map<uint64_t, int> live_fds_;      // for ShutdownBoth on drain
  std::vector<uint64_t> finished_;        // reaped by acceptor / Wait
  uint64_t next_conn_id_ = 1;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool joined_ = false;
};

}  // namespace ivy

#endif  // SRC_SERVER_SERVER_H_
