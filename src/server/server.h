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
//              to the corpus's edit queue; the corpus's relink thread
//              drains the queue, applies the edits to the warm session,
//              runs RunLinked(), and publishes the next epoch.
//   control    kOpenCorpus / kCloseCorpus / kStats / kSync / kShutdown /
//              kPing.
//
// Threading model (who touches what):
//   - the AnalysisSession of a corpus is touched ONLY by its one relink
//     thread (and, once that thread is joined, by the drain's SaveStore) —
//     no lock needed;
//   - connection handler threads read the EpochPublisher (shared_ptr pin)
//     and the corpus's small control state (mutex mu);
//   - Corpus::mu guards the edit queue, counters, and the sync/closing
//     condition; it is never held across analysis work.
//
// Shutdown is a drain, not an abort-at-any-cost: RequestShutdown() stops the
// acceptor, sets each corpus's `closing` (the relink thread takes no further
// batch), cancels the in-flight link cooperatively
// (AnalysisSession::RequestCancel — stops before the next phase), and
// unblocks every connection. A cancelled relink publishes NOTHING: epochs
// are only ever whole completed snapshots (regression-tested by
// Server.ShutdownWhileRelinkingPublishesNoPartialEpoch).
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
  // False for an empty name, and once shutdown has begun: a corpus opened
  // then would relink after the drain and never be saved.
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

 private:
  struct Edit {
    enum Kind { kUpsert, kReplace, kRemove } kind = kUpsert;
    ModuleSources upsert;     // kUpsert
    std::string module;       // kReplace / kRemove
    std::string function;     // kReplace
    std::string definition;   // kReplace
  };

  // One open corpus. Its relink thread starts with the Corpus and is joined
  // by Stop(): DrainCorpus's, or else the destructor's.
  struct Corpus {
    Corpus(Pipeline pipeline, int retain, std::string store);
    ~Corpus();

    // Sets `closing`, cancels the in-flight link and joins the relink
    // thread. True for the one caller that joined it.
    bool Stop();
    // The relink thread's body: waits for edits, takes the whole queue as
    // one batch for Relink(); once `closing`, takes no further batch and
    // returns when Stop() is called.
    void RelinkLoop();
    // Applies the batch (the first one after a LoadStore when the corpus
    // persists), runs RunLinked() and publishes the epoch unless the link
    // was cancelled. Appends the edits that failed to apply to `errors`
    // and hands the epoch the publish evicted, if any, to `*evicted`.
    SessionResult Relink(std::deque<Edit>& batch, bool first, std::vector<std::string>* errors,
                         std::shared_ptr<const EpochSnapshot>* evicted);

    std::mutex mu;
    std::condition_variable cv;    // edits for the relink thread, sync waiters
    std::deque<Edit> edits;
    // The relink thread owes epoch 1 or is running a relink; starts true so
    // a SyncEpoch right after open waits for the first epoch.
    bool relinking = true;
    int64_t relinks_done = 0;
    bool closing = false;
    bool stopped = false;  // Stop() was called: the relink thread may exit
    uint64_t next_epoch = 1;
    std::vector<std::string> apply_errors;  // rolling window, capped
    const std::string store_path;  // empty: no persistence
    // Deepest the edit queue has been since open (under mu). Served by
    // kStats so operators can see backlog pressure between relinks.
    uint32_t edit_queue_peak = 0;
    // Converged-relink -> snapshot-visible wall time. Always-on (not gated
    // on trace::Enabled()): kStats must serve live percentiles from an
    // untraced daemon. Histogram::Record is two relaxed atomic adds.
    trace::Histogram publish_us;

    AnalysisSession session;       // relink thread only
    EpochPublisher epochs;
    std::thread relinker;          // last: it runs over every field above
  };

  // The open corpora, copied under corpora_mu_.
  std::vector<std::shared_ptr<Corpus>> Corpora() const;
  std::shared_ptr<Corpus> FindCorpus(const std::string& name) const;
  // Appends `e` to the corpus's edit queue and wakes its relink thread;
  // false if the corpus is unknown or closing.
  bool Enqueue(const std::string& corpus, Edit e);
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

  std::mutex stop_mu_;  // OpenCorpus takes it inside corpora_mu_; never the reverse
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool joined_ = false;
};

}  // namespace ivy

#endif  // SRC_SERVER_SERVER_H_
