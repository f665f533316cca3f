#include "src/server/server.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "src/support/clock.h"

namespace ivy {

namespace {
// Rolling window of mutation failures kept per corpus for kStats.
constexpr size_t kMaxApplyErrors = 64;
}  // namespace

AnnodServer::AnnodServer(Options opts) : opts_(std::move(opts)) {}

AnnodServer::~AnnodServer() {
  RequestShutdown();
  Wait();
}

bool AnnodServer::Start(const std::string& address, std::string* err) {
  if (!listener_.Listen(address, err)) {
    return false;
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void AnnodServer::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  stop_cv_.notify_all();
  // Unblock the acceptor.
  listener_.Close();
  // Signal every corpus: no new epochs, no further relink, abort the
  // in-flight link before its frontend or passes. The actual drain (the
  // join of each relink thread) happens in Wait() — never here, because a
  // connection handler serving kShutdown calls this and must not join
  // against itself or block on analysis work.
  for (auto& c : Corpora()) {
    {
      std::lock_guard<std::mutex> lock(c->mu);
      c->closing = true;
    }
    c->session.RequestCancel();
    c->cv.notify_all();
  }
  // Unblock every connection thread parked in recv().
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& entry : live_fds_) {
      Socket::ShutdownFd(entry.second);
    }
  }
}

void AnnodServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mu_);
    stop_cv_.wait(lock, [this] { return stopping_; });
    if (joined_) {
      return;
    }
    joined_ = true;
  }
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  // Join every connection thread (RequestShutdown already unblocked them).
  std::map<uint64_t, std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
    finished_.clear();
  }
  for (auto& entry : conns) {
    entry.second.join();
  }
  // Drain every corpus: the in-flight relink stops at its next
  // cancellation check and publishes nothing. Drained corpora stay in the
  // map (closing, so mutations are rejected) — published epochs remain
  // inspectable post-shutdown.
  for (auto& c : Corpora()) {
    DrainCorpus(c);
  }
}

void AnnodServer::DrainCorpus(const std::shared_ptr<Corpus>& c) {
  // Once Stop() has joined the relink thread the session is quiescent, so
  // the snapshot is single-threaded. A cancelled link published nothing, so
  // the modules it would have analyzed save dirty and the loader re-runs
  // them — never a wrong warm start, at worst a cold-priced one.
  if (c->Stop() && !c->store_path.empty()) {
    std::string serr;
    c->session.SaveStore(c->store_path, &serr);
  }
}

// ---------------------------------------------------------------------------
// Control plane (shared by wire handlers and in-process callers)
// ---------------------------------------------------------------------------

std::vector<std::shared_ptr<AnnodServer::Corpus>> AnnodServer::Corpora() const {
  std::lock_guard<std::mutex> lock(corpora_mu_);
  std::vector<std::shared_ptr<Corpus>> all;
  for (const auto& entry : corpora_) {
    all.push_back(entry.second);
  }
  return all;
}

std::shared_ptr<AnnodServer::Corpus> AnnodServer::FindCorpus(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(corpora_mu_);
  auto it = corpora_.find(name);
  return it == corpora_.end() ? nullptr : it->second;
}

bool AnnodServer::OpenCorpus(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(corpora_mu_);
    if (corpora_.count(name) != 0) {
      return true;  // idempotent
    }
    // Under corpora_mu_, so a racing RequestShutdown either sees (and
    // drains) the new corpus or the open is refused.
    {
      std::lock_guard<std::mutex> stop_lock(stop_mu_);
      if (stopping_) {
        return false;
      }
    }
    // Its relink thread publishes epoch 1 (whatever edits it finds, maybe
    // none) so queries have something to pin immediately after Sync.
    corpora_.emplace(name, std::make_shared<Corpus>(
                               opts_.pipeline, opts_.epoch_retain,
                               opts_.store_dir.empty()
                                   ? std::string()
                                   : opts_.store_dir + "/" + name + ".store"));
  }
  return true;
}

bool AnnodServer::CloseCorpus(const std::string& name) {
  std::shared_ptr<Corpus> c;
  {
    std::lock_guard<std::mutex> lock(corpora_mu_);
    auto it = corpora_.find(name);
    if (it == corpora_.end()) {
      return false;
    }
    c = it->second;
    corpora_.erase(it);
  }
  DrainCorpus(c);
  return true;
}

bool AnnodServer::Enqueue(const std::string& corpus, Edit e) {
  auto c = FindCorpus(corpus);
  if (!c) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(c->mu);
    if (c->closing) {
      return false;
    }
    c->edits.push_back(std::move(e));
    c->edit_queue_peak = std::max(c->edit_queue_peak,
                                  static_cast<uint32_t>(c->edits.size()));
  }
  c->cv.notify_all();
  return true;
}

bool AnnodServer::EnqueueUpsert(const std::string& corpus, ModuleSources module) {
  if (module.name.empty()) {
    return false;
  }
  Edit e;
  e.kind = Edit::kUpsert;
  e.upsert = std::move(module);
  return Enqueue(corpus, std::move(e));
}

bool AnnodServer::EnqueueReplaceFunction(const std::string& corpus,
                                         const std::string& module,
                                         const std::string& function,
                                         const std::string& definition) {
  if (module.empty() || function.empty()) {
    return false;
  }
  Edit e;
  e.kind = Edit::kReplace;
  e.module = module;
  e.function = function;
  e.definition = definition;
  return Enqueue(corpus, std::move(e));
}

bool AnnodServer::EnqueueRemoveModule(const std::string& corpus,
                                      const std::string& module) {
  if (module.empty()) {
    return false;
  }
  Edit e;
  e.kind = Edit::kRemove;
  e.module = module;
  return Enqueue(corpus, std::move(e));
}

uint64_t AnnodServer::SyncEpoch(const std::string& corpus) {
  auto c = FindCorpus(corpus);
  if (!c) {
    return 0;
  }
  {
    std::unique_lock<std::mutex> lock(c->mu);
    c->cv.wait(lock, [&c] {
      return c->closing || (c->edits.empty() && !c->relinking);
    });
    if (c->closing) {
      return 0;
    }
  }
  return c->epochs.current_id();
}

std::shared_ptr<const EpochSnapshot> AnnodServer::Snapshot(
    const std::string& corpus, uint64_t epoch) {
  auto c = FindCorpus(corpus);
  if (!c) {
    return nullptr;
  }
  return epoch == 0 ? c->epochs.Current() : c->epochs.Get(epoch);
}

// ---------------------------------------------------------------------------
// The relink thread
// ---------------------------------------------------------------------------

AnnodServer::Corpus::Corpus(Pipeline pipeline, int retain, std::string store)
    : store_path(std::move(store)),
      session(std::move(pipeline)),
      epochs(retain),
      relinker([this] { RelinkLoop(); }) {}

AnnodServer::Corpus::~Corpus() { Stop(); }

bool AnnodServer::Corpus::Stop() {
  std::thread thread;
  {
    std::lock_guard<std::mutex> lock(mu);
    closing = true;
    stopped = true;
    thread = std::move(relinker);
  }
  session.RequestCancel();
  cv.notify_all();
  if (!thread.joinable()) {
    return false;  // another caller stopped it
  }
  thread.join();
  return true;
}

void AnnodServer::Corpus::RelinkLoop() {
  for (bool first = true;; first = false) {
    // A burst of edits rides one link: everything queued since the last one.
    // The first pass owes epoch 1, with or without edits.
    std::deque<Edit> batch;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this, first] { return closing || first || !edits.empty(); });
      if (closing) {
        // Exit only when Stop() joins, which Wait() does after joining the
        // acceptor and the connection threads, so this thread exits last.
        // Its malloc arena holds the links' memory (tens of MB), and glibc
        // hands the most recently released arena to the next thread that
        // needs one: a server started next in this process gives it to its
        // relink thread (the first of its threads to allocate), not to a
        // connection thread that would leave it idle and resident.
        cv.wait(lock, [this] { return stopped; });
        return;
      }
      batch.swap(edits);
      relinking = true;
    }
    std::vector<std::string> errors;
    // Declared here so that freeing the batch, the result and the evicted
    // epoch comes after the notify below, off the path of a waiting
    // SyncEpoch.
    SessionResult result;
    std::shared_ptr<const EpochSnapshot> evicted;
    try {
      result = Relink(batch, first, &errors, &evicted);
    } catch (const std::exception& ex) {
      // Nothing is published; the failure reaches kStats with the edits'.
      errors.push_back(std::string("relink failed: ") + ex.what());
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      relinking = false;
      ++relinks_done;
      for (std::string& e : errors) {
        apply_errors.push_back(std::move(e));
      }
      while (apply_errors.size() > kMaxApplyErrors) {
        apply_errors.erase(apply_errors.begin());
      }
    }
    cv.notify_all();
  }
}

SessionResult AnnodServer::Corpus::Relink(std::deque<Edit>& batch, bool first,
                                          std::vector<std::string>* errors,
                                          std::shared_ptr<const EpochSnapshot>* evicted) {
  if (first && !store_path.empty()) {
    // Warm start before the seed edits apply: modules the batch re-adds with
    // byte-identical sources stay clean (AddModule's no-op contract), so an
    // unchanged corpus publishes without analysis and an edited one costs
    // one corpus run. Any load failure just means a cold run.
    std::string lerr;
    session.LoadStore(store_path, &lerr);
  }
  for (Edit& e : batch) {
    switch (e.kind) {
      case Edit::kUpsert:
        session.AddModule(std::move(e.upsert));
        break;
      case Edit::kReplace:
        if (!session.ReplaceFunction(e.module, e.function, e.definition)) {
          errors->push_back("replace_function " + e.module + ":" + e.function +
                            ": no such module/function");
        }
        break;
      case Edit::kRemove:
        if (!session.RemoveModule(e.module)) {
          errors->push_back("remove_module " + e.module + ": no such module");
        }
        break;
    }
  }

  trace::Span relink_span("server.relink", {"edits", static_cast<int64_t>(batch.size())});
  SessionResult result = session.RunLinked();

  // A cancelled link is incomplete by contract: publish nothing, leave the
  // touched modules dirty. Only a closing corpus cancels, and it just drains.
  if (!result.cancelled) {
    // Publish timing feeds the always-on per-corpus histogram kStats serves;
    // the span on top of it only exists when tracing is enabled.
    const uint64_t publish_t0 = MonotonicNowNs();
    trace::Span publish_span("server.publish");
    auto snap = BuildEpochSnapshot(0, result, session.link_table(), epochs.Current().get());
    publish_span.AddArg(
        {"rows", static_cast<int64_t>(snap->findings.size() + snap->summaries.size())});
    publish_span.AddArg({"rendered", snap->rendered});
    snap->link = session.link_stats();
    snap->apply_errors = *errors;
    {
      std::lock_guard<std::mutex> lock(mu);
      snap->id = next_epoch++;
    }
    *evicted = epochs.Publish(std::move(snap));
    publish_us.Record((MonotonicNowNs() - publish_t0) / 1000);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Wire plumbing
// ---------------------------------------------------------------------------

void AnnodServer::AcceptLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      if (stopping_) {
        return;
      }
    }
    Socket sock = listener_.Accept();
    if (!sock.valid()) {
      // Listener closed (shutdown) or transient error; re-check stopping.
      std::lock_guard<std::mutex> lock(stop_mu_);
      if (stopping_) {
        return;
      }
      continue;
    }
    ReapFinishedConnections();
    uint64_t id;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      id = next_conn_id_++;
      live_fds_[id] = sock.fd();
    }
    std::thread t([this, id, s = std::move(sock)]() mutable {
      HandleConnection(id, std::move(s));
    });
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.emplace(id, std::move(t));
    }
  }
}

void AnnodServer::ReapFinishedConnections() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (uint64_t id : finished_) {
      auto it = conns_.find(id);
      if (it != conns_.end()) {
        done.push_back(std::move(it->second));
        conns_.erase(it);
      }
    }
    finished_.clear();
  }
  for (std::thread& t : done) {
    t.join();
  }
}

void AnnodServer::HandleConnection(uint64_t conn_id, Socket sock) {
  for (;;) {
    Frame req;
    std::string err;
    int r = ReadFrame(sock, &req, &err);
    if (r <= 0) {
      break;  // clean EOF, malformed frame, or shutdown-unblocked recv
    }
    // Request latency is always measured (kStats serves it live); the span
    // is the only part that needs tracing on.
    const uint64_t t0 = MonotonicNowNs();
    trace::Span span("server.request", {"type", static_cast<int64_t>(req.type)});
    const bool keep = Dispatch(req, sock);
    request_latency_us_.Record((MonotonicNowNs() - t0) / 1000);
    if (!keep) {
      break;
    }
  }
  std::lock_guard<std::mutex> lock(conns_mu_);
  live_fds_.erase(conn_id);
  finished_.push_back(conn_id);
}

bool AnnodServer::Dispatch(const Frame& req, Socket& sock) {
  std::string werr;
  auto reply_error = [&](const std::string& message) {
    ErrorMsg e;
    e.message = message;
    return WriteFrame(sock, MsgType::kError, e.Encode(), &werr);
  };
  auto reply_ok = [&](const std::string& corpus = std::string()) {
    CorpusMsg ok;
    ok.corpus = corpus;
    return WriteFrame(sock, MsgType::kOk, ok.Encode(), &werr);
  };
  // Why a query could not pin `epoch` of `corpus`.
  auto reply_no_snapshot = [&](const std::string& corpus, uint64_t epoch) {
    if (!FindCorpus(corpus)) {
      return reply_error("unknown corpus '" + corpus + "'");
    }
    return reply_error(epoch == 0 ? "no published epoch yet (sync first)"
                                  : "epoch " + std::to_string(epoch) +
                                        " evicted from retention ring");
  };
  auto reply_epoch = [&](uint64_t epoch) {
    EpochMsg e;
    e.epoch = epoch;
    return WriteFrame(sock, MsgType::kEpoch, e.Encode(), &werr);
  };

  switch (req.type) {
    case MsgType::kPing: {
      return reply_ok();
    }
    case MsgType::kOpenCorpus: {
      CorpusMsg m;
      if (!m.Decode(req.payload)) {
        return reply_error("malformed open_corpus payload");
      }
      if (m.corpus.empty()) {
        return reply_error("open_corpus: empty corpus name");
      }
      if (!OpenCorpus(m.corpus)) {
        return reply_error("open_corpus: server shutting down");
      }
      return reply_ok(m.corpus);
    }
    case MsgType::kCloseCorpus: {
      CorpusMsg m;
      if (!m.Decode(req.payload)) {
        return reply_error("malformed close_corpus payload");
      }
      if (!CloseCorpus(m.corpus)) {
        return reply_error("close_corpus: unknown corpus '" + m.corpus + "'");
      }
      return reply_ok(m.corpus);
    }
    case MsgType::kQueryFindings: {
      FindingsQueryMsg m;
      if (!m.Decode(req.payload)) {
        return reply_error("malformed query_findings payload");
      }
      auto snap = Snapshot(m.corpus, m.epoch);
      if (!snap) {
        return reply_no_snapshot(m.corpus, m.epoch);
      }
      FindingQuery q;
      q.function = m.function;
      q.tool = m.tool;
      q.module = m.module;
      RowsReplyMsg reply;
      reply.epoch = snap->id;
      reply.total = snap->findings.size();
      for (size_t i = 0; i < snap->findings.size(); ++i) {
        if (q.Matches(snap->findings[i])) {
          reply.rows.push_back(snap->findings_canon[i]);
        }
      }
      return WriteFrame(sock, MsgType::kFindings, reply.Encode(), &werr);
    }
    case MsgType::kQuerySummaries: {
      SummariesQueryMsg m;
      if (!m.Decode(req.payload)) {
        return reply_error("malformed query_summaries payload");
      }
      auto snap = Snapshot(m.corpus, m.epoch);
      if (!snap) {
        return reply_no_snapshot(m.corpus, m.epoch);
      }
      RowsReplyMsg reply;
      reply.epoch = snap->id;
      reply.total = snap->summaries.size();
      const SummaryQuery q{m.function, m.module};
      for (size_t i = 0; i < snap->summaries.size(); ++i) {
        if (q.Matches(snap->summaries[i])) {
          reply.rows.push_back(snap->summaries_canon[i]);
        }
      }
      return WriteFrame(sock, MsgType::kSummaries, reply.Encode(), &werr);
    }
    case MsgType::kUpsertModule: {
      UpsertModuleMsg m;
      if (!m.Decode(req.payload)) {
        return reply_error("malformed upsert_module payload");
      }
      ModuleSources mod;
      mod.name = m.module;
      for (auto& [name, text] : m.files) {
        mod.files.push_back(SourceFile{name, text});
      }
      auto c = FindCorpus(m.corpus);
      uint64_t at = c ? c->epochs.current_id() : 0;
      if (!EnqueueUpsert(m.corpus, std::move(mod))) {
        return reply_error("upsert_module: unknown corpus or empty module name");
      }
      return reply_epoch(at);
    }
    case MsgType::kReplaceFunction: {
      ReplaceFunctionMsg m;
      if (!m.Decode(req.payload)) {
        return reply_error("malformed replace_function payload");
      }
      auto c = FindCorpus(m.corpus);
      uint64_t at = c ? c->epochs.current_id() : 0;
      if (!EnqueueReplaceFunction(m.corpus, m.module, m.function, m.definition)) {
        return reply_error("replace_function: unknown corpus or empty target");
      }
      return reply_epoch(at);
    }
    case MsgType::kRemoveModule: {
      RemoveModuleMsg m;
      if (!m.Decode(req.payload)) {
        return reply_error("malformed remove_module payload");
      }
      auto c = FindCorpus(m.corpus);
      uint64_t at = c ? c->epochs.current_id() : 0;
      if (!EnqueueRemoveModule(m.corpus, m.module)) {
        return reply_error("remove_module: unknown corpus or empty module name");
      }
      return reply_epoch(at);
    }
    case MsgType::kStats: {
      CorpusMsg m;
      if (!m.Decode(req.payload)) {
        return reply_error("malformed stats payload");
      }
      auto c = FindCorpus(m.corpus);
      if (!c) {
        return reply_error("unknown corpus '" + m.corpus + "'");
      }
      StatsReplyMsg s;
      auto snap = c->epochs.Current();
      if (snap) {
        s.epoch = snap->id;
        s.modules = static_cast<uint32_t>(snap->modules);
        s.findings = snap->findings.size();
        s.summary_rows = snap->summaries.size();
        s.link_rounds = static_cast<uint32_t>(snap->link.rounds);
        s.converged = snap->link.converged ? 1 : 0;
      }
      {
        std::lock_guard<std::mutex> lock(c->mu);
        s.queued_edits = static_cast<uint32_t>(c->edits.size());
        s.relinks = static_cast<uint64_t>(c->relinks_done);
        s.apply_errors = c->apply_errors;
        s.edit_queue_peak = c->edit_queue_peak;
      }
      // v2 metrics block: live percentiles from the always-on histograms.
      s.request_count = request_latency_us_.Count();
      s.request_p50_us = request_latency_us_.Percentile(50);
      s.request_p95_us = request_latency_us_.Percentile(95);
      s.request_p99_us = request_latency_us_.Percentile(99);
      s.publish_count = c->publish_us.Count();
      s.publish_p50_us = c->publish_us.Percentile(50);
      s.publish_p99_us = c->publish_us.Percentile(99);
      return WriteFrame(sock, MsgType::kStatsReply, s.Encode(), &werr);
    }
    case MsgType::kSync: {
      CorpusMsg m;
      if (!m.Decode(req.payload)) {
        return reply_error("malformed sync payload");
      }
      if (!FindCorpus(m.corpus)) {
        return reply_error("unknown corpus '" + m.corpus + "'");
      }
      uint64_t epoch = SyncEpoch(m.corpus);
      if (epoch == 0) {
        return reply_error("sync: corpus closing");
      }
      return reply_epoch(epoch);
    }
    case MsgType::kShutdown: {
      reply_ok();
      RequestShutdown();
      return false;  // close this connection; Wait() joins us later
    }
    default:
      return reply_error(std::string("unexpected message type ") +
                         MsgTypeName(req.type));
  }
}

}  // namespace ivy
