// AnnodServer tests: end-to-end byte-identity against a cold batch run,
// query filtering parity with FindingQuery, epoch pinning and retention,
// graceful shutdown while a relink is in flight (no deadlock, no partial
// epoch), and the concurrency stress test — 32 query clients against a
// corpus receiving continuous edits, every response internally consistent
// with its pinned epoch (same epoch => same bytes), and the final epoch
// byte-identical to a cold RunLinked() over the same final sources.
//
// This file runs under ThreadSanitizer in CI (.github/workflows/ci.yml).
#include <atomic>
#include <cstdio>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "src/server/epoch.h"
#include "src/server/server.h"
#include "src/tool/session.h"
#include "tools/synth_common.h"

namespace ivy {
namespace {

LinkedCorpusOptions SmallCorpus(uint64_t seed = 2) {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 16;
  opt.seed = seed;
  return opt;
}

AnnodServer::Options ServerOptions(int retain = 8) {
  AnnodServer::Options o;
  o.pipeline = SynthServePipeline().Build();
  o.epoch_retain = retain;
  return o;
}

// Cold batch reference over (possibly edited) synth sources.
std::shared_ptr<EpochSnapshot> ColdSnapshot(
    const LinkedCorpusOptions& opt,
    const std::vector<std::pair<std::string, std::pair<std::string, std::string>>>&
        replacements = {}) {
  AnalysisSession session =
      SynthServePipeline().ForEachModule(GenerateLinkedCorpus(opt)).BuildSession();
  for (const auto& [module, edit] : replacements) {
    EXPECT_TRUE(session.ReplaceFunction(module, edit.first, edit.second));
  }
  SessionResult result = session.RunLinked();
  EXPECT_EQ(result.compile_failures, 0);
  EXPECT_TRUE(session.link_stats().converged);
  return BuildEpochSnapshot(1, result, session.link_table());
}

void SeedCorpus(AnnodServer& server, const std::string& corpus,
                const LinkedCorpusOptions& opt) {
  ASSERT_TRUE(server.OpenCorpus(corpus));
  for (ModuleSources& mod : GenerateLinkedCorpus(opt)) {
    ASSERT_TRUE(server.EnqueueUpsert(corpus, std::move(mod)));
  }
  ASSERT_GT(server.SyncEpoch(corpus), 0u);
}

TEST(Server, WarmSnapshotMatchesColdBatchByteForByte) {
  const LinkedCorpusOptions opt = SmallCorpus();
  AnnodServer server(ServerOptions());
  SeedCorpus(server, "synth", opt);

  auto warm = server.Snapshot("synth");
  ASSERT_NE(warm, nullptr);
  auto cold = ColdSnapshot(opt);
  EXPECT_FALSE(warm->findings_canon.empty());
  EXPECT_EQ(warm->findings_canon, cold->findings_canon);
  EXPECT_EQ(warm->summaries_canon, cold->summaries_canon);
  EXPECT_TRUE(warm->link.converged);
}

TEST(Server, WireQueriesMatchInProcessSnapshotAndFilters) {
  const LinkedCorpusOptions opt = SmallCorpus();
  AnnodServer server(ServerOptions());
  SeedCorpus(server, "synth", opt);

  std::string err;
  ASSERT_TRUE(server.Start("127.0.0.1:0", &err)) << err;
  AnnodClient client;
  ASSERT_TRUE(client.Connect(server.bound_address(), &err)) << err;
  ASSERT_TRUE(client.Ping(&err)) << err;

  auto snap = server.Snapshot("synth");
  ASSERT_NE(snap, nullptr);

  {
    // Unfiltered: every canonical row, in snapshot order.
    FindingsQueryMsg q;
    q.corpus = "synth";
    RowsReplyMsg reply;
    ASSERT_TRUE(client.QueryFindings(q, &reply, &err)) << err;
    EXPECT_EQ(reply.epoch, snap->id);
    EXPECT_EQ(reply.total, snap->findings.size());
    EXPECT_EQ(reply.rows, snap->findings_canon);
  }
  {
    // Filtered: exactly what FindingQuery selects client-side.
    FindingsQueryMsg q;
    q.corpus = "synth";
    q.tool = "stackcheck";
    q.module = "mod_01";
    RowsReplyMsg reply;
    ASSERT_TRUE(client.QueryFindings(q, &reply, &err)) << err;
    FindingQuery fq;
    fq.tool = "stackcheck";
    fq.module = "mod_01";
    std::vector<std::string> expected;
    for (size_t i = 0; i < snap->findings.size(); ++i) {
      if (fq.Matches(snap->findings[i])) {
        expected.push_back(snap->findings_canon[i]);
      }
    }
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(reply.rows, expected);
    EXPECT_EQ(reply.total, snap->findings.size());
  }
  {
    SummariesQueryMsg q;
    q.corpus = "synth";
    q.module = "mod_02";
    RowsReplyMsg reply;
    ASSERT_TRUE(client.QuerySummaries(q, &reply, &err)) << err;
    std::vector<std::string> expected;
    for (size_t i = 0; i < snap->summaries.size(); ++i) {
      if (snap->summaries[i].module == "mod_02") {
        expected.push_back(snap->summaries_canon[i]);
      }
    }
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(reply.rows, expected);
  }
  {
    StatsReplyMsg stats;
    ASSERT_TRUE(client.Stats("synth", &stats, &err)) << err;
    EXPECT_EQ(stats.epoch, snap->id);
    EXPECT_EQ(stats.findings, snap->findings.size());
    EXPECT_EQ(stats.converged, 1);
  }
  {
    // Error paths surface as kError, not closed connections.
    FindingsQueryMsg q;
    q.corpus = "nope";
    RowsReplyMsg reply;
    EXPECT_FALSE(client.QueryFindings(q, &reply, &err));
    EXPECT_NE(err.find("unknown corpus"), std::string::npos) << err;
    ASSERT_TRUE(client.Ping(&err)) << err;  // still usable
  }

  ASSERT_TRUE(client.Shutdown(&err)) << err;
  server.Wait();
}

TEST(Server, EpochPinningKeepsOldSnapshotsQueryable) {
  const LinkedCorpusOptions opt = SmallCorpus();
  AnnodServer server(ServerOptions());
  SeedCorpus(server, "synth", opt);

  auto pinned = server.Snapshot("synth");
  ASSERT_NE(pinned, nullptr);
  const uint64_t pinned_id = pinned->id;
  const std::vector<std::string> pinned_rows = pinned->findings_canon;

  // A new blocking body changes the corpus; the pinned epoch must not move.
  ASSERT_TRUE(server.EnqueueReplaceFunction(
      "synth", "mod_01", "m01_fn_0005",
      "void m01_fn_0005(int n) {\n  int pad[4]; pad[0] = n;\n  msleep(n);\n}\n"));
  const uint64_t new_epoch = server.SyncEpoch("synth");
  ASSERT_GT(new_epoch, pinned_id);

  auto old_snap = server.Snapshot("synth", pinned_id);
  ASSERT_NE(old_snap, nullptr) << "pinned epoch evicted too early";
  EXPECT_EQ(old_snap->findings_canon, pinned_rows);

  auto latest = server.Snapshot("synth");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->id, new_epoch);
  EXPECT_NE(latest->findings_canon, pinned_rows);

  // The edited corpus still matches its own cold batch run.
  auto cold = ColdSnapshot(
      opt, {{"mod_01",
             {"m01_fn_0005",
              "void m01_fn_0005(int n) {\n  int pad[4]; pad[0] = n;\n  msleep(n);\n}\n"}}});
  EXPECT_EQ(latest->findings_canon, cold->findings_canon);
  EXPECT_EQ(latest->summaries_canon, cold->summaries_canon);
}

TEST(Server, EpochRetentionEvictsBeyondRing) {
  const LinkedCorpusOptions opt = SmallCorpus();
  AnnodServer server(ServerOptions(/*retain=*/2));
  SeedCorpus(server, "synth", opt);
  const uint64_t first = server.Snapshot("synth")->id;

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.EnqueueReplaceFunction(
        "synth", "mod_01", "m01_fn_0005",
        "void m01_fn_0005(int n) {\n  int pad[" + std::to_string(4 + 4 * i) +
            "]; pad[0] = n;\n  msleep(n);\n}\n"));
    ASSERT_GT(server.SyncEpoch("synth"), 0u);
  }
  EXPECT_EQ(server.Snapshot("synth", first), nullptr) << "evicted epoch served";
  EXPECT_NE(server.Snapshot("synth"), nullptr);
}

// The warm start: a server with a store_dir saves each corpus on shutdown,
// and a second server on the same directory loads it on its first relink.
// Re-seeding the same sources then publishes the first server's epoch
// without analyzing a module.
TEST(Server, StoreDirWarmStartMatchesFirstServerWithoutAnalysis) {
  const LinkedCorpusOptions opt = SmallCorpus(/*seed=*/5);
  const std::string dir = ::testing::TempDir();
  std::remove((dir + "/ivy_server_warm.store").c_str());
  AnnodServer::Options options = ServerOptions();
  options.store_dir = dir;

  std::shared_ptr<const EpochSnapshot> first;
  {
    AnnodServer server(options);
    SeedCorpus(server, "ivy_server_warm", opt);
    first = server.Snapshot("ivy_server_warm");
    ASSERT_NE(first, nullptr);
    EXPECT_GT(first->link.module_analyses, 0);
    server.RequestShutdown();
    server.Wait();
  }

  AnnodServer server(options);
  SeedCorpus(server, "ivy_server_warm", opt);
  auto second = server.Snapshot("ivy_server_warm");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->link.module_analyses, 0);
  EXPECT_FALSE(second->findings_canon.empty());
  EXPECT_EQ(second->findings_canon, first->findings_canon);
  EXPECT_EQ(second->summaries_canon, first->summaries_canon);
  std::remove((dir + "/ivy_server_warm.store").c_str());
}

// A corpus opened after shutdown would relink after the daemon reports
// itself stopped, and its store would never be saved: the open is refused,
// and so is everything that would touch the corpus.
TEST(Server, OpenAfterShutdownIsRefused) {
  const std::string dir = ::testing::TempDir();
  const std::string store = dir + "/ivy_server_late.store";
  std::remove(store.c_str());
  AnnodServer::Options options = ServerOptions();
  options.store_dir = dir;
  {
    AnnodServer server(options);
    server.RequestShutdown();
    server.Wait();
    EXPECT_FALSE(server.OpenCorpus("ivy_server_late"));
    EXPECT_FALSE(
        server.EnqueueUpsert("ivy_server_late", std::move(GenerateLinkedCorpus(SmallCorpus())[0])));
    EXPECT_EQ(server.SyncEpoch("ivy_server_late"), 0u);
  }
  EXPECT_FALSE(std::ifstream(store).good()) << "store saved after shutdown";
  std::remove(store.c_str());
}

// The regression test for the drain path: shutdown arrives while the initial
// relink of a corpus is still converging. Must not deadlock, and must never
// publish a partial (non-converged) epoch.
TEST(Server, ShutdownWhileRelinkingPublishesNoPartialEpoch) {
  LinkedCorpusOptions opt;
  opt.modules = 6;
  opt.functions = 48;
  opt.seed = 3;

  for (int round = 0; round < 3; ++round) {
    AnnodServer server(ServerOptions());
    ASSERT_TRUE(server.OpenCorpus("synth"));
    for (ModuleSources& mod : GenerateLinkedCorpus(opt)) {
      ASSERT_TRUE(server.EnqueueUpsert("synth", std::move(mod)));
    }
    // No sync: the fixpoint is (very likely) mid-flight right now. Vary the
    // race window a little between rounds.
    if (round > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20 * round));
    }
    server.RequestShutdown();
    server.Wait();  // deadlock here is the bug this test pins down

    // Whatever made it out before the cancel must be whole: converged link,
    // no cancelled stats.
    auto snap = server.Snapshot("synth");
    if (snap != nullptr && snap->id > 1) {
      EXPECT_TRUE(snap->link.converged) << "partial epoch published";
      EXPECT_FALSE(snap->link.cancelled);
    }
  }
}

// ---------------------------------------------------------------------------
// The stress test: 32 concurrent wire clients, continuous edits, epoch
// consistency (same epoch => same bytes) and final byte-identity. TSan runs
// this in CI.
// ---------------------------------------------------------------------------

TEST(ServerStress, ThirtyTwoClientsAgainstContinuousEdits) {
  const LinkedCorpusOptions opt = SmallCorpus(/*seed=*/4);
  AnnodServer server(ServerOptions());
  SeedCorpus(server, "synth", opt);
  std::string err;
  ASSERT_TRUE(server.Start("127.0.0.1:0", &err)) << err;
  const std::string addr = server.bound_address();

  constexpr int kClients = 32;
  constexpr int kQueriesPerClient = 8;
  const std::string kEditTarget = "m01_fn_0005";

  // Writer: a stream of alternating edits, one relink each.
  std::atomic<bool> stop_edits{false};
  std::thread editor([&server, &stop_edits, &kEditTarget] {
    int flavor = 0;
    while (!stop_edits.load(std::memory_order_acquire)) {
      const std::string body =
          "void " + kEditTarget + "(int n) {\n  int pad[" +
          std::to_string(4 << (flavor % 3)) + "]; pad[0] = n;\n  msleep(n);\n}\n";
      server.EnqueueReplaceFunction("synth", "mod_01", kEditTarget, body);
      ++flavor;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Readers: each client records (epoch, payload-hash) per query shape; any
  // two responses from the same epoch must be byte-identical.
  std::mutex seen_mu;
  std::map<std::pair<uint64_t, int>, std::string> seen;  // (epoch, shape) -> digest
  std::atomic<int> failures{0};

  auto digest = [](const RowsReplyMsg& reply) {
    std::string d = std::to_string(reply.total) + "|";
    for (const std::string& row : reply.rows) {
      d += row;
      d += '\n';
    }
    return d;
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int cidx = 0; cidx < kClients; ++cidx) {
    clients.emplace_back([&, cidx] {
      AnnodClient client;
      std::string cerr;
      if (!client.Connect(addr, &cerr)) {
        ++failures;
        return;
      }
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const int shape = (cidx + i) % 3;
        RowsReplyMsg reply;
        bool ok = false;
        if (shape == 0) {
          FindingsQueryMsg q;
          q.corpus = "synth";
          ok = client.QueryFindings(q, &reply, &cerr);
        } else if (shape == 1) {
          FindingsQueryMsg q;
          q.corpus = "synth";
          q.tool = "blockstop";
          q.module = "mod_01";
          ok = client.QueryFindings(q, &reply, &cerr);
        } else {
          SummariesQueryMsg q;
          q.corpus = "synth";
          q.module = "mod_01";
          ok = client.QuerySummaries(q, &reply, &cerr);
        }
        if (!ok) {
          ++failures;
          continue;
        }
        // Re-query the SAME epoch by id: must reproduce the bytes exactly
        // (unless the ring already evicted it under the edit storm).
        if (shape == 0) {
          FindingsQueryMsg q;
          q.corpus = "synth";
          q.epoch = reply.epoch;
          RowsReplyMsg again;
          if (client.QueryFindings(q, &again, &cerr)) {
            if (again.epoch != reply.epoch || again.rows != reply.rows) {
              ++failures;
            }
          }
        }
        const std::string d = digest(reply);
        std::lock_guard<std::mutex> lock(seen_mu);
        auto [it, inserted] =
            seen.emplace(std::make_pair(reply.epoch, shape), d);
        if (!inserted && it->second != d) {
          ++failures;  // same epoch, same query, different bytes
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  stop_edits.store(true, std::memory_order_release);
  editor.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(seen.size(), 0u);

  // Quiesce, then the final epoch must be byte-identical to a cold batch
  // run over the same final sources.
  const uint64_t final_epoch = server.SyncEpoch("synth");
  ASSERT_GT(final_epoch, 0u);
  auto final_snap = server.Snapshot("synth", final_epoch);
  ASSERT_NE(final_snap, nullptr);

  // Reconstruct the last applied edit: the editor thread applied `flavor`
  // bodies in sequence; re-derive the final body from the server's view by
  // matching against the three possible pads.
  bool matched = false;
  for (int flavor = 0; flavor < 3 && !matched; ++flavor) {
    const std::string body =
        "void " + kEditTarget + "(int n) {\n  int pad[" +
        std::to_string(4 << flavor) + "]; pad[0] = n;\n  msleep(n);\n}\n";
    auto cold = ColdSnapshot(opt, {{"mod_01", {kEditTarget, body}}});
    if (final_snap->findings_canon == cold->findings_canon &&
        final_snap->summaries_canon == cold->summaries_canon) {
      matched = true;
    }
  }
  EXPECT_TRUE(matched)
      << "final epoch matches no cold run of any applied edit state";

  server.RequestShutdown();
  server.Wait();
}

}  // namespace
}  // namespace ivy
