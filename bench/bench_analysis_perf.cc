// Analysis-infrastructure microbenchmarks (google-benchmark): how fast the
// frontend, the points-to analysis, the call graph and the VM are on the
// whole kernel corpus. The paper's scalability claim ("it is possible to
// apply sound static analysis tools at a large scale") rests on tool speed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>

#include <sys/resource.h>

#include "src/analysis/callgraph.h"
#include "src/analysis/fingerprint.h"
#include "src/analysis/pointsto.h"
#include "src/bc/bytecode.h"
#include "src/bc/compile.h"
#include "src/bc/verify.h"
#include "src/blockstop/blockstop.h"
#include "src/errcheck/errcheck.h"
#include "src/kernel/corpus.h"
#include "src/kernel/prelude.h"
#include "src/locksafe/locksafe.h"
#include "src/mc/lexer.h"
#include "src/mc/parser.h"
#include "src/mc/sema.h"
#include "src/vm/builtins.h"
#include "src/server/client.h"
#include "src/server/epoch.h"
#include "src/server/server.h"
#include "src/stackcheck/stackcheck.h"
#include "src/support/clock.h"
#include "src/support/trace.h"
#include "src/tool/pipeline.h"
#include "src/tool/session.h"
#include "tests/synth_corpus.h"

namespace {

void BM_CompileKernel(benchmark::State& state) {
  ivy::ToolConfig cfg;
  for (auto _ : state) {
    auto comp = ivy::CompileKernel(cfg);
    benchmark::DoNotOptimize(comp->ok);
  }
}
BENCHMARK(BM_CompileKernel);

void BM_PointsToInsensitive(benchmark::State& state) {
  auto comp = ivy::CompileKernel(ivy::ToolConfig{});
  for (auto _ : state) {
    ivy::PointsTo pt(&comp->prog, comp->sema.get(), false);
    pt.Solve();
    benchmark::DoNotOptimize(pt.node_count());
  }
}
BENCHMARK(BM_PointsToInsensitive);

void BM_PointsToFieldSensitive(benchmark::State& state) {
  auto comp = ivy::CompileKernel(ivy::ToolConfig{});
  for (auto _ : state) {
    ivy::PointsTo pt(&comp->prog, comp->sema.get(), true);
    pt.Solve();
    benchmark::DoNotOptimize(pt.node_count());
  }
}
BENCHMARK(BM_PointsToFieldSensitive);

void BM_BlockStopFull(benchmark::State& state) {
  auto comp = ivy::CompileKernel(ivy::ToolConfig{});
  for (auto _ : state) {
    ivy::AnalysisContext ctx(comp.get(), /*field_sensitive=*/false);
    ivy::BlockStop bs(&comp->prog, comp->sema.get(), &ctx.callgraph());
    ivy::BlockStopReport report = bs.Run();
    benchmark::DoNotOptimize(report.violations.size());
  }
}
BENCHMARK(BM_BlockStopFull);

// The seed's pattern: every tool rebuilds the points-to results and the call
// graph privately (4 solves + 4 graph constructions per multi-tool run).
void BM_FourToolsRebuildPerTool(benchmark::State& state) {
  auto comp = ivy::CompileKernel(ivy::ToolConfig{});
  for (auto _ : state) {
    int64_t sink = 0;
    {
      ivy::PointsTo pt(&comp->prog, comp->sema.get(), false);
      pt.Solve();
      ivy::CallGraph cg = ivy::CallGraph::Build(comp->prog, *comp->sema, pt);
      sink += ivy::BlockStop(&comp->prog, comp->sema.get(), &cg).Run().violations.size();
    }
    {
      ivy::PointsTo pt(&comp->prog, comp->sema.get(), false);
      pt.Solve();
      ivy::CallGraph cg = ivy::CallGraph::Build(comp->prog, *comp->sema, pt);
      sink += ivy::LockSafe(&comp->prog, comp->sema.get(), &cg).Run().deadlock_cycles.size();
    }
    {
      ivy::PointsTo pt(&comp->prog, comp->sema.get(), false);
      pt.Solve();
      ivy::CallGraph cg = ivy::CallGraph::Build(comp->prog, *comp->sema, pt);
      sink += ivy::StackCheck(&cg, &comp->module).Run({"boot_kernel"}).worst_case;
    }
    {
      ivy::PointsTo pt(&comp->prog, comp->sema.get(), false);
      pt.Solve();
      ivy::CallGraph cg = ivy::CallGraph::Build(comp->prog, *comp->sema, pt);
      sink += ivy::ErrCheck(&comp->prog, comp->sema.get(), &cg).Run().findings.size();
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_FourToolsRebuildPerTool);

// The pipeline: same four tools, one shared AnalysisContext. The explicit
// check is the acceptance criterion — the call graph is computed exactly
// once per run.
void BM_FourToolsSharedPipeline(benchmark::State& state) {
  ivy::Pipeline pipeline = ivy::PipelineBuilder()
                               .Tool("blockstop")
                               .Tool("locksafe")
                               .Tool("stackcheck",
                                     ivy::ToolOptions().Set("entries", "boot_kernel"))
                               .Tool("errcheck")
                               .FieldSensitive(false)
                               .Parallel(false)  // measure the cache, not the threads
                               .Build();
  auto comp = ivy::CompileKernel(pipeline.config());
  for (auto _ : state) {
    auto ctx = pipeline.MakeContext(comp.get());
    ivy::PipelineResult result = pipeline.RunTools(*ctx);
    // Not assert(): RelWithDebInfo defines NDEBUG, and this check must hold
    // in exactly the configuration benchmarks run in.
    if (result.callgraph_builds != 1 || result.pointsto_builds != 1) {
      std::fprintf(stderr, "FATAL: shared cache regressed (callgraph %dx, points-to %dx)\n",
                   result.callgraph_builds, result.pointsto_builds);
      std::abort();
    }
    benchmark::DoNotOptimize(result.findings.size());
  }
}
BENCHMARK(BM_FourToolsSharedPipeline);

// Same pipeline with the std::async scheduler enabled.
void BM_FourToolsSharedPipelineParallel(benchmark::State& state) {
  ivy::Pipeline pipeline = ivy::PipelineBuilder()
                               .Tool("blockstop")
                               .Tool("locksafe")
                               .Tool("stackcheck",
                                     ivy::ToolOptions().Set("entries", "boot_kernel"))
                               .Tool("errcheck")
                               .FieldSensitive(false)
                               .Parallel(true)
                               .Build();
  auto comp = ivy::CompileKernel(pipeline.config());
  for (auto _ : state) {
    auto ctx = pipeline.MakeContext(comp.get());
    ivy::PipelineResult result = pipeline.RunTools(*ctx);
    benchmark::DoNotOptimize(result.findings.size());
  }
}
BENCHMARK(BM_FourToolsSharedPipelineParallel);

// ---------------------------------------------------------------------------
// BlockStop's worklist/BFS kernel vs its rescan reference, and StackCheck, on
// a synthesized ~500-function corpus (long call chains, spinlock sections,
// irq handlers — see tests/synth_corpus.h). The kernel must stay
// byte-identical in findings to the reference; that is enforced here with
// the same FATAL pattern as the cache check above, so a quietly-diverging
// kernel can never post a winning time.
// ---------------------------------------------------------------------------

ivy::Compilation* SynthComp() {
  static std::unique_ptr<ivy::Compilation> comp = [] {
    ivy::SynthCorpusOptions opt;
    opt.functions = 500;
    opt.seed = 2024;
    // Deep-chain profile with mixed-direction blocks: may-block seeds sit
    // ~170 functions from the call sites that consume them, and half the
    // blocks chain against the scan order, so the rescan fixpoints pay a full
    // round per hop while the worklist pays per edge.
    opt.fanout_span = 6;
    opt.mid_blocking_every = 0;
    opt.descending_blocks = true;
    auto c = ivy::CompileOne(ivy::GenerateSynthCorpus(opt), ivy::ToolConfig{});
    if (!c->ok) {
      std::fprintf(stderr, "FATAL: synth corpus does not compile\n%s\n", c->Errors().c_str());
      std::abort();
    }
    return c;
  }();
  return comp.get();
}

ivy::AnalysisContext& SynthCtx() {
  static ivy::AnalysisContext* ctx =
      new ivy::AnalysisContext(SynthComp(), /*field_sensitive=*/false);
  ctx->callgraph();  // warm outside the timed region
  return *ctx;
}

std::string FindingsDump(const std::vector<ivy::Finding>& findings) {
  ivy::Json arr = ivy::Json::MakeArray();
  for (const ivy::Finding& f : findings) {
    arr.Append(f.ToJson());
  }
  return arr.Dump();
}

void BM_BlockStopSynth500(benchmark::State& state) {
  ivy::AnalysisContext& ctx = SynthCtx();
  const ivy::CallGraph& cg = ctx.callgraph();
  {
    ivy::BlockStop kernel(&ctx.prog(), &ctx.sema(), &cg);
    ivy::BlockStop reference(&ctx.prog(), &ctx.sema(), &cg);
    if (FindingsDump(kernel.Run().ToFindings()) !=
        FindingsDump(reference.RunReference().ToFindings())) {
      std::fprintf(stderr, "FATAL: blockstop kernel findings diverge from the reference\n");
      std::abort();
    }
  }
  for (auto _ : state) {
    ivy::BlockStop bs(&ctx.prog(), &ctx.sema(), &cg);
    ivy::BlockStopReport report = bs.Run();
    benchmark::DoNotOptimize(report.violations.size());
  }
}
BENCHMARK(BM_BlockStopSynth500);

void BM_BlockStopSynth500Reference(benchmark::State& state) {
  ivy::AnalysisContext& ctx = SynthCtx();
  for (auto _ : state) {
    ivy::BlockStop bs(&ctx.prog(), &ctx.sema(), &ctx.callgraph());
    ivy::BlockStopReport report = bs.RunReference();
    benchmark::DoNotOptimize(report.violations.size());
  }
}
BENCHMARK(BM_BlockStopSynth500Reference);

void BM_StackCheckSynth500(benchmark::State& state) {
  ivy::AnalysisContext& ctx = SynthCtx();
  const ivy::CallGraph& cg = ctx.callgraph();
  for (auto _ : state) {
    ivy::StackCheck sc(&cg, &ctx.module());
    ivy::StackCheckReport report = sc.Run({});
    benchmark::DoNotOptimize(report.worst_case);
  }
}
BENCHMARK(BM_StackCheckSynth500);

// ---------------------------------------------------------------------------
// The 8x400 session corpus: the frontend measurements, the relink after a
// one-function edit and the tracing gate all run over it (chrono timers,
// written to BENCH_pipeline.json below — the CI perf artifact).
// ---------------------------------------------------------------------------

constexpr int kCorpusModules = 8;
constexpr int kCorpusFunctions = 400;

std::vector<ivy::ModuleSources> SessionCorpus() {
  std::vector<ivy::ModuleSources> out;
  for (int m = 0; m < kCorpusModules; ++m) {
    ivy::SynthCorpusOptions opt;
    opt.functions = kCorpusFunctions;
    opt.seed = 4000 + static_cast<uint64_t>(m);
    opt.hook_tables = 4;
    // The deep-chain profile (see SynthComp above): long propagation
    // distances make the fixpoints the dominant cost, as in a real
    // kernel-sized module.
    opt.fanout_span = 6;
    opt.mid_blocking_every = 0;
    opt.descending_blocks = true;
    char name[16];
    std::snprintf(name, sizeof(name), "mod_%02d", m);
    // Per-module symbol prefixes: the modules link with no name defined
    // twice.
    opt.prefix = std::string(name) + "_";
    out.push_back({name, {ivy::SourceFile{std::string(name) + ".mc",
                                          ivy::GenerateSynthCorpus(opt)}}});
  }
  return out;
}

ivy::PipelineBuilder SessionPipeline() {
  ivy::PipelineBuilder b;
  b.Tool("blockstop").Tool("stackcheck").Tool("errcheck").Tool("locksafe");
  return b;
}

// ---------------------------------------------------------------------------
// Frontend: parse+sema over the 8x400 corpus into the arena-backed AST.
// ---------------------------------------------------------------------------

struct FrontendTiming {
  double parse_ms = 0;
  double sema_ms = 0;
  size_t ast_bytes = 0;  // slabs + bump arena
};

// One module lexed ahead of time, so lexing stays outside the timed region
// and parse_us measures parsing proper.
struct LexedModule {
  std::unique_ptr<ivy::SourceManager> sm = std::make_unique<ivy::SourceManager>();
  std::unique_ptr<ivy::DiagEngine> diags;
  std::vector<std::vector<ivy::Token>> tokens;  // prelude first
};

std::vector<std::unique_ptr<LexedModule>> LexCorpus(
    const std::vector<ivy::ModuleSources>& corpus) {
  std::vector<std::unique_ptr<LexedModule>> out;
  for (const ivy::ModuleSources& m : corpus) {
    auto lm = std::make_unique<LexedModule>();
    lm->diags = std::make_unique<ivy::DiagEngine>(lm->sm.get());
    auto lex_file = [&lm](int32_t id) {
      ivy::Lexer lex(*lm->sm, id, lm->diags.get());
      lm->tokens.push_back(lex.Lex());
    };
    lex_file(lm->sm->AddFile("<prelude>", ivy::PreludeSource()));
    for (const ivy::SourceFile& f : m.files) {
      lex_file(lm->sm->AddFile(f.name, f.text));
    }
    out.push_back(std::move(lm));
  }
  return out;
}

FrontendTiming FrontendPass(const std::vector<std::unique_ptr<LexedModule>>& corpus) {
  FrontendTiming t;
  for (const std::unique_ptr<LexedModule>& m : corpus) {
    ivy::Program prog;
    const uint64_t p0 = ivy::MonotonicNowNs();
    for (const std::vector<ivy::Token>& toks : m->tokens) {
      ivy::Parser parser(&prog, &toks, m->diags.get());
      parser.ParseTranslationUnit();
    }
    const uint64_t p1 = ivy::MonotonicNowNs();
    ivy::Sema sema(&prog, m->diags.get(),
                   [](const std::string& n) { return ivy::BuiltinIdForName(n); });
    bool ok = sema.Run() && m->diags->ok();
    const uint64_t p2 = ivy::MonotonicNowNs();
    if (!ok) {
      std::fprintf(stderr, "FATAL: frontend bench corpus failed sema\n");
      std::abort();
    }
    t.parse_ms += static_cast<double>(p1 - p0) / 1e6;
    t.sema_ms += static_cast<double>(p2 - p1) / 1e6;
    t.ast_bytes += prog.arena().TotalBytes();
  }
  return t;
}

void BM_ParseSemaArena(benchmark::State& state) {
  auto lexed = LexCorpus(SessionCorpus());
  for (auto _ : state) {
    FrontendTiming t = FrontendPass(lexed);
    benchmark::DoNotOptimize(t.ast_bytes);
  }
}
BENCHMARK(BM_ParseSemaArena);

// Linked-corpus workload: cross-module calls through extern declarations,
// analyzed by RunLinked vs compiled and analyzed as one merged-source program.
std::vector<ivy::ModuleSources> LinkedBenchCorpus() {
  ivy::LinkedCorpusOptions opt;
  opt.modules = 6;
  opt.functions = 120;
  opt.seed = 4242;
  return ivy::GenerateLinkedCorpus(opt);
}

// The four-pass recipe of the linked workloads, StackCheck's budget opened
// wide like the property test's.
ivy::PipelineBuilder LinkedSessionPipeline() {
  ivy::PipelineBuilder b;
  ivy::ToolOptions sc;
  sc.SetInt("budget", int64_t{1} << 40);
  b.Tool("blockstop").Tool("stackcheck", sc).Tool("errcheck").Tool("locksafe");
  return b;
}

void BM_LinkedCorpusFixpoint(benchmark::State& state) {
  std::vector<ivy::ModuleSources> corpus = LinkedBenchCorpus();
  int rounds = 0;
  for (auto _ : state) {
    ivy::PipelineBuilder b = SessionPipeline();
    b.ForEachModule(corpus);
    ivy::AnalysisSession session = b.BuildSession();
    ivy::SessionResult result = session.RunLinked();
    rounds = session.link_stats().rounds;
    benchmark::DoNotOptimize(result.findings.size());
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_LinkedCorpusFixpoint);

void BM_LinkedCorpusMergedSource(benchmark::State& state) {
  std::vector<ivy::ModuleSources> corpus = LinkedBenchCorpus();
  std::vector<ivy::SourceFile> merged = ivy::MergedLinkedSources(corpus);
  ivy::Pipeline p = SessionPipeline().Build();
  for (auto _ : state) {
    ivy::PipelineRun run = p.CompileAndRun(merged);
    benchmark::DoNotOptimize(run.result.findings.size());
  }
}
BENCHMARK(BM_LinkedCorpusMergedSource);

void BM_VmBoot(benchmark::State& state) {
  auto comp = ivy::CompileKernel(ivy::ToolConfig{});
  for (auto _ : state) {
    auto vm = ivy::MakeVm(*comp);
    ivy::VmResult r = vm->Call("boot_kernel", {5});
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_VmBoot);

void BM_VmThroughputDeputy(benchmark::State& state) {
  auto comp = ivy::CompileKernel(ivy::ToolConfig{});
  auto vm = ivy::MakeVm(*comp);
  vm->Call("boot_kernel", {2});
  vm->Call("hb_setup");
  int64_t steps = 0;
  for (auto _ : state) {
    int64_t before = 0;
    ivy::VmResult r = vm->Call("hb_bw_mem_rd", {2});
    steps += r.steps - before;
    benchmark::DoNotOptimize(r.value);
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_VmThroughputDeputy);

// ---------------------------------------------------------------------------
// BENCH_pipeline.json: the CI perf artifact. Times batched-vs-sequential
// corpus runs, the re-run after a one-function edit, and the linked corpus
// with plain chrono timers (independent of --benchmark_filter, so CI can skip
// the microbenchmarks and still track the pipeline trajectory), and checks
// the linked findings byte-identical against the merged-source program.
// Opt-in: runs only when $BENCH_PIPELINE_OUT names the output path — the
// multi-corpus workload must not tax interactive --benchmark_filter runs.
// ---------------------------------------------------------------------------

double Median(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

template <typename F>
double MedianMs(F&& fn, int reps = 3) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const uint64_t start_ns = ivy::MonotonicNowNs();
    fn();
    times.push_back(ivy::ElapsedMsSince(start_ns));
  }
  return Median(std::move(times));
}

// Min-of-N: the right statistic for an overhead gate — the minimum is the
// run least disturbed by scheduler noise, so comparing minima isolates the
// code-path delta rather than machine load.
template <typename F>
double MinMs(F&& fn, const char* label = nullptr, int reps = 5) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    const uint64_t start_ns = ivy::MonotonicNowNs();
    fn();
    const double ms = ivy::ElapsedMsSince(start_ns);
    if (label != nullptr) {
      // Raw reps on stderr: when the overhead gate trips, the per-rep
      // sequence distinguishes a real code-path delta (flat shift) from
      // machine noise (spikes) at a glance.
      std::fprintf(stderr, "  tracing %s rep %d: %.1f ms\n", label, i, ms);
    }
    if (i == 0 || ms < best) {
      best = ms;
    }
  }
  return best;
}

// Analysis-server latency: an in-process AnnodServer over a real TCP socket
// serving an 8x400 linked corpus. Measures per-query wire latency (p50/p99)
// while a background editor streams ReplaceFunction edits — so relinks are
// continuously in flight and queries are answered from pinned epochs — and
// the edit-to-new-epoch latency a save hook would observe. The final epoch
// is FATAL-checked byte-identical to a cold batch RunLinked() over the same
// final sources: a server that answers fast from a diverged snapshot must
// never post a number.
ivy::Json ServerBenchJson() {
  ivy::LinkedCorpusOptions copt;
  copt.modules = kCorpusModules;
  copt.functions = kCorpusFunctions;
  copt.seed = 5150;
  std::vector<ivy::ModuleSources> corpus = ivy::GenerateLinkedCorpus(copt);

  ivy::AnnodServer::Options sopts;
  sopts.pipeline = LinkedSessionPipeline().Build();
  ivy::AnnodServer server(std::move(sopts));
  server.OpenCorpus("bench");
  for (const ivy::ModuleSources& m : corpus) {
    server.EnqueueUpsert("bench", m);
  }
  std::string err;
  if (!server.Start("127.0.0.1:0", &err)) {
    std::fprintf(stderr, "FATAL: server bench Start: %s\n", err.c_str());
    std::abort();
  }
  if (server.SyncEpoch("bench") == 0) {
    std::fprintf(stderr, "FATAL: server bench corpus did not publish\n");
    std::abort();
  }

  const std::string edit_module = ivy::LinkedModuleName(1);
  const std::string edit_fn = ivy::SynthFuncName(ivy::LinkedModulePrefix(1), 5);
  auto def_for = [&edit_fn](int flavor) {
    return "void " + edit_fn + "(int n) {\n  int pad[" +
           std::to_string(4 << (flavor % 3)) + "]; pad[0] = n;\n  msleep(n);\n}\n";
  };

  // Edit-to-new-epoch: submit one function edit, block until the relinked
  // epoch it lands in is queryable.
  int edit_i = 0;
  double edit_to_epoch_ms = MedianMs(
      [&server, &edit_module, &edit_fn, &def_for, &edit_i] {
        server.EnqueueReplaceFunction("bench", edit_module, edit_fn, def_for(edit_i++));
        if (server.SyncEpoch("bench") == 0) {
          std::fprintf(stderr, "FATAL: server bench edit epoch did not publish\n");
          std::abort();
        }
      },
      5);

  // Query latency with the relink worker continuously busy.
  std::atomic<bool> stop{false};
  std::thread editor([&server, &edit_module, &edit_fn, &def_for, &stop] {
    int flavor = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      server.EnqueueReplaceFunction("bench", edit_module, edit_fn, def_for(flavor++));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  ivy::AnnodClient client;
  if (!client.Connect(server.bound_address(), &err)) {
    std::fprintf(stderr, "FATAL: server bench connect: %s\n", err.c_str());
    std::abort();
  }
  constexpr int kQueries = 300;
  std::vector<double> lat_us;
  lat_us.reserve(kQueries);
  uint64_t rows_sink = 0;
  for (int i = 0; i < kQueries; ++i) {
    const uint64_t start_ns = ivy::MonotonicNowNs();
    ivy::RowsReplyMsg rows;
    bool ok;
    // Rotate the three query shapes a live client mixes: full-corpus
    // findings, per-module findings, per-module summaries.
    if (i % 3 == 2) {
      ivy::SummariesQueryMsg q;
      q.corpus = "bench";
      q.module = ivy::LinkedModuleName(i % kCorpusModules);
      ok = client.QuerySummaries(q, &rows, &err);
    } else {
      ivy::FindingsQueryMsg q;
      q.corpus = "bench";
      if (i % 3 == 1) {
        q.module = ivy::LinkedModuleName(i % kCorpusModules);
      }
      ok = client.QueryFindings(q, &rows, &err);
    }
    const double us = static_cast<double>(ivy::MonotonicNowNs() - start_ns) / 1000.0;
    if (!ok) {
      std::fprintf(stderr, "FATAL: server bench query: %s\n", err.c_str());
      std::abort();
    }
    rows_sink += rows.rows.size();
    lat_us.push_back(us);
  }
  benchmark::DoNotOptimize(rows_sink);
  stop.store(true);
  editor.join();

  // Quiesce on one final known definition, then hold the server to the
  // byte-identity contract.
  const std::string final_def = def_for(0);
  server.EnqueueReplaceFunction("bench", edit_module, edit_fn, final_def);
  if (server.SyncEpoch("bench") == 0) {
    std::abort();
  }
  std::shared_ptr<const ivy::EpochSnapshot> warm_snap = server.Snapshot("bench");
  ivy::PipelineBuilder cold_b = LinkedSessionPipeline();
  cold_b.ForEachModule(corpus);
  ivy::AnalysisSession cold_session = cold_b.BuildSession();
  if (!cold_session.ReplaceFunction(edit_module, edit_fn, final_def)) {
    std::fprintf(stderr, "FATAL: server bench cold edit did not apply\n");
    std::abort();
  }
  ivy::SessionResult cold_result = cold_session.RunLinked();
  std::shared_ptr<ivy::EpochSnapshot> cold_snap =
      ivy::BuildEpochSnapshot(1, cold_result, cold_session.link_table());
  if (warm_snap == nullptr || warm_snap->findings_canon != cold_snap->findings_canon ||
      warm_snap->summaries_canon != cold_snap->summaries_canon) {
    std::fprintf(stderr, "FATAL: server epoch diverges from cold batch run\n");
    std::abort();
  }
  uint64_t final_epoch = warm_snap->id;
  server.RequestShutdown();
  server.Wait();

  std::sort(lat_us.begin(), lat_us.end());
  double p50_us = lat_us[lat_us.size() / 2];
  double p99_us = lat_us[(lat_us.size() * 99) / 100];

  ivy::Json srv = ivy::Json::MakeObject();
  srv["modules"] = ivy::Json::MakeInt(kCorpusModules);
  srv["functions_per_module"] = ivy::Json::MakeInt(kCorpusFunctions);
  srv["queries"] = ivy::Json::MakeInt(kQueries);
  srv["query_p50_us"] = ivy::Json::MakeInt(static_cast<int64_t>(p50_us));
  srv["query_p99_us"] = ivy::Json::MakeInt(static_cast<int64_t>(p99_us));
  srv["edit_to_epoch_us"] = ivy::Json::MakeInt(static_cast<int64_t>(edit_to_epoch_ms * 1000));
  srv["epochs_published"] = ivy::Json::MakeInt(static_cast<int64_t>(final_epoch));
  srv["identical_to_cold"] = ivy::Json::MakeBool(true);
  std::fprintf(stderr,
               "BENCH server: query p50=%.0fus p99=%.0fus edit_to_epoch=%.1fms "
               "epochs=%llu\n",
               p50_us, p99_us, edit_to_epoch_ms,
               static_cast<unsigned long long>(final_epoch));
  return srv;
}

// The link table as canonical rows, one per line.
std::string LinkTableCanon(const ivy::AnalysisSession& session) {
  std::string out;
  for (const auto& [key, row] : session.link_table().summaries()) {
    out += row.Canonical();
    out += '\n';
  }
  return out;
}

// Persistent-store warm start: a cold RunLinked(), then SaveStore timed on
// its own, then a fresh session (the restart shape: same corpus
// re-registered) LoadStore + RunLinked. The warm restart is FATAL-checked
// byte-identical to the cold run — findings and link-table rows — with zero
// module analyses.
ivy::Json StoreBenchJson(const std::string& out_path) {
  const std::string spath = out_path + ".store.tmp";
  std::remove(spath.c_str());
  std::vector<ivy::ModuleSources> corpus = LinkedBenchCorpus();

  // One loop times both phases apart: the cold run (session build +
  // RunLinked) and the SaveStore that follows it.
  ivy::SessionResult cold_result;
  std::string cold_rows;
  int cold_rounds = 0;
  std::vector<double> cold_times;
  std::vector<double> save_times;
  for (int rep = 0; rep < 3; ++rep) {
    const uint64_t cold_start_ns = ivy::MonotonicNowNs();
    ivy::PipelineBuilder b = LinkedSessionPipeline();
    b.ForEachModule(corpus);
    ivy::AnalysisSession fresh = b.BuildSession();
    cold_result = fresh.RunLinked();
    cold_times.push_back(ivy::ElapsedMsSince(cold_start_ns));
    cold_rounds = fresh.link_stats().rounds;
    cold_rows = LinkTableCanon(fresh);
    const uint64_t save_start_ns = ivy::MonotonicNowNs();
    std::string err;
    if (!fresh.SaveStore(spath, &err)) {
      std::fprintf(stderr, "FATAL: store bench SaveStore: %s\n", err.c_str());
      std::abort();
    }
    save_times.push_back(ivy::ElapsedMsSince(save_start_ns));
  }
  const double cold_ms = Median(cold_times);
  const double save_ms = Median(save_times);

  int64_t store_bytes = 0;
  {
    std::ifstream in(spath, std::ios::binary | std::ios::ate);
    store_bytes = static_cast<int64_t>(in.tellg());
  }

  ivy::SessionResult warm_result;
  std::string warm_rows;
  int warm_rounds = 0;
  int warm_analyses = 0;
  std::vector<double> load_times;
  double warm_ms = MedianMs(
      [&corpus, &warm_result, &warm_rows, &warm_rounds, &warm_analyses, &load_times, &spath] {
        ivy::PipelineBuilder b = LinkedSessionPipeline();
        b.ForEachModule(corpus);
        ivy::AnalysisSession restarted = b.BuildSession();
        std::string err;
        const uint64_t load_start_ns = ivy::MonotonicNowNs();
        if (!restarted.LoadStore(spath, &err)) {
          std::fprintf(stderr, "FATAL: store bench LoadStore: %s\n", err.c_str());
          std::abort();
        }
        load_times.push_back(ivy::ElapsedMsSince(load_start_ns));
        warm_result = restarted.RunLinked();
        warm_rows = LinkTableCanon(restarted);
        warm_rounds = restarted.link_stats().rounds;
        warm_analyses = restarted.link_stats().module_analyses;
      },
      3);
  const double load_ms = Median(load_times);
  if (FindingsDump(warm_result.findings) != FindingsDump(cold_result.findings)) {
    std::fprintf(stderr, "FATAL: warm-started findings diverge from cold run\n");
    std::abort();
  }
  if (warm_rows != cold_rows) {
    std::fprintf(stderr, "FATAL: warm-started link-table rows diverge from cold run\n");
    std::abort();
  }
  if (warm_analyses != 0) {
    std::fprintf(stderr, "FATAL: warm restart re-analyzed %d modules\n", warm_analyses);
    std::abort();
  }
  std::remove(spath.c_str());

  ivy::Json st = ivy::Json::MakeObject();
  st["modules"] = ivy::Json::MakeInt(static_cast<int64_t>(corpus.size()));
  st["cold_linked_us"] = ivy::Json::MakeInt(static_cast<int64_t>(cold_ms * 1000));
  st["rounds_cold"] = ivy::Json::MakeInt(cold_rounds);
  st["save_us"] = ivy::Json::MakeInt(static_cast<int64_t>(save_ms * 1000));
  st["store_bytes"] = ivy::Json::MakeInt(store_bytes);
  st["load_us"] = ivy::Json::MakeInt(static_cast<int64_t>(load_ms * 1000));
  st["warm_restart_us"] = ivy::Json::MakeInt(static_cast<int64_t>(warm_ms * 1000));
  st["rounds_warm"] = ivy::Json::MakeInt(warm_rounds);
  st["warm_module_analyses"] = ivy::Json::MakeInt(warm_analyses);
  st["identical_to_cold"] = ivy::Json::MakeBool(true);
  std::fprintf(stderr,
               "BENCH store: cold=%.1fms (%d rounds) save=%.1fms load=%.1fms "
               "warm_restart=%.1fms (%d rounds, 0 analyses) store=%lld bytes\n",
               cold_ms, cold_rounds, save_ms, load_ms, warm_ms, warm_rounds,
               static_cast<long long>(store_bytes));
  return st;
}

// ---------------------------------------------------------------------------
// vm: the tree-walking interpreter vs the ivybc bytecode VM on the two
// VM-bound workloads (bench_ccount_overhead's hot CCount run and the hbench
// deputy shapes). Wall-clock covers the hot calls only — one booted VM per
// side, boot/hb_setup outside the timed region — and every configuration is
// first FATAL-checked result-identical between the interpreters (per-call
// ok/value/trap/cycles/steps plus final machine cycles/steps/log): a faster
// but diverging interpreter must never post a number.
// ---------------------------------------------------------------------------

struct VmCallSpec {
  const char* fn;
  std::vector<int64_t> args;
};

// Boots a fresh machine, runs the hot calls once, and renders every
// observable into one string — what the tree/bytecode identity check diffs.
std::string VmRunSignature(ivy::Machine& vm, const std::vector<VmCallSpec>& hot) {
  std::string sig;
  auto add = [&sig](const char* fn, const ivy::VmResult& r) {
    sig += fn;
    sig += ":ok=" + std::to_string(r.ok ? 1 : 0);
    sig += ",value=" + std::to_string(r.value);
    sig += ",trap=" + std::string(ivy::TrapKindName(r.trap));
    sig += ",msg=" + r.trap_msg;
    sig += ",cycles=" + std::to_string(r.cycles);
    sig += ",steps=" + std::to_string(r.steps);
    sig += ";";
  };
  add("boot_kernel", vm.Call("boot_kernel", {2}));
  add("hb_setup", vm.Call("hb_setup"));
  for (const VmCallSpec& c : hot) {
    add(c.fn, vm.Call(c.fn, c.args));
  }
  sig += "|cycles=" + std::to_string(vm.cycles());
  sig += "|steps=" + std::to_string(vm.steps());
  sig += "|log=" + vm.log();
  return sig;
}

ivy::Json VmWorkloadJson(const char* label, const ivy::ToolConfig& cfg,
                         const std::vector<VmCallSpec>& hot, double* speedup_out) {
  auto comp = ivy::CompileKernel(cfg);
  if (!comp->ok) {
    std::fprintf(stderr, "FATAL: vm bench kernel (%s) failed to compile\n", label);
    std::abort();
  }

  std::string err;
  std::shared_ptr<const ivy::BcModule> bc;
  double compile_ms = MedianMs([&comp, &bc, &err, label] {
    bc = ivy::CompileToBc(comp->module, &err);
    if (bc == nullptr) {
      std::fprintf(stderr, "FATAL: vm bench (%s) CompileToBc: %s\n", label, err.c_str());
      std::abort();
    }
  });
  if (!ivy::VerifyBcModule(*bc, &err)) {
    std::fprintf(stderr, "FATAL: vm bench (%s) image fails verification: %s\n", label,
                 err.c_str());
    std::abort();
  }
  int64_t image_bytes = static_cast<int64_t>(ivy::EncodeBcImage(*bc).size());

  // Identity before any timing.
  {
    auto tree = ivy::MakeVm(*comp);
    auto fast = ivy::MakeBcVm(*comp, ivy::VmConfig{}, bc);
    if (VmRunSignature(*tree, hot) != VmRunSignature(*fast, hot)) {
      std::fprintf(stderr, "FATAL: vm bench (%s): bytecode VM diverges from tree VM\n",
                   label);
      std::abort();
    }
  }

  // One booted VM per side; the timed region is the hot calls only.
  auto time_hot = [&hot, label](ivy::Machine& vm, int64_t* pass_cycles) {
    if (!vm.Call("boot_kernel", {2}).ok || !vm.Call("hb_setup").ok) {
      std::fprintf(stderr, "FATAL: vm bench (%s) boot trapped\n", label);
      std::abort();
    }
    return MedianMs(
        [&vm, &hot, pass_cycles, label] {
          int64_t before = vm.cycles();
          for (const VmCallSpec& c : hot) {
            ivy::VmResult r = vm.Call(c.fn, c.args);
            if (!r.ok) {
              std::fprintf(stderr, "FATAL: vm bench (%s) %s trapped: %s\n", label, c.fn,
                           r.trap_msg.c_str());
              std::abort();
            }
            benchmark::DoNotOptimize(r.value);
          }
          *pass_cycles = vm.cycles() - before;
        },
        5);
  };

  auto tree = ivy::MakeVm(*comp);
  int64_t tree_cycles = 0;
  double tree_ms = time_hot(*tree, &tree_cycles);

  auto fast = ivy::MakeBcVm(*comp, ivy::VmConfig{}, bc);
  int64_t bc_cycles = 0;
  double bc_ms = time_hot(*fast, &bc_cycles);

  double speedup = bc_ms > 0 ? tree_ms / bc_ms : 0;
  if (speedup_out != nullptr) {
    *speedup_out = speedup;
  }

  ivy::Json w = ivy::Json::MakeObject();
  w["tree_us"] = ivy::Json::MakeInt(static_cast<int64_t>(tree_ms * 1000));
  w["bytecode_us"] = ivy::Json::MakeInt(static_cast<int64_t>(bc_ms * 1000));
  w["tree_cycles_per_sec"] =
      ivy::Json::MakeInt(static_cast<int64_t>(tree_cycles / (tree_ms / 1000.0)));
  w["bytecode_cycles_per_sec"] =
      ivy::Json::MakeInt(static_cast<int64_t>(bc_cycles / (bc_ms / 1000.0)));
  w["speedup"] = ivy::Json::MakeDouble(speedup);
  w["bc_compile_us"] = ivy::Json::MakeInt(static_cast<int64_t>(compile_ms * 1000));
  w["image_bytes"] = ivy::Json::MakeInt(image_bytes);
  w["identical_to_tree"] = ivy::Json::MakeBool(true);
  std::fprintf(stderr,
               "BENCH vm %s: tree=%.1fms bytecode=%.1fms speedup=%.1fx "
               "(compile=%.1fms, image=%lld bytes)\n",
               label, tree_ms, bc_ms, speedup, compile_ms,
               static_cast<long long>(image_bytes));
  return w;
}

ivy::Json VmBenchJson() {
  // bench_ccount_overhead's hot workload: refcounted pointer-store traffic.
  ivy::ToolConfig ccount;
  ccount.deputy = false;
  ccount.ccount = true;
  double ccount_speedup = 0;
  ivy::Json ccount_j = VmWorkloadJson(
      "ccount", ccount, {{"hb_lat_proc", {160}}, {"hb_mod_load", {80}}}, &ccount_speedup);

  // The hbench deputy shapes: surviving run-time checks, no refcounting.
  ivy::ToolConfig deputy;
  ivy::Json hbench_j = VmWorkloadJson(
      "hbench", deputy,
      {{"hb_lat_proc", {120}}, {"hb_lat_syscall", {600}}, {"hb_bw_pipe", {24}}}, nullptr);

  ivy::Json vm = ivy::Json::MakeObject();
  vm["ccount_workload"] = std::move(ccount_j);
  vm["hbench_workload"] = std::move(hbench_j);
  if (ccount_speedup < 10.0) {
    std::fprintf(stderr, "WARNING: bytecode VM speedup %.1fx below the 10x target\n",
                 ccount_speedup);
  }
  return vm;
}

// The ivytrace cost-contract gate (src/support/trace.h): minima over the
// same cold 8x400 RunLinked() in three states — baseline (tracing flag
// never meaningfully on), disabled (after enable->disable cycles:
// instrumentation compiled in, gate off — the state every production run
// sits in), and enabled. Min-of-N because the minimum is the run least
// disturbed by machine noise. A disabled path costing more than 2% over
// baseline is a FATAL: that is the whole license for instrumenting hot
// paths.
ivy::Json TracingOverheadJson() {
  std::vector<ivy::ModuleSources> corpus = SessionCorpus();
  ivy::Pipeline pipeline = SessionPipeline().Build();
  auto run_once = [&corpus, &pipeline] {
    ivy::AnalysisSession session(pipeline);
    for (const ivy::ModuleSources& m : corpus) {
      session.AddModule(m);
    }
    benchmark::DoNotOptimize(session.RunLinked().findings.size());
  };

  // Baseline and disabled reps interleave pair-for-pair. The two states
  // differ only by flag flips, which leave no lazy state behind (rings and
  // metric slots are created by emissions, which need the flag on — and the
  // enabled phase runs last), so the pairing is sound; and pairing is what
  // makes a 2% gate measurable at all on a loaded machine: a slow phase
  // hits both sides of the same pair and cancels out of the ratio, where
  // sequential phases would book it entirely against one side.
  //
  // The gate statistic is the MEDIAN of the per-pair disabled/baseline
  // ratios — one preempted rep shifts the min and the mean but not the
  // median — and a failing measurement is re-taken up to three times before
  // it is believed. A real regression (an ungated allocation or lock on a
  // hot path) exceeds 2% in every attempt; scheduler noise does not survive
  // three medians in a row. Shared-CPU boxes routinely jitter identical
  // back-to-back runs by ±10%, so a single-shot 2% comparison would gate on
  // the machine, not the code.
  constexpr int kPairs = 7;
  constexpr int kAttempts = 3;
  auto rep_ms = [&run_once] {
    const uint64_t t0 = ivy::MonotonicNowNs();
    run_once();
    return ivy::ElapsedMsSince(t0);
  };
  double baseline_ms = 0;
  double disabled_ms = 0;
  double median_ratio = 0;
  bool passed = false;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    std::vector<double> ratios;
    ratios.reserve(kPairs);
    for (int i = 0; i < kPairs; ++i) {
      const double b = rep_ms();
      ivy::trace::SetEnabled(true);
      ivy::trace::SetEnabled(false);
      const double d = rep_ms();
      std::fprintf(stderr, "  tracing pair %d.%d: baseline=%.1fms disabled=%.1fms\n",
                   attempt, i, b, d);
      ratios.push_back(d / b);
      if (i == 0 || b < baseline_ms) {
        baseline_ms = b;
      }
      if (i == 0 || d < disabled_ms) {
        disabled_ms = d;
      }
    }
    std::sort(ratios.begin(), ratios.end());
    median_ratio = ratios[kPairs / 2];
    if (median_ratio <= 1.02) {
      passed = true;
      break;
    }
    std::fprintf(stderr,
                 "tracing gate attempt %d: median disabled overhead %.2f%% > 2%%, "
                 "re-measuring\n",
                 attempt, (median_ratio - 1.0) * 100.0);
  }
  ivy::trace::SetEnabled(true);
  const double enabled_ms = MinMs(run_once, "enabled", kPairs);
  ivy::trace::SetEnabled(false);

  const double disabled_pct = (median_ratio - 1.0) * 100.0;
  const double enabled_pct = (enabled_ms / baseline_ms - 1.0) * 100.0;
  if (!passed) {
    std::fprintf(stderr,
                 "FATAL: tracing disabled-path overhead %.2f%% exceeds the 2%% "
                 "contract in %d consecutive measurements (baseline=%.1fms "
                 "disabled=%.1fms)\n",
                 disabled_pct, kAttempts, baseline_ms, disabled_ms);
    std::abort();
  }

  ivy::Json t = ivy::Json::MakeObject();
  t["baseline_us"] = ivy::Json::MakeInt(static_cast<int64_t>(baseline_ms * 1000));
  t["disabled_us"] = ivy::Json::MakeInt(static_cast<int64_t>(disabled_ms * 1000));
  t["enabled_us"] = ivy::Json::MakeInt(static_cast<int64_t>(enabled_ms * 1000));
  t["disabled_overhead_pct"] = ivy::Json::MakeDouble(disabled_pct);
  t["enabled_overhead_pct"] = ivy::Json::MakeDouble(enabled_pct);
  std::fprintf(stderr,
               "tracing overhead: baseline=%.1fms disabled=%.1fms (%+.2f%%) "
               "enabled=%.1fms (%+.2f%%)\n",
               baseline_ms, disabled_ms, disabled_pct, enabled_ms, enabled_pct);
  return t;
}

// The "frontend" section of BENCH_pipeline.json: parse/sema wall time, AST
// footprint, the fingerprint cost of one module (the layer ivybench replays
// as analysis.fingerprint_ms), and the process peak RSS.
ivy::Json FrontendBenchJson() {
  std::vector<ivy::ModuleSources> corpus = SessionCorpus();
  auto lexed = LexCorpus(corpus);

  FrontendTiming arena;
  for (int i = 0; i < 5; ++i) {
    FrontendTiming t = FrontendPass(lexed);
    if (i == 0 || t.parse_ms + t.sema_ms < arena.parse_ms + arena.sema_ms) {
      arena = t;
    }
  }
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  const int64_t peak_rss = static_cast<int64_t>(ru.ru_maxrss) * 1024;

  // Fingerprint cost over one compiled module.
  ivy::Pipeline pipeline = SessionPipeline().Build();
  auto comp = pipeline.Compile(corpus[3].files);
  if (!comp->ok) {
    std::abort();
  }
  uint64_t fp_sink = 0;
  double fingerprint_ms = MinMs([&comp, &fp_sink] {
    for (const ivy::FuncDecl* fn : comp->prog.funcs) {
      if (fn->body != nullptr) {
        fp_sink ^= ivy::FingerprintFunction(comp->prog, fn);
      }
    }
  });
  benchmark::DoNotOptimize(fp_sink);

  ivy::Json j = ivy::Json::MakeObject();
  j["parse_us"] = ivy::Json::MakeInt(static_cast<int64_t>(arena.parse_ms * 1000));
  j["sema_us"] = ivy::Json::MakeInt(static_cast<int64_t>(arena.sema_ms * 1000));
  j["arena_bytes"] = ivy::Json::MakeInt(static_cast<int64_t>(arena.ast_bytes));
  j["fingerprint_us"] = ivy::Json::MakeInt(static_cast<int64_t>(fingerprint_ms * 1000));
  j["peak_rss_bytes"] = ivy::Json::MakeInt(peak_rss);
  std::fprintf(stderr,
               "frontend: parse+sema=%.1fms arena_bytes=%zu fingerprint=%.2fms "
               "peak_rss=%lld\n",
               arena.parse_ms + arena.sema_ms, arena.ast_bytes, fingerprint_ms,
               static_cast<long long>(peak_rss));
  return j;
}

void WriteBenchPipelineJson() {
  const char* out_path = std::getenv("BENCH_PIPELINE_OUT");
  if (out_path == nullptr || out_path[0] == '\0') {
    return;  // interactive run: skip the corpus workload
  }
  // Frontend first: ru_maxrss is a process-lifetime high-water mark, so the
  // frontend's own peak is only visible before the session workloads below
  // raise it past anything parse+sema touches.
  ivy::Json frontend_j = FrontendBenchJson();

  // A one-function edit, then RunLinked() — what annod does for each edit:
  // one primed session, two definitions alternating so every timed run
  // re-analyzes the corpus.
  ivy::PipelineBuilder edit_b = SessionPipeline();
  edit_b.ForEachModule(SessionCorpus());
  ivy::AnalysisSession edit_session = edit_b.BuildSession();
  edit_session.RunLinked();
  const std::string edit_fn = ivy::SynthFuncName("mod_03_", 5);
  bool edit_flip = false;
  double edit_rerun_ms = MedianMs(
      [&edit_session, &edit_fn, &edit_flip] {
        edit_flip = !edit_flip;
        std::string def = "void " + edit_fn + "(int n) {\n  int pad[16]; pad[0] = n;\n  " +
                          (edit_flip ? "msleep(n)" : "udelay(1)") + ";\n}\n";
        if (!edit_session.ReplaceFunction("mod_03", edit_fn, def)) {
          std::fprintf(stderr, "FATAL: BENCH_pipeline edit did not apply\n");
          std::abort();
        }
        benchmark::DoNotOptimize(edit_session.RunLinked().findings.size());
      },
      4);

  ivy::Json j = ivy::Json::MakeObject();
  ivy::Json corpus_j = ivy::Json::MakeObject();
  corpus_j["modules"] = ivy::Json::MakeInt(kCorpusModules);
  corpus_j["functions_per_module"] = ivy::Json::MakeInt(kCorpusFunctions);
  j["corpus"] = std::move(corpus_j);
  j["edit_rerun_session_us"] = ivy::Json::MakeInt(static_cast<int64_t>(edit_rerun_ms * 1000));

  // Linked corpus: linked vs merged-source wall time, and the relink after
  // one edit. The canonical finding sets (rendered locations, module stamps
  // stripped, sorted) must match between the link stage and the merged
  // program — a faster but diverging link stage must never post a winning
  // time. The link is one corpus run: one round that analyzes every module.
  // The time ratios are printed, not gated: timing gates flake on shared
  // machines.
  std::vector<ivy::ModuleSources> linked_corpus = LinkedBenchCorpus();
  ivy::PipelineBuilder linked_b = LinkedSessionPipeline();
  linked_b.ForEachModule(linked_corpus);
  ivy::AnalysisSession linked_session = linked_b.BuildSession();
  ivy::SessionResult linked_result;
  double linked_ms = MedianMs(
      [&linked_corpus, &linked_result] {
        ivy::PipelineBuilder b = LinkedSessionPipeline();
        b.ForEachModule(linked_corpus);
        ivy::AnalysisSession fresh = b.BuildSession();
        linked_result = fresh.RunLinked();
        benchmark::DoNotOptimize(linked_result.findings.size());
      },
      3);
  linked_result = linked_session.RunLinked();
  int linked_rounds = linked_session.link_stats().rounds;
  if (linked_rounds != 1 ||
      linked_session.link_stats().module_analyses != static_cast<int>(linked_corpus.size())) {
    std::fprintf(stderr, "FATAL: cold link took %d rounds and %d module analyses (want 1, %zu)\n",
                 linked_rounds, linked_session.link_stats().module_analyses,
                 linked_corpus.size());
    std::abort();
  }

  ivy::Pipeline merged_p = LinkedSessionPipeline().Build();
  std::vector<ivy::SourceFile> merged_files = ivy::MergedLinkedSources(linked_corpus);
  ivy::PipelineRun merged_run;
  double merged_ms = MedianMs(
      [&merged_p, &merged_files, &merged_run] {
        merged_run = merged_p.CompileAndRun(merged_files);
        benchmark::DoNotOptimize(merged_run.result.findings.size());
      },
      3);
  if (merged_run.comp == nullptr || !merged_run.comp->ok) {
    std::fprintf(stderr, "FATAL: merged linked corpus failed to compile\n");
    std::abort();
  }
  std::vector<std::string> linked_canon;
  for (const ivy::ModuleRunResult& mr : linked_result.modules) {
    const ivy::Compilation* comp = linked_session.CompilationFor(mr.module);
    for (const ivy::Finding& f : mr.result.findings) {
      linked_canon.push_back(f.ToString(comp != nullptr ? &comp->sm : nullptr));
    }
  }
  std::vector<std::string> merged_canon;
  for (const ivy::Finding& f : merged_run.result.findings) {
    merged_canon.push_back(f.ToString(&merged_run.comp->sm));
  }
  std::sort(linked_canon.begin(), linked_canon.end());
  std::sort(merged_canon.begin(), merged_canon.end());
  if (linked_canon != merged_canon) {
    std::fprintf(stderr, "FATAL: linked findings diverge from merged source\n");
    std::abort();
  }

  // Relink after one edit.
  const std::string linked_fn = ivy::SynthFuncName(ivy::LinkedModulePrefix(1), 5);
  bool relink_flip = false;
  double relink_ms = MedianMs(
      [&linked_session, &linked_fn, &relink_flip] {
        std::string def = "void " + linked_fn + "(int n) {\n  int pad[8]; pad[0] = n;\n  " +
                          (relink_flip ? "msleep(n)" : "udelay(1)") + ";\n}\n";
        relink_flip = !relink_flip;
        if (!linked_session.ReplaceFunction("mod_01", linked_fn, def)) {
          std::fprintf(stderr, "FATAL: linked bench edit did not apply\n");
          std::abort();
        }
        benchmark::DoNotOptimize(linked_session.RunLinked().findings.size());
      },
      3);

  ivy::Json linked_j = ivy::Json::MakeObject();
  linked_j["modules"] = ivy::Json::MakeInt(static_cast<int64_t>(linked_corpus.size()));
  linked_j["rounds_to_converge"] = ivy::Json::MakeInt(linked_rounds);
  linked_j["linked_us"] = ivy::Json::MakeInt(static_cast<int64_t>(linked_ms * 1000));
  linked_j["merged_source_us"] = ivy::Json::MakeInt(static_cast<int64_t>(merged_ms * 1000));
  linked_j["relink_after_edit_us"] = ivy::Json::MakeInt(static_cast<int64_t>(relink_ms * 1000));
  linked_j["identical_to_merged"] = ivy::Json::MakeBool(true);
  j["linked"] = std::move(linked_j);
  j["frontend"] = std::move(frontend_j);
  j["server"] = ServerBenchJson();
  j["store"] = StoreBenchJson(out_path);
  j["vm"] = VmBenchJson();
  j["tracing"] = TracingOverheadJson();

  std::string path = out_path;
  std::ofstream out(path);
  out << j.Dump() << "\n";

  // Also drop a copy at the repo root (found by walking up to ROADMAP.md) so
  // the checked-in BENCH_pipeline.json stays refreshable with one run and CI
  // can upload it from a fixed path regardless of the build directory.
  std::string dir = ".";
  for (int depth = 0; depth < 8; ++depth) {
    std::ifstream probe(dir + "/ROADMAP.md");
    if (probe.good()) {
      const std::string root_copy = dir + "/BENCH_pipeline.json";
      if (root_copy != path) {
        std::ofstream rc(root_copy);
        rc << j.Dump() << "\n";
      }
      break;
    }
    dir += "/..";
  }

  std::fprintf(stderr,
               "BENCH_pipeline.json: edit_rerun=%.1fms linked=%.1fms (%d rounds) merged=%.1fms "
               "relink=%.1fms linked/merged=%.2f relink/merged=%.2f -> %s\n",
               edit_rerun_ms, linked_ms, linked_rounds, merged_ms, relink_ms,
               linked_ms / merged_ms, relink_ms / merged_ms, path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  WriteBenchPipelineJson();
  return 0;
}
