// Arena-backed AST invariants: slab layout, per-function id spans, string
// interning, the linear-slab fingerprint (content hashes rather than intern
// ids, location insensitivity), and parse-error robustness (leak-freedom is by
// construction — POD nodes in an arena — so the fuzz loop here runs under
// the sanitizer jobs to prove no error path crashes or double-builds).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/fingerprint.h"
#include "src/tool/pipeline.h"
#include "src/tool/session.h"
#include "tests/synth_corpus.h"

namespace ivy {
namespace {

std::unique_ptr<Compilation> Compile(const std::string& text, FrontendCache* cache = nullptr) {
  return PipelineBuilder().Build().Compile({SourceFile{"t.mc", text}}, cache);
}

std::unique_ptr<Compilation> CompileOk(const std::string& text, FrontendCache* cache = nullptr) {
  auto comp = Compile(text, cache);
  EXPECT_TRUE(comp->ok) << comp->Errors();
  return comp;
}

constexpr const char* kSample = R"(
struct buf { int len; char* count(len) data; };
int g_total;
int helper(int n) { return n + 1; }
void work(struct buf* b, int n) {
  int i;
  int acc;
  acc = 0;
  for (i = 0; i < n; i = i + 1) {
    if (b->len > i) {
      acc = acc + helper(i);
    }
  }
  g_total = acc;
}
)";

// Every node reachable from a function body carries an id inside that
// function's slab span, link fields point at allocated nodes, and the
// pointer stored at ExprAt(id) is the node itself (slab addresses are
// stable).
TEST(AstArena, SpansCoverReachableNodes) {
  auto comp = CompileOk(kSample);
  const Program& prog = comp->prog;
  for (const FuncDecl* fn : prog.funcs) {
    if (fn->body == nullptr) {
      continue;
    }
    ASSERT_LE(fn->expr_begin, fn->expr_end);
    ASSERT_LE(fn->expr_end, static_cast<uint32_t>(prog.expr_count()));
    ASSERT_LE(fn->stmt_begin, fn->stmt_end);
    ASSERT_LE(fn->stmt_end, static_cast<uint32_t>(prog.stmt_count()));
    ASSERT_LE(fn->decl_begin, fn->decl_end);
    ASSERT_LE(fn->decl_end, static_cast<uint32_t>(prog.decl_count()));
    EXPECT_GE(fn->body->id, fn->stmt_begin);
    EXPECT_LT(fn->body->id, fn->stmt_end);
    for (uint32_t i = fn->expr_begin; i < fn->expr_end; ++i) {
      const Expr* e = prog.ExprAt(ExprId{i});
      ASSERT_EQ(e->id, i);  // slab address <-> id round trip
      EXPECT_TRUE(e->loc.IsValid());
      EXPECT_GE(e->loc.line, 1);
      // Links stay inside the same function's span (acyclicity follows:
      // every edge goes to a node with a distinct id in a finite range,
      // checked structurally below).
      for (const Expr* child : {e->a, e->b, e->c}) {
        if (child != nullptr) {
          EXPECT_GE(child->id, fn->expr_begin);
          EXPECT_LT(child->id, fn->expr_end);
          EXPECT_NE(child, e);
        }
      }
      for (const Expr* arg : e->args) {
        ASSERT_NE(arg, nullptr);
        EXPECT_GE(arg->id, fn->expr_begin);
        EXPECT_LT(arg->id, fn->expr_end);
      }
    }
    for (uint32_t i = fn->stmt_begin; i < fn->stmt_end; ++i) {
      const Stmt* s = prog.StmtAt(StmtId{i});
      ASSERT_EQ(s->id, i);
      EXPECT_TRUE(s->loc.IsValid());
      for (const Stmt* child : {s->init, s->then_stmt, s->else_stmt}) {
        if (child != nullptr) {
          EXPECT_GE(child->id, fn->stmt_begin);
          EXPECT_LT(child->id, fn->stmt_end);
          EXPECT_NE(child, s);
        }
      }
      for (const Stmt* child : s->body) {
        ASSERT_NE(child, nullptr);
        EXPECT_NE(child, s);
      }
    }
  }
}

// The AST is a forest over the slabs: walking every function's body visits
// each statement at most once (no sharing, no cycles).
TEST(AstArena, BodyWalkIsAcyclic) {
  auto comp = CompileOk(kSample);
  std::set<const Stmt*> visited;
  std::vector<const Stmt*> stack;
  for (const FuncDecl* fn : comp->prog.funcs) {
    if (fn->body != nullptr) {
      stack.push_back(fn->body);
    }
  }
  while (!stack.empty()) {
    const Stmt* s = stack.back();
    stack.pop_back();
    ASSERT_TRUE(visited.insert(s).second) << "statement reached twice";
    for (const Stmt* child : {s->init, s->then_stmt, s->else_stmt}) {
      if (child != nullptr) {
        stack.push_back(child);
      }
    }
    for (const Stmt* child : s->body) {
      stack.push_back(child);
    }
  }
}

// Arena-mode interning deduplicates: every occurrence of one spelling gets
// the same id, and the cached content hash matches a fresh computation.
TEST(AstArena, InterningDeduplicates) {
  auto comp = CompileOk(kSample);
  const Program& prog = comp->prog;
  std::map<std::string, uint32_t> id_of;
  int idents = 0;
  for (uint32_t i = 0; i < prog.expr_count(); ++i) {
    const Expr* e = prog.ExprAt(ExprId{i});
    if (e->kind != ExprKind::kIdent || e->str_id == kNoStr) {
      continue;
    }
    ++idents;
    auto [it, fresh] = id_of.emplace(std::string(e->str_val), e->str_id);
    EXPECT_EQ(it->second, e->str_id) << "same spelling, different intern id";
    EXPECT_EQ(prog.StrHash(e->str_id), StrContentHash(e->str_val));
  }
  EXPECT_GT(idents, static_cast<int>(id_of.size()));  // dedup actually fired
}

// Fingerprints mix string content hashes, never intern ids. Seeding the
// interner with an unrelated module's strings shifts every id the source's
// own spellings get, yet the fingerprints (full, signature, preamble) and
// referenced-name sets must match an unseeded compile exactly.
TEST(AstArena, FingerprintsIgnoreInternIds) {
  SynthCorpusOptions opt;
  opt.functions = 40;
  opt.seed = 99;
  const std::string text = GenerateSynthCorpus(opt);
  SynthCorpusOptions other_opt;
  other_opt.functions = 25;
  other_opt.seed = 5;
  auto other = CompileOk("int zz_unrelated(int q) { return q; }\n" +
                         GenerateSynthCorpus(other_opt));
  FrontendCache cache;
  cache.prelude_interns = other->prog.interner().Snapshot();

  auto plain = CompileOk(text);
  auto seeded = CompileOk(text, &cache);
  ASSERT_EQ(cache.intern_seeds, 1);
  EXPECT_EQ(FingerprintPreamble(plain->prog), FingerprintPreamble(seeded->prog));
  // Seeding allocates no nodes, so expression ids line up one to one.
  ASSERT_EQ(plain->prog.expr_count(), seeded->prog.expr_count());
  int shifted_ids = 0;
  for (uint32_t i = 0; i < plain->prog.expr_count(); ++i) {
    const Expr* ep = plain->prog.ExprAt(ExprId{i});
    const Expr* es = seeded->prog.ExprAt(ExprId{i});
    ASSERT_EQ(ep->str_val, es->str_val);
    shifted_ids += ep->str_id != es->str_id;
  }
  EXPECT_GT(shifted_ids, 0) << "seeding did not change any intern id";
  ASSERT_EQ(plain->prog.funcs.size(), seeded->prog.funcs.size());
  for (size_t i = 0; i < plain->prog.funcs.size(); ++i) {
    const FuncDecl* fp = plain->prog.funcs[i];
    const FuncDecl* fs = seeded->prog.funcs[i];
    ASSERT_EQ(fp->name, fs->name);
    if (fp->body == nullptr) {
      continue;
    }
    FunctionFingerprint a = FingerprintFunctionFull(plain->prog, fp);
    FunctionFingerprint b = FingerprintFunctionFull(seeded->prog, fs);
    EXPECT_EQ(a.full, b.full) << fp->name;
    EXPECT_EQ(a.sig, b.sig) << fp->name;
    EXPECT_EQ(a.refs, b.refs) << fp->name;
  }
}

// Relative-id mixing makes the fingerprint independent of where a function
// sits in the module: shifting a function down the slabs (by adding code
// before it) must not change its fingerprint.
TEST(AstArena, FingerprintIgnoresSlabPosition) {
  const std::string fn_def = "int stable(int n) { return n * 2 + 1; }\n";
  auto base = CompileOk(fn_def);
  auto shifted = CompileOk(
      "void filler(int n) { int x; x = n + 3; g_pad = x; }\nint g_pad;\n" + fn_def);
  const FuncDecl* f1 = base->prog.FindFunc("stable");
  const FuncDecl* f2 = shifted->prog.FindFunc("stable");
  ASSERT_NE(f1, nullptr);
  ASSERT_NE(f2, nullptr);
  EXPECT_NE(f1->expr_begin, f2->expr_begin);  // it really did move
  EXPECT_EQ(FingerprintFunction(base->prog, f1), FingerprintFunction(shifted->prog, f2));
}

// ReplaceFunction splices a new definition into a live session: the edited
// function's fingerprint changes, untouched functions keep theirs, and the
// re-analysis matches a cold session over the edited source.
TEST(AstArena, ReplaceFunctionSplicesAndRefingerprints) {
  SynthCorpusOptions opt;
  opt.functions = 30;
  opt.seed = 7;
  const std::string text = GenerateSynthCorpus(opt);
  const std::string target = SynthFuncName(5);
  const std::string new_def =
      "void " + target + "(int n) {\n  int pad[8]; pad[0] = n;\n  msleep(n);\n}\n";

  PipelineBuilder b;
  b.Tool("blockstop").Tool("stackcheck");
  b.ForEachModule({{"m", {SourceFile{"m.mc", text}}}});
  AnalysisSession session = b.BuildSession();
  session.Run();

  const Compilation* before = session.CompilationFor("m");
  ASSERT_NE(before, nullptr);
  const FuncDecl* fn_before = before->prog.FindFunc(target);
  ASSERT_NE(fn_before, nullptr);
  const uint64_t fp_before = FingerprintFunction(before->prog, fn_before);
  const FuncDecl* other_before = before->prog.FindFunc(SynthFuncName(9));
  ASSERT_NE(other_before, nullptr);
  const uint64_t fp_other = FingerprintFunction(before->prog, other_before);

  ASSERT_TRUE(session.ReplaceFunction("m", target, new_def));
  SessionResult warm = session.Run();

  const Compilation* after = session.CompilationFor("m");
  ASSERT_NE(after, nullptr);
  const FuncDecl* fn_after = after->prog.FindFunc(target);
  ASSERT_NE(fn_after, nullptr);
  EXPECT_NE(FingerprintFunction(after->prog, fn_after), fp_before);
  const FuncDecl* other_after = after->prog.FindFunc(SynthFuncName(9));
  ASSERT_NE(other_after, nullptr);
  EXPECT_EQ(FingerprintFunction(after->prog, other_after), fp_other);

  // Cold reference: a fresh session over the already-edited source.
  size_t pos = text.find("void " + target + "(int n)");
  ASSERT_NE(pos, std::string::npos);
  size_t end = text.find("\n}\n", pos);
  ASSERT_NE(end, std::string::npos);
  std::string edited = text.substr(0, pos) + new_def + text.substr(end + 3);
  PipelineBuilder cb;
  cb.Tool("blockstop").Tool("stackcheck");
  cb.ForEachModule({{"m", {SourceFile{"m.mc", edited}}}});
  AnalysisSession cold = cb.BuildSession();
  SessionResult cold_result = cold.Run();
  ASSERT_EQ(warm.findings.size(), cold_result.findings.size());
  for (size_t i = 0; i < warm.findings.size(); ++i) {
    EXPECT_EQ(warm.findings[i].ToString(), cold_result.findings[i].ToString());
  }
}

// Prelude intern sharing: the second module compiled against one
// FrontendCache seeds its interner from the first module's snapshot, and
// fingerprints match an unshared compile exactly.
TEST(AstArena, PreludeInternSnapshotSharing) {
  PipelineBuilder b;
  Pipeline p = b.Build();
  FrontendCache cache;
  const std::string text = "int f(int n) { return n + 41; }\n";
  auto first = p.Compile({SourceFile{"a.mc", text}}, &cache);
  ASSERT_TRUE(first->ok) << first->Errors();
  ASSERT_NE(cache.prelude_interns, nullptr);
  EXPECT_EQ(cache.intern_seeds, 0);
  auto second = p.Compile({SourceFile{"b.mc", text}}, &cache);
  ASSERT_TRUE(second->ok) << second->Errors();
  EXPECT_EQ(cache.intern_seeds, 1);
  auto lone = p.Compile({SourceFile{"c.mc", text}});
  ASSERT_TRUE(lone->ok);
  const FuncDecl* fs = second->prog.FindFunc("f");
  const FuncDecl* fl = lone->prog.FindFunc("f");
  ASSERT_NE(fs, nullptr);
  ASSERT_NE(fl, nullptr);
  EXPECT_EQ(FingerprintFunction(second->prog, fs), FingerprintFunction(lone->prog, fl));
  EXPECT_EQ(FingerprintPreamble(second->prog), FingerprintPreamble(lone->prog));
}

// Parse-error fuzz: random truncations and byte mutations of a valid module
// must never crash the frontend (POD arena nodes make error-path leaks
// impossible by construction; sanitizer CI jobs run this same loop), and
// diagnostics must be deterministic — the same broken input renders the
// same errors twice.
TEST(AstArena, ParseErrorFuzzIsCrashFreeAndDeterministic) {
  SynthCorpusOptions opt;
  opt.functions = 12;
  opt.seed = 3;
  const std::string base = GenerateSynthCorpus(opt);
  uint64_t rng = 0x9e3779b97f4a7c15ULL;  // fixed seed: failures must replay
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const char kJunk[] = "({)}*;&b0\"'";
  for (int round = 0; round < 60; ++round) {
    std::string text = base;
    if (round % 2 == 0) {
      text.resize(next() % text.size());  // truncation
    } else {
      for (int m = 0; m < 4; ++m) {  // scattered mutations
        text[next() % text.size()] = kJunk[next() % (sizeof(kJunk) - 1)];
      }
    }
    auto one = Compile(text);
    auto two = Compile(text);
    EXPECT_EQ(one->Errors(), two->Errors()) << "diagnostics not deterministic";
  }
}

}  // namespace
}  // namespace ivy
