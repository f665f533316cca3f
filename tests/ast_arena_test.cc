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
#include "src/kernel/prelude.h"
#include "src/mc/lexer.h"
#include "src/mc/parser.h"
#include "src/mc/sema.h"
#include "src/tool/pipeline.h"
#include "src/tool/session.h"
#include "src/vm/builtins.h"
#include "tests/synth_corpus.h"

namespace ivy {
namespace {

std::unique_ptr<Compilation> Compile(const std::string& text) {
  return PipelineBuilder().Build().Compile({SourceFile{"t.mc", text}});
}

std::unique_ptr<Compilation> CompileOk(const std::string& text) {
  auto comp = Compile(text);
  EXPECT_TRUE(comp->ok) << comp->Errors();
  return comp;
}

// The frontend up to sema (prelude, then `text`) into a Program whose
// interner already holds `interned`: every spelling the source adds gets a
// different id than it would in an empty interner.
std::unique_ptr<Compilation> ParseAfterInterning(const std::string& text,
                                                 const std::vector<std::string>& interned) {
  auto comp = std::make_unique<Compilation>();
  comp->diags = std::make_unique<DiagEngine>(&comp->sm);
  for (const std::string& str : interned) {
    comp->prog.Intern(str);
  }
  for (const SourceFile& file : {SourceFile{"<prelude>", PreludeSource()}, SourceFile{"t.mc", text}}) {
    const int32_t id = comp->sm.AddFile(file.name, file.text);
    Parser parser(&comp->prog, Lexer(comp->sm, id, comp->diags.get()).Lex(), comp->diags.get());
    parser.ParseTranslationUnit();
  }
  comp->sema = std::make_unique<Sema>(&comp->prog, comp->diags.get(), [](const std::string& name) {
    return BuiltinIdForName(name);
  });
  comp->ok = comp->sema->Run() && comp->diags->ok();
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

// Fingerprints mix string content hashes, never intern ids. Interning
// unrelated strings (and some of the source's own names, in another order)
// before the parse shifts every id the source's spellings get, yet the
// fingerprints (full, signature, preamble) and referenced-name sets must
// match an unshifted parse exactly.
TEST(AstArena, FingerprintsIgnoreInternIds) {
  SynthCorpusOptions opt;
  opt.functions = 40;
  opt.seed = 99;
  const std::string text = GenerateSynthCorpus(opt);
  std::vector<std::string> unrelated = {"zz_unrelated", "q"};
  for (int i = 24; i >= 0; --i) {
    unrelated.push_back(SynthFuncName(i));
  }

  auto plain = ParseAfterInterning(text, {});
  auto seeded = ParseAfterInterning(text, unrelated);
  EXPECT_EQ(FingerprintPreamble(plain->prog), FingerprintPreamble(seeded->prog));
  // Interning allocates no nodes, so expression ids line up one to one.
  ASSERT_EQ(plain->prog.expr_count(), seeded->prog.expr_count());
  int shifted_ids = 0;
  for (uint32_t i = 0; i < plain->prog.expr_count(); ++i) {
    const Expr* ep = plain->prog.ExprAt(ExprId{i});
    const Expr* es = seeded->prog.ExprAt(ExprId{i});
    ASSERT_EQ(ep->str_val, es->str_val);
    shifted_ids += ep->str_id != es->str_id;
  }
  EXPECT_GT(shifted_ids, 0) << "interning first did not change any intern id";
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
// relink matches a cold session over the edited source.
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
  session.RunLinked();
  ASSERT_TRUE(session.ReplaceFunction("m", target, new_def));
  SessionResult warm = session.RunLinked();

  // The session's view holds the spliced source: exactly the hand edit.
  const Compilation* view = session.CompilationFor("m");
  ASSERT_NE(view, nullptr);
  ASSERT_EQ(view->sm.FileName(view->sm.file_count() - 1), "m.mc");
  const std::string spliced = view->sm.FileText(view->sm.file_count() - 1);
  size_t pos = text.find("void " + target + "(int n)");
  ASSERT_NE(pos, std::string::npos);
  size_t end = text.find("\n}\n", pos);
  ASSERT_NE(end, std::string::npos);
  const std::string edited = text.substr(0, pos) + new_def + text.substr(end + 3);
  EXPECT_EQ(spliced, edited);

  auto before = CompileOk(text);
  auto after = CompileOk(spliced);
  auto fingerprint = [](const Compilation& comp, const std::string& name) {
    const FuncDecl* fn = comp.prog.FindFunc(name);
    EXPECT_NE(fn, nullptr) << name;
    return fn == nullptr ? 0 : FingerprintFunction(comp.prog, fn);
  };
  EXPECT_NE(fingerprint(*after, target), fingerprint(*before, target));
  EXPECT_EQ(fingerprint(*after, SynthFuncName(9)), fingerprint(*before, SynthFuncName(9)));

  // Cold reference: a fresh session over the already-edited source.
  PipelineBuilder cb;
  cb.Tool("blockstop").Tool("stackcheck");
  cb.ForEachModule({{"m", {SourceFile{"m.mc", edited}}}});
  AnalysisSession cold = cb.BuildSession();
  SessionResult cold_result = cold.RunLinked();
  ASSERT_EQ(warm.findings.size(), cold_result.findings.size());
  for (size_t i = 0; i < warm.findings.size(); ++i) {
    EXPECT_EQ(warm.findings[i].ToString(), cold_result.findings[i].ToString());
  }
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
