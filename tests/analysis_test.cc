// Points-to and call-graph tests (§2.3's analysis substrate).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/analysis/callgraph.h"
#include "src/analysis/pointsto.h"
#include "src/driver/compiler.h"
#include "src/kernel/corpus.h"
#include "src/tool/analysis_context.h"
#include "src/tool/pipeline.h"
#include "tests/synth_corpus.h"

namespace ivy {
namespace {

// Finds the single indirect call expression inside `fn` and returns its
// resolved target names.
std::vector<std::string> TargetNames(const Compilation& comp, const PointsTo& pt,
                                     const std::string& fn_name) {
  CallGraph cg = CallGraph::Build(comp.prog, *comp.sema, pt);
  const FuncDecl* fn = comp.sema->func_map().at(fn_name);
  std::vector<std::string> names;
  for (const CallSite& site : cg.SitesOf(fn)) {
    if (site.direct != nullptr) {
      continue;
    }
    for (const FuncDecl* t : cg.Targets(site)) {
      names.push_back(t->name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

const char* kDispatchProgram = R"(
  typedef int op_fn(int x);
  struct ops { op_fn* opt first; op_fn* opt second; };
  struct ops table;
  int double_it(int x) { return x * 2; }
  int triple_it(int x) { return x * 3; }
  int unrelated(int x) { return x; }
  void init(void) {
    table.first = double_it;
    table.second = triple_it;
  }
  int call_first(int x) {
    op_fn* opt f = table.first;
    if (f) { return f(x); }
    return 0;
  }
  int main(void) { init(); return call_first(4); }
)";

TEST(PointsTo, FieldSensitiveSeparatesSlots) {
  auto comp = CompileOne(kDispatchProgram, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  PointsTo pt(&comp->prog, comp->sema.get(), /*field_sensitive=*/true);
  pt.Solve();
  std::vector<std::string> names = TargetNames(*comp, pt, "call_first");
  EXPECT_EQ(names, std::vector<std::string>({"double_it"}));
}

TEST(PointsTo, FieldInsensitiveMergesSlots) {
  auto comp = CompileOne(kDispatchProgram, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  PointsTo pt(&comp->prog, comp->sema.get(), /*field_sensitive=*/false);
  pt.Solve();
  std::vector<std::string> names = TargetNames(*comp, pt, "call_first");
  // Both slots merge into one cell: the imprecision behind the paper's FPs.
  EXPECT_EQ(names, std::vector<std::string>({"double_it", "triple_it"}));
}

TEST(PointsTo, FlowsThroughLocalsAndParams) {
  const char* src = R"(
    typedef int op_fn(int x);
    int inc(int x) { return x + 1; }
    int apply(op_fn* f, int x) { return f(x); }
    int main(void) {
      op_fn* g = inc;
      return apply(g, 1);
    }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  PointsTo pt(&comp->prog, comp->sema.get(), true);
  pt.Solve();
  EXPECT_EQ(TargetNames(*comp, pt, "apply"), std::vector<std::string>({"inc"}));
  // Soundness: the VM must agree the call works.
  auto vm = MakeVm(*comp);
  EXPECT_EQ(vm->Call("main").value, 2);
}

TEST(PointsTo, FlowsThroughReturnsAndConditionals) {
  const char* src = R"(
    typedef int op_fn(int x);
    int a_fn(int x) { return 1; }
    int b_fn(int x) { return 2; }
    op_fn* pick(int which) { return which ? a_fn : b_fn; }
    int run(int which) {
      op_fn* f = pick(which);
      return f(0);
    }
    int main(void) { return run(1) * 10 + run(0); }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  PointsTo pt(&comp->prog, comp->sema.get(), true);
  pt.Solve();
  EXPECT_EQ(TargetNames(*comp, pt, "run"), std::vector<std::string>({"a_fn", "b_fn"}));
  auto vm = MakeVm(*comp);
  EXPECT_EQ(vm->Call("main").value, 12);
}

TEST(PointsTo, ArrayTablesCollapse) {
  const char* src = R"(
    typedef int op_fn(int x);
    op_fn* opt table[4];
    int one(int x) { return 1; }
    int two(int x) { return 2; }
    void init(void) { table[0] = one; table[1] = two; }
    int dispatch(int i) {
      op_fn* opt f = table[i];
      if (f) { return f(0); }
      return -1;
    }
    int main(void) { init(); return dispatch(1); }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  PointsTo pt(&comp->prog, comp->sema.get(), true);
  pt.Solve();
  EXPECT_EQ(TargetNames(*comp, pt, "dispatch"), std::vector<std::string>({"one", "two"}));
}

TEST(PointsTo, SoundnessAgainstVm) {
  // Whatever function the VM actually calls must be in the points-to set.
  auto comp = CompileOne(kDispatchProgram, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  PointsTo pt(&comp->prog, comp->sema.get(), true);
  pt.Solve();
  auto vm = MakeVm(*comp);
  VmResult r = vm->Call("main");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 8);  // double_it(4) — and double_it is the resolved target
}

TEST(CallGraph, DirectAndBuiltinEdges) {
  const char* src = R"(
    void leaf(void) { }
    void mid(void) { leaf(); kfree(null); }
    int main(void) { mid(); return 0; }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  PointsTo pt(&comp->prog, comp->sema.get(), true);
  pt.Solve();
  CallGraph cg = CallGraph::Build(comp->prog, *comp->sema, pt);
  const FuncDecl* mid = comp->sema->func_map().at("mid");
  const auto& sites = cg.SitesOf(mid);
  ASSERT_EQ(sites.size(), 2u);
  int direct = 0;
  int builtin = 0;
  for (const CallSite& s : sites) {
    direct += s.direct != nullptr;
    builtin += s.builtin != nullptr;
  }
  EXPECT_EQ(direct, 1);
  EXPECT_EQ(builtin, 1);
  EXPECT_EQ(cg.Callees(mid).size(), 1u);
}

TEST(CallGraph, TriggerIrqTargetsBecomeIrqEntries) {
  const char* src = R"(
    typedef void irq_fn(int x);
    int hits;
    void my_handler(int x) { hits = hits + x; }
    int main(void) {
      trigger_irq(my_handler, 5);
      return hits;
    }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  PointsTo pt(&comp->prog, comp->sema.get(), true);
  pt.Solve();
  CallGraph cg = CallGraph::Build(comp->prog, *comp->sema, pt);
  bool found = false;
  for (const FuncDecl* fn : cg.irq_entries()) {
    if (fn->name == "my_handler") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  auto vm = MakeVm(*comp);
  EXPECT_EQ(vm->Call("main").value, 5);
}

// The dense tables against a naive recomputation from SitesOf() and
// Targets(): unique callees in first-site order, deduplicated callers in
// DefinedFuncs() order, irq entries in DefinedFuncs() order.
void ExpectTablesMatchSites(Compilation* comp, const std::string& what) {
  AnalysisContext ctx(comp);
  const CallGraph& cg = ctx.callgraph();
  auto vec = [](Slice<const FuncDecl*> s) {
    return std::vector<const FuncDecl*>(s.begin(), s.end());
  };
  std::map<const FuncDecl*, std::vector<const FuncDecl*>> callers;
  std::set<const FuncDecl*> irq;
  int dispatches = 0;
  for (const FuncDecl* fn : cg.DefinedFuncs()) {
    if (fn->attrs.interrupt_handler) {
      irq.insert(fn);
    }
    std::vector<const FuncDecl*> callees;
    for (const CallSite& site : cg.SitesOf(fn)) {
      if (site.direct != nullptr) {
        EXPECT_EQ(vec(cg.Targets(site)), std::vector<const FuncDecl*>{site.direct}) << what;
      }
      dispatches += site.is_irq_dispatch;
      for (const FuncDecl* t : cg.Targets(site)) {
        if (std::find(callees.begin(), callees.end(), t) == callees.end()) {
          callees.push_back(t);
        }
        std::vector<const FuncDecl*>& in = callers[t];
        if (in.empty() || in.back() != fn) {
          in.push_back(fn);
        }
        if (site.is_irq_dispatch) {
          irq.insert(t);
        }
      }
    }
    EXPECT_EQ(vec(cg.Callees(fn)), callees) << what << ": " << fn->name;
    if (cg.SitesOf(fn).empty()) {
      EXPECT_TRUE(cg.Callees(fn).empty()) << what << ": " << fn->name;
    }
  }
  for (const auto& [callee, in] : callers) {
    EXPECT_EQ(vec(cg.CallersOf(callee)), in) << what << ": " << callee->name;
  }
  std::vector<const FuncDecl*> entries;
  for (const FuncDecl* fn : cg.DefinedFuncs()) {
    if (irq.count(fn) != 0) {
      entries.push_back(fn);
    }
    if (callers.count(fn) == 0) {
      EXPECT_TRUE(cg.CallersOf(fn).empty()) << what << ": " << fn->name;
    }
  }
  EXPECT_EQ(cg.irq_entries(), entries) << what;
  EXPECT_FALSE(entries.empty()) << what;
  // A function with no body has no sites and no callees.
  for (const FuncDecl* fn : comp->prog.funcs) {
    if (fn->body == nullptr) {
      EXPECT_TRUE(cg.SitesOf(fn).empty()) << what << ": " << fn->name;
      EXPECT_TRUE(cg.Callees(fn).empty()) << what << ": " << fn->name;
    }
  }
  if (what == "kernel") {
    EXPECT_GT(dispatches, 0);  // trigger_irq targets are covered too
  }
}

TEST(CallGraph, DenseTablesMatchSitesOnSeededCorpora) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    LinkedCorpusOptions opt;
    opt.modules = 4;
    opt.functions = 40;
    opt.seed = seed;
    opt.hook_tables = seed == 42 ? 2 : 0;
    auto comp = PipelineBuilder().Build().Compile(MergedLinkedSources(GenerateLinkedCorpus(opt)));
    ASSERT_TRUE(comp->ok) << "seed " << seed << ": " << comp->Errors();
    ExpectTablesMatchSites(comp.get(), "seed " + std::to_string(seed));
  }
  auto kernel = CompileKernel(ToolConfig{});
  ASSERT_TRUE(kernel->ok);
  ExpectTablesMatchSites(kernel.get(), "kernel");
}

TEST(CallGraph, KernelCorpusScale) {
  auto comp = Compile({}, ToolConfig{});
  ASSERT_TRUE(comp->ok);
}

}  // namespace
}  // namespace ivy
