// Semantic-analysis tests: layout rules, typing rules, scoping, and the
// Deputy-specific legality checks sema enforces before lowering.
#include <gtest/gtest.h>

#include "src/driver/compiler.h"

namespace ivy {
namespace {

std::unique_ptr<Compilation> Check(const std::string& src) {
  return CompileOne(src, ToolConfig{});
}

TEST(SemaLayout, StructOffsetsAndPadding) {
  auto comp = Check(R"(
    struct s { char a; int b; char c; char d; int e; };
    int main(void) { return sizeof(struct s); }
  )");
  ASSERT_TRUE(comp->ok) << comp->Errors();
  const RecordDecl* s = comp->prog.FindRecord("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->fields[0].offset, 0);   // a
  EXPECT_EQ(s->fields[1].offset, 8);   // b (int aligned)
  EXPECT_EQ(s->fields[2].offset, 16);  // c
  EXPECT_EQ(s->fields[3].offset, 17);  // d packs next to c
  EXPECT_EQ(s->fields[4].offset, 24);  // e re-aligned
  EXPECT_EQ(s->size, 32);
}

TEST(SemaLayout, UnionSizeIsMaxMember) {
  auto comp = Check(R"(
    struct holder {
      int tag;
      union { int big when(tag == 1); char small when(tag == 2); } u;
    };
    int main(void) { return sizeof(struct holder); }
  )");
  ASSERT_TRUE(comp->ok) << comp->Errors();
  EXPECT_EQ(comp->prog.FindRecord("holder")->size, 16);
}

TEST(SemaLayout, RecursiveValueFieldRejected) {
  auto comp = Check("struct s { struct s inner; };");
  EXPECT_FALSE(comp->ok);
  EXPECT_TRUE(comp->diags->Contains("recursively"));
}

TEST(SemaLayout, SelfPointerIsFine) {
  auto comp = Check(R"(
    struct node { struct node* opt next; int v; };
    int main(void) { return sizeof(struct node); }
  )");
  EXPECT_TRUE(comp->ok) << comp->Errors();
}

TEST(SemaTypes, ArithmeticOnPointersRules) {
  EXPECT_TRUE(Check(R"(
    int main(void) {
      int a[4];
      int* p = a;
      int* q = p + 2;
      return q - p;   // element difference
    }
  )")->ok);
  EXPECT_FALSE(Check(R"(
    int main(void) {
      int a[4];
      int* p = a;
      int* q = p * 2;  // multiplication of pointers is illegal
      return 0;
    }
  )")->ok);
}

TEST(SemaTypes, PointerDifferenceScales) {
  auto comp = Check(R"(
    int main(void) {
      int a[8];
      int* p = a;
      int* count(8) q = a;
      return (q + 6) - p;
    }
  )");
  ASSERT_TRUE(comp->ok) << comp->Errors();
  auto vm = MakeVm(*comp);
  EXPECT_EQ(vm->Call("main").value, 6);
}

TEST(SemaTypes, ArgumentCountMismatchRejected) {
  auto comp = Check(R"(
    int f(int a, int b) { return a + b; }
    int main(void) { return f(1); }
  )");
  EXPECT_FALSE(comp->ok);
  EXPECT_TRUE(comp->diags->Contains("arguments"));
}

TEST(SemaTypes, VarargsAllowsExtras) {
  auto comp = Check(R"(
    int main(void) { return printk("%d %d %d\n", 1, 2, 3); }
  )");
  EXPECT_TRUE(comp->ok) << comp->Errors();
}

TEST(SemaTypes, VoidDerefRejected) {
  auto comp = Check(R"(
    int main(void) {
      void* p = kmalloc(8, GFP_KERNEL);
      return *p;
    }
  )");
  EXPECT_FALSE(comp->ok);
}

TEST(SemaTypes, AssignToRValueRejected) {
  auto comp = Check("int main(void) { 1 + 2 = 3; return 0; }");
  EXPECT_FALSE(comp->ok);
  EXPECT_TRUE(comp->diags->Contains("lvalue"));
}

TEST(SemaTypes, ReturnTypeMismatchRejected) {
  auto comp = Check(R"(
    struct s { int x; };
    struct s g;
    int main(void) { return &g; }
  )");
  EXPECT_FALSE(comp->ok);
}

TEST(SemaTypes, VoidFunctionValueUseRejected) {
  auto comp = Check(R"(
    void nothing(void) { }
    int main(void) { return nothing() + 1; }
  )");
  EXPECT_FALSE(comp->ok);
}

TEST(SemaScopes, ShadowingAndBlockScopes) {
  auto comp = Check(R"(
    int x = 1;
    int main(void) {
      int x = 2;
      {
        int x = 3;
        if (x != 3) { return -1; }
      }
      return x;
    }
  )");
  ASSERT_TRUE(comp->ok) << comp->Errors();
  auto vm = MakeVm(*comp);
  EXPECT_EQ(vm->Call("main").value, 2);
}

TEST(SemaScopes, DuplicateLocalRejected) {
  auto comp = Check("int main(void) { int a = 1; int a = 2; return a; }");
  EXPECT_FALSE(comp->ok);
  EXPECT_TRUE(comp->diags->Contains("redeclaration"));
}

TEST(SemaScopes, DuplicateFunctionRejected) {
  auto comp = Check("int f(void) { return 1; } int f(void) { return 2; }");
  EXPECT_FALSE(comp->ok);
  EXPECT_TRUE(comp->diags->Contains("redefinition"));
}

TEST(SemaScopes, DeclThenDefMergesAttributes) {
  auto comp = Check(R"(
    int worker(void) blocking;
    int worker(void) { return 1; }
    int main(void) { return worker(); }
  )");
  ASSERT_TRUE(comp->ok) << comp->Errors();
  EXPECT_TRUE(comp->sema->func_map().at("worker")->attrs.blocking);
}

// Sema resolves every identifier that names a function, once: a callee and
// a function designator point at the canonical definition (not the earlier
// declaration), a local that shadows the name does not, and funcs() lists
// the canonical functions by func_id.
TEST(SemaScopes, FunctionNamesResolveOnceToTheCanonicalDecl) {
  auto comp = Check(R"(
    typedef int op_fn(int x);
    int helper(int x);
    int helper(int x) { return x + 1; }
    int main(void) {
      op_fn* opt f = helper;
      int r = helper(1);
      if (r > 0) {
        int helper = 2;
        r = r + helper;
      }
      return r + f(2);
    }
  )");
  ASSERT_TRUE(comp->ok) << comp->Errors();
  const FuncDecl* def = comp->sema->func_map().at("helper");
  ASSERT_NE(def->body, nullptr);
  int as_function = 0;
  int as_local = 0;
  for (uint32_t i = 0; i < comp->prog.expr_count(); ++i) {
    const Expr* e = comp->prog.ExprAt(ExprId{i});
    if (e->kind != ExprKind::kIdent || e->str_val != "helper") {
      continue;
    }
    if (e->func != nullptr) {
      EXPECT_EQ(e->func, def);
      EXPECT_EQ(e->sym, nullptr);
      ++as_function;
    } else {
      EXPECT_NE(e->sym, nullptr);
      ++as_local;
    }
  }
  EXPECT_EQ(as_function, 2);  // the designator and the callee
  EXPECT_EQ(as_local, 1);
  const std::vector<FuncDecl*>& funcs = comp->sema->funcs();
  for (size_t id = 0; id < funcs.size(); ++id) {
    EXPECT_EQ(funcs[id]->func_id, static_cast<int>(id));
  }
  EXPECT_EQ(funcs[static_cast<size_t>(def->func_id)], def);
}

TEST(SemaScopes, BreakOutsideLoopRejected) {
  auto comp = Check("int main(void) { break; return 0; }");
  EXPECT_FALSE(comp->ok);
}

TEST(SemaAnnots, CountMustBeInteger) {
  auto comp = Check(R"(
    struct s { int x; };
    int f(int* count(p) a, struct s* p) { return 0; }
  )");
  EXPECT_FALSE(comp->ok);
  EXPECT_TRUE(comp->diags->Contains("integer"));
}

TEST(SemaAnnots, FieldCountMustNameSibling) {
  auto comp = Check(R"(
    struct buf { char* count(nosuch) data; };
  )");
  EXPECT_FALSE(comp->ok);
  EXPECT_TRUE(comp->diags->Contains("unknown field"));
}

TEST(SemaAnnots, WhenOutsideInlineUnionRejected) {
  auto comp = Check(R"(
    struct s { int tag; int x when(tag == 1); };
  )");
  EXPECT_FALSE(comp->ok);
}

TEST(SemaStats, TrustedAccountingTracksBlocks) {
  auto comp = Check(R"(
    int main(void) {
      trusted {
        int x = 1;
        int y = 2;
        return x + y;
      }
    }
  )");
  ASSERT_TRUE(comp->ok) << comp->Errors();
  EXPECT_EQ(comp->sema->stats().trusted_blocks, 1);
  EXPECT_GE(comp->sema->stats().trusted_lines.size(), 3u);
}

TEST(SemaStats, AnnotationSitesCounted) {
  auto comp = Check(R"(
    struct b { int n; char* count(n) d; };
    int f(char* nullterm s, int* opt p) blocking { return 0; }
    int main(void) { return 0; }
  )");
  ASSERT_TRUE(comp->ok) << comp->Errors();
  // count(n) field, nullterm param, opt param, blocking attr.
  EXPECT_GE(comp->sema->stats().annotation_sites, 4);
}

}  // namespace
}  // namespace ivy
