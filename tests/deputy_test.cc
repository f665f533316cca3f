// Deputy behaviour tests (§2.1): every check kind both passes on legal code
// and traps on violations; static discharge removes provable checks; trusted
// code is exempt; annotations are untrusted (a wrong annotation is caught).
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/driver/compiler.h"

namespace ivy {
namespace {

VmResult RunSrc(const std::string& src, ToolConfig cfg = ToolConfig{}) {
  auto comp = CompileOne(src, cfg);
  EXPECT_TRUE(comp->ok) << comp->Errors();
  if (!comp->ok) {
    return VmResult{};
  }
  auto vm = MakeVm(*comp);
  return vm->Call("main");
}

TEST(Deputy, CountAnnotationInBoundsPasses) {
  const char* src = R"(
    int sum(int* count(n) a, int n) {
      int s = 0;
      for (int i = 0; i < n; i++) { s += a[i]; }
      return s;
    }
    int main(void) {
      int v[4];
      v[0] = 1; v[1] = 2; v[2] = 3; v[3] = 4;
      return sum(v, 4);
    }
  )";
  VmResult r = RunSrc(src);
  ASSERT_TRUE(r.ok) << r.trap_msg;
  EXPECT_EQ(r.value, 10);
}

TEST(Deputy, CountAnnotationOverrunTraps) {
  const char* src = R"(
    int get(int* count(n) a, int n, int i) { return a[i]; }
    int main(void) {
      int v[4];
      return get(v, 4, 7);
    }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kBounds);
}

TEST(Deputy, NegativeIndexTraps) {
  const char* src = R"(
    int get(int* count(n) a, int n, int i) { return a[i]; }
    int main(void) { int v[4]; return get(v, 4, -1); }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kBounds);
}

TEST(Deputy, WrongAnnotationIsCaughtNotTrusted) {
  // "These annotations are not trusted by the compiler": claiming 8 elements
  // for a 4-element array is caught at the call site.
  const char* src = R"(
    int get(int* count(8) a) { return a[6]; }
    int main(void) { int v[4]; return get(v); }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  // Static: capacity 4 < required 8 is a compile-time error.
  EXPECT_FALSE(comp->ok);
  EXPECT_TRUE(comp->diags->Contains("requires"));
}

TEST(Deputy, FixedArrayBoundsTrap) {
  const char* src = R"(
    int main(void) {
      int a[4];
      int i = 2;
      a[i * 3] = 1;  // index 6
      return 0;
    }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kBounds);
}

TEST(Deputy, OptPointerNullDerefTraps) {
  const char* src = R"(
    struct node { int v; };
    int main(void) {
      struct node* opt p = null;
      return p->v;
    }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kNullDeref);
}

TEST(Deputy, GuardedOptPointerPasses) {
  const char* src = R"(
    struct node { int v; };
    int read_it(struct node* opt p) {
      if (!p) { return -1; }
      return p->v;  // guarded: check discharged
    }
    int main(void) {
      struct node n;
      n.v = 9;
      return read_it(&n);
    }
  )";
  VmResult r = RunSrc(src);
  ASSERT_TRUE(r.ok) << r.trap_msg;
  EXPECT_EQ(r.value, 9);
}

TEST(Deputy, NarrowingOptToNonOptTraps) {
  const char* src = R"(
    struct node { int v; };
    struct node* opt maybe(void) { return null; }
    int main(void) {
      struct node* p = maybe();  // narrowing check fires
      return 0;
    }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kNullDeref);
}

TEST(Deputy, UnionWhenGuardPassesAndTraps) {
  const char* src = R"(
    struct msg {
      int tag;
      union {
        int num when(tag == 1);
        char letter when(tag == 2);
      } u;
    };
    int main(void) {
      struct msg m;
      m.tag = 1;
      m.u.num = 42;       // ok: tag == 1
      m.tag = 2;
      return m.u.num;     // trap: tag != 1
    }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kUnionTag);
}

TEST(Deputy, UnguardedUnionAccessRequiresTrusted) {
  const char* src = R"(
    union raw { int i; char c; };
    union raw g;
    int main(void) { g.i = 3; return g.i; }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  EXPECT_FALSE(comp->ok);
  EXPECT_TRUE(comp->diags->Contains("trusted"));
}

TEST(Deputy, TrustedBlockAllowsUnguardedUnion) {
  const char* src = R"(
    union raw { int i; char c; };
    union raw g;
    int main(void) {
      trusted { g.i = 65; return g.c; }
    }
  )";
  VmResult r = RunSrc(src);
  ASSERT_TRUE(r.ok) << r.trap_msg;
  EXPECT_EQ(r.value, 65);
}

TEST(Deputy, NulltermIterationPassesAndOverrunTraps) {
  const char* src = R"(
    int len(char* nullterm s) {
      int n = 0;
      while (*s) { s = s + 1; n = n + 1; }
      return n;
    }
    int main(void) {
      char* nullterm msg = "hello";
      int n = len(msg);
      // Now step past the terminator deliberately:
      char* nullterm p = "";
      p = p + 1;  // *p == 0: advancing traps
      return n;
    }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kNtOverrun);
}

TEST(Deputy, BoundAnnotationChecked) {
  const char* src = R"(
    int peek(int* bound(lo, hi) p, int* lo, int* hi) { return *p; }
    int main(void) {
      int arr[8];
      arr[7] = 3;
      // p points at arr[7], bounds [arr, arr+8): legal.
      return peek(arr + 7, arr, arr + 8);
    }
  )";
  VmResult r = RunSrc(src);
  ASSERT_TRUE(r.ok) << r.trap_msg;
  EXPECT_EQ(r.value, 3);
}

TEST(Deputy, DischargeCountsLoopChecks) {
  const char* src = R"(
    int main(void) {
      int a[16];
      int s = 0;
      for (int i = 0; i < 16; i++) { a[i] = i; }
      for (int i = 0; i < 16; i++) { s += a[i]; }
      return s;
    }
  )";
  ToolConfig with;
  auto cw = CompileOne(src, with);
  ASSERT_TRUE(cw->ok);
  EXPECT_EQ(cw->check_stats.bounds_emitted, 0);
  EXPECT_GE(cw->check_stats.bounds_discharged, 2);

  ToolConfig without;
  without.discharge = false;
  auto cwo = CompileOne(src, without);
  ASSERT_TRUE(cwo->ok);
  EXPECT_GE(cwo->check_stats.bounds_emitted, 2);
}

TEST(Deputy, DischargeRespectsModifiedInductionVariable) {
  // i is modified in the body: the range fact must NOT hold.
  const char* src = R"(
    int main(void) {
      int a[8];
      for (int i = 0; i < 8; i++) {
        a[i] = 0;
        i = i + 2;  // extra modification invalidates the fact
      }
      return 0;
    }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  EXPECT_GE(comp->check_stats.bounds_emitted, 1);
}

TEST(Deputy, CallSiteCountCheckSameSymbolDischarged) {
  const char* src = R"(
    int takes(char* count(n) p, int n) { return n; }
    int caller(char* count(len) buf, int len) { return takes(buf, len); }
    int main(void) { char b[8]; return caller(b, 8); }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  EXPECT_GE(comp->check_stats.callsite_discharged, 1);
  auto vm = MakeVm(*comp);
  EXPECT_TRUE(vm->Call("main").ok);
}

TEST(Deputy, CallSiteCapacityViolationTraps) {
  const char* src = R"(
    void fill(char* count(n) p, int n) { for (int i = 0; i < n; i++) { p[i] = 0; } }
    int main(void) {
      char small[4];
      int want = 16;
      fill(small, want);  // capacity 4 < required 16: runtime check
      return 0;
    }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kBounds);
}

TEST(Deputy, FieldScopedCountChecked) {
  const char* src = R"(
    struct buf { int cap; char* count(cap) data; };
    int main(void) {
      struct buf b;
      char storage[8];
      b.cap = 8;
      b.data = storage;
      b.data[5] = 7;    // in bounds
      int i = 11;
      return b.data[i]; // out of bounds vs b.cap
    }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kBounds);
}

TEST(Deputy, TrustedPointerUncheckedEvenWhenWild) {
  const char* src = R"(
    int main(void) {
      int x = 5;
      int* trusted p = &x;
      p = p + 100;  // wild arithmetic, no Deputy check (VM memfault guards)
      p = p - 100;
      return *p;
    }
  )";
  VmResult r = RunSrc(src);
  ASSERT_TRUE(r.ok) << r.trap_msg;
  EXPECT_EQ(r.value, 5);
}

TEST(Deputy, IntToPointerForgeryRejectedOutsideTrusted) {
  auto comp = CompileOne("int main(void) { int* p = (int*)1234; return 0; }", ToolConfig{});
  EXPECT_FALSE(comp->ok);
  EXPECT_TRUE(comp->diags->Contains("trusted"));
}

TEST(Deputy, CrossRecordCastRejected) {
  const char* src = R"(
    struct a { int x; };
    struct b { int y; int z; };
    int main(void) {
      struct a v;
      struct b* p = (struct b*)&v;
      return 0;
    }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  EXPECT_FALSE(comp->ok);
}

TEST(Deputy, DiagnosticsComeOutInDeclarationOrder) {
  // Functions are lowered in declaration (func_id) order, so their Deputy
  // diagnostics do not follow the standard library's hash of their names.
  const char* src = R"(
    char zulu(char* nullterm s) { return s[1]; }
    char alpha(char* nullterm s) { return s[1]; }
    char mike(char* nullterm s) { return s[1]; }
    char bravo(char* nullterm s) { return s[1]; }
    char yankee(char* nullterm s) { return s[1]; }
    char delta(char* nullterm s) { return s[1]; }
    char kilo(char* nullterm s) { return s[1]; }
    char echo(char* nullterm s) { return s[1]; }
    int main(void) { return 0; }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  std::vector<int32_t> lines;
  for (const Diagnostic& d : comp->diags->diagnostics()) {
    if (d.tool == "deputy") {
      lines.push_back(d.loc.line);
    }
  }
  EXPECT_EQ(lines, std::vector<int32_t>({2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Deputy, ErasedProgramSkipsAllChecks) {
  // With Deputy off, the overrun silently corrupts (caught only by the VM's
  // own memory fault if it leaves mapped memory) — the paper's motivation.
  const char* src = R"(
    int get(int* count(n) a, int n, int i) { return a[i]; }
    int main(void) {
      int v[4];
      int w[4];
      w[0] = 99;
      return get(v, 4, 4);  // reads into w's storage, no trap
    }
  )";
  ToolConfig off;
  off.deputy = false;
  VmResult r = RunSrc(src, off);
  EXPECT_TRUE(r.ok) << r.trap_msg;  // silent out-of-bounds read
}

}  // namespace
}  // namespace ivy
