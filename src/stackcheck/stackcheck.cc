#include "src/stackcheck/stackcheck.h"

#include <algorithm>

#include "src/support/scc.h"

namespace ivy {

StackCheck::StackCheck(const CallGraph* cg, const IrModule* module, int64_t budget)
    : cg_(cg), module_(module), budget_(budget) {}

void StackCheck::Prepare() {
  if (prepared_) {
    return;
  }
  prepared_ = true;
  const std::vector<const FuncDecl*>& funcs = cg_->DefinedFuncs();
  const int n = static_cast<int>(funcs.size());
  std::vector<std::vector<int>> adj(static_cast<size_t>(n));
  std::vector<uint8_t> self_loop(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (const FuncDecl* callee : cg_->Callees(funcs[static_cast<size_t>(i)])) {
      const int c = cg_->IndexOf(callee);
      if (c < 0) {
        continue;  // declared-only callee: no body, no frame
      }
      if (c == i) {
        self_loop[static_cast<size_t>(i)] = 1;
      }
      adj[static_cast<size_t>(i)].push_back(c);
    }
  }

  // Tarjan in DefinedFuncs() order (src/support/scc.h): SCC ids and member
  // lists come out the same no matter who asks.
  SccCondensation scc = TarjanScc(adj);
  scc_of_ = std::move(scc.scc_of);
  scc_members_ = std::move(scc.members);

  const size_t scc_count = scc_members_.size();
  scc_weight_.assign(scc_count, 0);
  scc_cyclic_.assign(scc_count, 0);
  scc_succs_.assign(scc_count, {});
  for (size_t s = 0; s < scc_count; ++s) {
    for (int v : scc_members_[s]) {
      const FuncDecl* fn = funcs[static_cast<size_t>(v)];
      int64_t frame = 0;
      if (fn->func_id >= 0 && static_cast<size_t>(fn->func_id) < module_->funcs.size()) {
        frame = module_->funcs[static_cast<size_t>(fn->func_id)].frame_size;
      }
      scc_weight_[s] += frame;
      if (self_loop[static_cast<size_t>(v)]) {
        scc_cyclic_[s] = 1;
      }
    }
    if (scc_members_[s].size() > 1) {
      scc_cyclic_[s] = 1;
    }
  }
  for (int v = 0; v < n; ++v) {
    for (int w : adj[static_cast<size_t>(v)]) {
      int sv = scc_of_[static_cast<size_t>(v)];
      int sw = scc_of_[static_cast<size_t>(w)];
      if (sv != sw) {
        scc_succs_[static_cast<size_t>(sv)].push_back(sw);
      }
    }
  }
  for (std::vector<int>& succs : scc_succs_) {
    std::sort(succs.begin(), succs.end());
    succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
  }
}

int64_t StackCheck::DepthOfScc(int scc, std::vector<int64_t>* memo) const {
  int64_t& slot = (*memo)[static_cast<size_t>(scc)];
  if (slot >= 0) {
    return slot;
  }
  int64_t deepest = 0;
  for (int succ : scc_succs_[static_cast<size_t>(scc)]) {
    deepest = std::max(deepest, DepthOfScc(succ, memo));
  }
  slot = scc_weight_[static_cast<size_t>(scc)] + deepest;
  return slot;
}

std::vector<const FuncDecl*> StackCheck::ResolveRoots(const std::vector<std::string>& entries,
                                                      std::vector<std::string>* missing) const {
  if (entries.empty()) {
    return cg_->DefinedFuncs();
  }
  std::map<std::string, const FuncDecl*> by_name;
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    by_name[fn->name] = fn;
  }
  std::vector<const FuncDecl*> roots;
  for (const std::string& name : entries) {
    auto it = by_name.find(name);
    if (it != by_name.end()) {
      roots.push_back(it->second);
    } else {
      missing->push_back(name);
    }
  }
  return roots;
}

StackCheckReport StackCheck::Run(const std::vector<std::string>& entries) {
  Prepare();
  StackCheckReport report;
  report.budget = budget_;
  std::vector<const FuncDecl*> roots = ResolveRoots(entries, &report.missing_entries);
  std::vector<int64_t> memo(scc_members_.size(), -1);
  for (const FuncDecl* root : roots) {
    const int64_t depth = DepthOfScc(scc_of_[static_cast<size_t>(cg_->IndexOf(root))], &memo);
    report.entry_depths[root->name] = depth;
    if (depth > report.worst_case) {
      report.worst_case = depth;
      report.worst_entry = root->name;
    }
  }
  // Recursive functions: members of cyclic SCCs reachable from any root.
  std::vector<uint8_t> seen(scc_members_.size(), 0);
  std::vector<int> worklist;
  for (const FuncDecl* root : roots) {
    const int i = cg_->IndexOf(root);
    if (i < 0) {
      continue;
    }
    int s = scc_of_[static_cast<size_t>(i)];
    if (!seen[static_cast<size_t>(s)]) {
      seen[static_cast<size_t>(s)] = 1;
      worklist.push_back(s);
    }
  }
  while (!worklist.empty()) {
    int s = worklist.back();
    worklist.pop_back();
    if (scc_cyclic_[static_cast<size_t>(s)]) {
      for (int v : scc_members_[static_cast<size_t>(s)]) {
        report.recursive.insert(cg_->DefinedFuncs()[static_cast<size_t>(v)]->name);
      }
    }
    for (int succ : scc_succs_[static_cast<size_t>(s)]) {
      if (!seen[static_cast<size_t>(succ)]) {
        seen[static_cast<size_t>(succ)] = 1;
        worklist.push_back(succ);
      }
    }
  }
  report.fits_budget = report.worst_case <= budget_ && report.recursive.empty();
  return report;
}

std::string StackCheckReport::ToString() const {
  std::string out = "StackCheck: worst-case stack " + std::to_string(worst_case) +
                    " bytes via '" + worst_entry + "' (budget " + std::to_string(budget) +
                    ")\n";
  out += std::string("  verdict: ") +
         (fits_budget ? "every call chain fits the budget"
                      : (recursive.empty() ? "BUDGET EXCEEDED"
                                           : "recursion present: run-time checks required")) +
         "\n";
  for (const auto& [name, depth] : entry_depths) {
    out += "    " + name + ": " + std::to_string(depth) + " bytes\n";
  }
  if (!recursive.empty()) {
    out += "  recursive functions (need kCheckStack run-time checks):\n";
    for (const std::string& f : recursive) {
      out += "    " + f + "\n";
    }
  }
  return out;
}

std::vector<Finding> StackCheckReport::ToFindings() const {
  std::vector<Finding> out;
  for (const std::string& name : missing_entries) {
    Finding f;
    f.tool = "stackcheck";
    f.severity = FindingSeverity::kWarning;
    f.message = "stackcheck entry '" + name + "' is not a defined function; skipped";
    f.witness = {name};
    out.push_back(std::move(f));
  }
  if (worst_case > budget) {
    Finding f;
    f.tool = "stackcheck";
    f.severity = FindingSeverity::kError;
    f.message = "worst-case stack " + std::to_string(worst_case) + " bytes exceeds budget " +
                std::to_string(budget);
    f.witness = {worst_entry};
    out.push_back(std::move(f));
  }
  for (const std::string& fn : recursive) {
    Finding f;
    f.tool = "stackcheck";
    f.severity = FindingSeverity::kWarning;
    f.message = "function '" + fn + "' is recursive: stack bound needs run-time checks";
    f.witness = {fn};
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace ivy
