#include "src/annodb/annodb.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <tuple>

#include "src/support/numbers.h"
#include "src/tool/analysis_context.h"
#include "src/tool/pipeline.h"

namespace ivy {

AnnoDb AnnoDb::Extract(const Compilation& comp, const BlockStopReport* blockstop,
                       const std::function<const std::string*(SourceLoc)>& module_of) {
  AnnoDb db;
  auto stamp = [&module_of](SourceLoc loc, std::string* module) {
    if (const std::string* m = module_of ? module_of(loc) : nullptr) {
      *module = *m;
    }
  };
  // The canonical declaration of every name: the ones sema numbered.
  for (const FuncDecl* fn : comp.prog.funcs) {
    if (fn->func_id < 0 || fn->name.find(kPrivateMark) != std::string::npos) {
      continue;
    }
    FuncFacts facts;
    facts.name = fn->name;
    for (const Symbol* p : fn->params) {
      facts.param_annots.push_back(TypeToString(p->type));
    }
    facts.blocking = fn->attrs.blocking;
    facts.noblock = fn->attrs.noblock;
    facts.blocking_if_param = fn->attrs.blocking_if_param;
    facts.errcodes = fn->attrs.errcodes;
    facts.frame_size = fn->frame_size;
    stamp(fn->loc, &facts.module);
    const size_t id = static_cast<size_t>(fn->func_id);
    facts.may_block = blockstop != nullptr && id < blockstop->witness_by_id.size() &&
                      !blockstop->witness_by_id[id].empty();
    db.funcs_.emplace(fn->name, std::move(facts));
  }
  for (const RecordDecl* rec : comp.prog.records) {
    if (rec->type_id < 0 || rec->name.empty() ||
        rec->name.find(kPrivateMark) != std::string::npos) {
      continue;
    }
    RecordFacts facts;
    facts.name = rec->name;
    facts.size = rec->size;
    stamp(rec->loc, &facts.module);
    if (const TypeLayout* layout = comp.layouts.Get(rec->type_id)) {
      facts.ptr_offsets = layout->ptr_offsets;
    }
    db.records_[rec->name] = std::move(facts);
  }
  return db;
}

AnnoDb AnnoDb::Extract(AnalysisContext& ctx, const PipelineResult* pipeline) {
  const BlockStopReport* blockstop = nullptr;
  if (pipeline != nullptr) {
    if (const ToolResult* r = pipeline->ResultFor("blockstop")) {
      blockstop = r->DetailAs<BlockStopReport>();
    }
  }
  AnnoDb db = Extract(ctx.comp(), blockstop);
  if (pipeline != nullptr) {
    db.SetFindings(pipeline->findings, &ctx.sm());
  }
  return db;
}

namespace {

Json StringsToJson(const std::vector<std::string>& v) {
  Json arr = Json::MakeArray();
  for (const std::string& s : v) {
    arr.Append(Json::MakeString(s));
  }
  return arr;
}

std::vector<std::string> StringsFromJson(const Json* j) {
  std::vector<std::string> out;
  if (j != nullptr) {
    for (const Json& s : j->array()) {
      out.push_back(s.AsString());
    }
  }
  return out;
}

bool KeyLess(const FuncSummary& a, const FuncSummary& b) { return a.Key() < b.Key(); }

}  // namespace

Json FuncSummary::ToJson() const {
  Json j = Json::MakeObject();
  j["module"] = Json::MakeString(module);
  j["function"] = Json::MakeString(function);
  j["defined"] = Json::MakeBool(defined);
  if (defined) {
    j["may_block"] = Json::MakeBool(may_block);
    if (!block_witness.empty()) {
      j["block_witness"] = Json::MakeString(block_witness);
    }
    j["blocking"] = Json::MakeBool(blocking);
    j["noblock"] = Json::MakeBool(noblock);
    j["blocking_if_param"] = Json::MakeInt(blocking_if_param);
    j["returns_error"] = Json::MakeBool(returns_error);
    if (!errcodes.empty()) {
      Json errs = Json::MakeArray();
      for (int64_t e : errcodes) {
        errs.Append(Json::MakeInt(e));
      }
      j["errcodes"] = std::move(errs);
    }
    j["frame_size"] = Json::MakeInt(frame_size);
    if (!callees.empty()) {
      j["callees"] = StringsToJson(callees);
    }
    if (!returns_points.empty()) {
      j["returns_points"] = StringsToJson(returns_points);
    }
    if (!locks_acquired.empty()) {
      j["locks_acquired"] = StringsToJson(locks_acquired);
    }
    if (stack_below >= 0) {
      j["stack_below"] = Json::MakeInt(stack_below);
    }
    if (cross_recursive) {
      j["cross_recursive"] = Json::MakeBool(true);
    }
  } else {
    j["entered_atomic"] = Json::MakeBool(entered_atomic);
    j["entered_in_irq"] = Json::MakeBool(entered_in_irq);
    if (!param_points.empty()) {
      Json pp = Json::MakeObject();
      for (const auto& [idx, names] : param_points) {
        pp[std::to_string(idx)] = StringsToJson(names);
      }
      j["param_points"] = std::move(pp);
    }
  }
  return j;
}

bool FuncSummary::FromJson(const Json& j, FuncSummary* out, std::string* error) {
  FuncSummary& s = *out;
  if (const Json* v = j.Find("module")) {
    s.module = v->AsString();
  }
  if (const Json* v = j.Find("function")) {
    s.function = v->AsString();
  }
  if (const Json* v = j.Find("defined")) {
    s.defined = v->AsBool();
  }
  if (const Json* v = j.Find("may_block")) {
    s.may_block = v->AsBool();
  }
  if (const Json* v = j.Find("block_witness")) {
    s.block_witness = v->AsString();
  }
  if (const Json* v = j.Find("blocking")) {
    s.blocking = v->AsBool();
  }
  if (const Json* v = j.Find("noblock")) {
    s.noblock = v->AsBool();
  }
  if (const Json* v = j.Find("blocking_if_param")) {
    s.blocking_if_param = static_cast<int>(v->AsInt(-1));
  }
  if (const Json* v = j.Find("returns_error")) {
    s.returns_error = v->AsBool();
  }
  if (const Json* v = j.Find("errcodes")) {
    for (const Json& e : v->array()) {
      s.errcodes.push_back(e.AsInt());
    }
  }
  if (const Json* v = j.Find("frame_size")) {
    s.frame_size = v->AsInt();
  }
  s.callees = StringsFromJson(j.Find("callees"));
  s.returns_points = StringsFromJson(j.Find("returns_points"));
  s.locks_acquired = StringsFromJson(j.Find("locks_acquired"));
  if (const Json* v = j.Find("stack_below")) {
    s.stack_below = v->AsInt(-1);
  }
  if (const Json* v = j.Find("cross_recursive")) {
    s.cross_recursive = v->AsBool();
  }
  if (const Json* v = j.Find("entered_atomic")) {
    s.entered_atomic = v->AsBool();
  }
  if (const Json* v = j.Find("entered_in_irq")) {
    s.entered_in_irq = v->AsBool();
  }
  if (const Json* v = j.Find("param_points")) {
    for (const auto& [key, names] : v->object()) {
      // The writer emits std::to_string(idx) keys; anything else ("abc",
      // "01", "7x") used to atoi-alias onto parameter 0 and corrupt the
      // escape sets.
      int idx = 0;
      if (!ParseIndexStrict(key, kMaxParamIndex, &idx)) {
        if (error != nullptr) {
          *error = "bad param_points index \"" + key + "\" in summary row " +
                   s.module + ":" + s.function;
        }
        return false;
      }
      s.param_points[idx] = StringsFromJson(&names);
    }
  }
  return true;
}

Json AnnoDb::ToJson() const {
  Json root = Json::MakeObject();
  Json& funcs = root["functions"];
  funcs = Json::MakeObject();
  for (const auto& [name, f] : funcs_) {
    Json& j = funcs[name];
    j = Json::MakeObject();
    Json params = Json::MakeArray();
    for (const std::string& p : f.param_annots) {
      params.Append(Json::MakeString(p));
    }
    j["params"] = std::move(params);
    j["blocking"] = Json::MakeBool(f.blocking);
    j["noblock"] = Json::MakeBool(f.noblock);
    j["may_block"] = Json::MakeBool(f.may_block);
    j["blocking_if_param"] = Json::MakeInt(f.blocking_if_param);
    Json errs = Json::MakeArray();
    for (int64_t e : f.errcodes) {
      errs.Append(Json::MakeInt(e));
    }
    j["errcodes"] = std::move(errs);
    j["frame_size"] = Json::MakeInt(f.frame_size);
    if (!f.module.empty()) {
      j["module"] = Json::MakeString(f.module);
    }
  }
  Json& records = root["records"];
  records = Json::MakeObject();
  for (const auto& [name, r] : records_) {
    Json& j = records[name];
    j = Json::MakeObject();
    j["size"] = Json::MakeInt(r.size);
    Json offs = Json::MakeArray();
    for (int64_t o : r.ptr_offsets) {
      offs.Append(Json::MakeInt(o));
    }
    j["ptr_offsets"] = std::move(offs);
    if (!r.module.empty()) {
      j["module"] = Json::MakeString(r.module);
    }
  }
  if (!summaries_.empty()) {
    Json rows = Json::MakeArray();
    for (const FuncSummary& row : summaries_) {
      rows.Append(row.ToJson());
    }
    root["summaries"] = std::move(rows);
  }
  if (!findings_.empty()) {
    Json fs = Json::MakeArray();
    for (const Finding& f : findings_) {
      fs.Append(f.ToJson(findings_sm_));
    }
    root["findings"] = std::move(fs);
  }
  return root;
}

AnnoDb AnnoDb::FromJson(const Json& j, std::vector<std::string>* errors) {
  AnnoDb db;
  if (const Json* funcs = j.Find("functions")) {
    for (const auto& [name, f] : funcs->object()) {
      FuncFacts facts;
      facts.name = name;
      if (const Json* params = f.Find("params")) {
        for (const Json& p : params->array()) {
          facts.param_annots.push_back(p.AsString());
        }
      }
      if (const Json* b = f.Find("blocking")) {
        facts.blocking = b->AsBool();
      }
      if (const Json* b = f.Find("noblock")) {
        facts.noblock = b->AsBool();
      }
      if (const Json* b = f.Find("may_block")) {
        facts.may_block = b->AsBool();
      }
      if (const Json* b = f.Find("blocking_if_param")) {
        facts.blocking_if_param = static_cast<int>(b->AsInt(-1));
      }
      if (const Json* errs = f.Find("errcodes")) {
        for (const Json& e : errs->array()) {
          facts.errcodes.push_back(e.AsInt());
        }
      }
      if (const Json* fs = f.Find("frame_size")) {
        facts.frame_size = fs->AsInt();
      }
      if (const Json* m = f.Find("module")) {
        facts.module = m->AsString();
      }
      db.funcs_[name] = std::move(facts);
    }
  }
  if (const Json* records = j.Find("records")) {
    for (const auto& [name, r] : records->object()) {
      RecordFacts facts;
      facts.name = name;
      if (const Json* s = r.Find("size")) {
        facts.size = s->AsInt();
      }
      if (const Json* offs = r.Find("ptr_offsets")) {
        for (const Json& o : offs->array()) {
          facts.ptr_offsets.push_back(o.AsInt());
        }
      }
      if (const Json* m = r.Find("module")) {
        facts.module = m->AsString();
      }
      db.records_[name] = std::move(facts);
    }
  }
  if (const Json* rows = j.Find("summaries")) {
    for (const Json& row : rows->array()) {
      FuncSummary s;
      std::string err;
      if (FuncSummary::FromJson(row, &s, &err)) {
        db.summaries_.push_back(std::move(s));
      } else if (errors != nullptr) {
        errors->push_back(err);
      }
    }
    // Key order; the stable sort keeps rows with one key in file order, and
    // a unique pass run backwards keeps the last of them.
    std::vector<FuncSummary>& table = db.summaries_;
    std::stable_sort(table.begin(), table.end(), KeyLess);
    auto kept = std::unique(table.rbegin(), table.rend(),
                            [](const FuncSummary& a, const FuncSummary& b) {
                              return a.Key() == b.Key();
                            });
    table.erase(table.begin(), kept.base());
  }
  if (const Json* fs = j.Find("findings")) {
    for (const Json& f : fs->array()) {
      db.findings_.push_back(Finding::FromJson(f));
    }
  }
  return db;
}

int AnnoDb::Merge(const AnnoDb& other) {
  int added = 0;
  for (const auto& [name, facts] : other.funcs_) {
    auto [it, inserted] = funcs_.emplace(name, facts);
    if (inserted) {
      ++added;
    } else {
      // Conservative union of behavioural facts.
      it->second.blocking = it->second.blocking || facts.blocking;
      it->second.may_block = it->second.may_block || facts.may_block;
      it->second.noblock = it->second.noblock || facts.noblock;
      if (it->second.errcodes.empty()) {
        it->second.errcodes = facts.errcodes;
      }
      if (it->second.param_annots.empty()) {
        it->second.param_annots = facts.param_annots;
      }
    }
  }
  for (const auto& [name, facts] : other.records_) {
    if (records_.emplace(name, facts).second) {
      ++added;
    }
  }
  // Summary rows replace on their key: a re-imported export overwrites
  // byte-identical rows with themselves (idempotent), and a newer export of
  // the same module wins outright. set_union takes an equal key's row from
  // its first range, `other`.
  std::vector<FuncSummary> table;
  table.reserve(summaries_.size() + other.summaries_.size());
  std::set_union(other.summaries_.begin(), other.summaries_.end(), summaries_.begin(),
                 summaries_.end(), std::back_inserter(table), KeyLess);
  added += static_cast<int>(table.size() - summaries_.size());
  summaries_ = std::move(table);
  if (!other.findings_.empty()) {
    // Dedup keyed on (module, tool, loc, message) — the repository policy
    // from the ROADMAP plus per-module provenance, so RetractModule can
    // remove exactly one module's contribution. Known consequence:
    // location-free findings with identical messages *within one module*
    // (e.g. two stackcheck overruns quoting the same byte count) coalesce
    // into one record even when their witness chains differ; the repository
    // keeps the first witness it saw.
    using FindingKey =
        std::tuple<std::string, std::string, int32_t, int32_t, int32_t, std::string>;
    std::set<FindingKey> seen;
    for (const Finding& f : findings_) {
      seen.insert({f.module, f.tool, f.loc.file, f.loc.line, f.loc.col, f.message});
    }
    for (const Finding& f : other.findings_) {
      if (seen.insert({f.module, f.tool, f.loc.file, f.loc.line, f.loc.col, f.message})
              .second) {
        findings_.push_back(f);
      }
    }
    // Imported findings carry file ids from a *foreign* compilation;
    // rendering them through this db's SourceManager would mislabel every
    // location. Fall back to raw triples for the whole merged set.
    findings_sm_ = nullptr;
  }
  return added;
}

int AnnoDb::RetractModule(const std::string& module) {
  size_t before = findings_.size();
  findings_.erase(std::remove_if(findings_.begin(), findings_.end(),
                                 [&module](const Finding& f) { return f.module == module; }),
                  findings_.end());
  int retracted = static_cast<int>(before - findings_.size());
  // Attribute and summary entries carry the same provenance — a retracted
  // module must not leave stale facts behind.
  for (auto it = funcs_.begin(); it != funcs_.end();) {
    if (it->second.module == module) {
      it = funcs_.erase(it);
      ++retracted;
    } else {
      ++it;
    }
  }
  for (auto it = records_.begin(); it != records_.end();) {
    if (it->second.module == module) {
      it = records_.erase(it);
      ++retracted;
    } else {
      ++it;
    }
  }
  // The module's summary rows are one run of the key order.
  auto earlier = [&module](const FuncSummary& row) { return row.module < module; };
  auto within = [&module](const FuncSummary& row) { return row.module == module; };
  auto first = std::partition_point(summaries_.begin(), summaries_.end(), earlier);
  auto last = std::partition_point(first, summaries_.end(), within);
  retracted += static_cast<int>(last - first);
  summaries_.erase(first, last);
  return retracted;
}

int AnnoDb::ApplyAttributes(Program* prog) const {
  int updated = 0;
  for (FuncDecl* fn : prog->funcs) {
    auto it = funcs_.find(fn->name);
    if (it == funcs_.end()) {
      continue;
    }
    bool changed = false;
    if (it->second.blocking && !fn->attrs.blocking) {
      fn->attrs.blocking = true;
      changed = true;
    }
    if (it->second.noblock && !fn->attrs.noblock) {
      fn->attrs.noblock = true;
      changed = true;
    }
    if (!it->second.errcodes.empty() && fn->attrs.errcodes.empty()) {
      fn->attrs.errcodes = it->second.errcodes;
      changed = true;
    }
    if (it->second.blocking_if_param >= 0 && fn->attrs.blocking_if_param < 0) {
      fn->attrs.blocking_if_param = it->second.blocking_if_param;
      changed = true;
    }
    if (changed) {
      ++updated;
    }
  }
  return updated;
}

}  // namespace ivy
