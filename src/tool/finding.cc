#include "src/tool/finding.h"

#include "src/support/source.h"

namespace ivy {

const char* FindingSeverityName(FindingSeverity s) {
  switch (s) {
    case FindingSeverity::kNote:
      return "note";
    case FindingSeverity::kWarning:
      return "warning";
    case FindingSeverity::kError:
      return "error";
  }
  return "unknown";
}

namespace {

FindingSeverity SeverityFromName(const std::string& name) {
  if (name == "note") {
    return FindingSeverity::kNote;
  }
  if (name == "error") {
    return FindingSeverity::kError;
  }
  return FindingSeverity::kWarning;
}

}  // namespace

Json Finding::ToJson(const SourceManager* sm) const {
  Json j = Json::MakeObject();
  j["tool"] = Json::MakeString(tool);
  j["severity"] = Json::MakeString(FindingSeverityName(severity));
  j["file"] = Json::MakeInt(loc.file);
  j["line"] = Json::MakeInt(loc.line);
  j["col"] = Json::MakeInt(loc.col);
  if (sm != nullptr && loc.IsValid()) {
    j["at"] = Json::MakeString(sm->Render(loc));
  }
  j["message"] = Json::MakeString(message);
  Json w = Json::MakeArray();
  for (const std::string& step : witness) {
    w.Append(Json::MakeString(step));
  }
  j["witness"] = std::move(w);
  if (!module.empty()) {
    j["module"] = Json::MakeString(module);
  }
  return j;
}

Finding Finding::FromJson(const Json& j) {
  Finding f;
  if (const Json* t = j.Find("tool")) {
    f.tool = t->AsString();
  }
  if (const Json* s = j.Find("severity")) {
    f.severity = SeverityFromName(s->AsString());
  }
  if (const Json* v = j.Find("file")) {
    f.loc.file = static_cast<int32_t>(v->AsInt(-1));
  }
  if (const Json* v = j.Find("line")) {
    f.loc.line = static_cast<int32_t>(v->AsInt());
  }
  if (const Json* v = j.Find("col")) {
    f.loc.col = static_cast<int32_t>(v->AsInt());
  }
  if (const Json* m = j.Find("message")) {
    f.message = m->AsString();
  }
  if (const Json* w = j.Find("witness")) {
    for (const Json& step : w->array()) {
      f.witness.push_back(step.AsString());
    }
  }
  if (const Json* m = j.Find("module")) {
    f.module = m->AsString();
  }
  return f;
}

std::string Finding::ToString(const SourceManager* sm) const {
  std::string out = "[" + tool + "] ";
  out += FindingSeverityName(severity);
  if (sm != nullptr && loc.IsValid()) {
    out += " at " + sm->Render(loc);
  }
  out += ": " + message;
  if (!witness.empty()) {
    out += " (";
    for (size_t i = 0; i < witness.size(); ++i) {
      if (i > 0) {
        out += " -> ";
      }
      out += witness[i];
    }
    out += ")";
  }
  return out;
}

bool FindingQuery::Matches(const Finding& f) const {
  if (!tool.empty() && f.tool != tool) {
    return false;
  }
  if (!module.empty() && f.module != module) {
    return false;
  }
  if (function.empty()) {
    return true;
  }
  for (const std::string& step : f.witness) {
    if (step == function || step == "calls " + function) {
      return true;
    }
  }
  return f.message.find("'" + function + "'") != std::string::npos;
}

int64_t ToolResult::Metric(const std::string& key, int64_t def) const {
  auto it = metrics_.find(key);
  return it == metrics_.end() ? def : it->second;
}

}  // namespace ivy
