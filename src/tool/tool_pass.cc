#include "src/tool/tool_pass.h"

#include <cstdlib>

namespace ivy {

std::string ToolOptions::GetString(const std::string& key, const std::string& def) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

int64_t ToolOptions::GetInt(const std::string& key, int64_t def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) {
    return def;
  }
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

}  // namespace ivy
