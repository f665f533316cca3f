// Test-side name view of BlockStop's may-block facts. The report keeps them
// by func_id only (BlockStopReport::witness_by_id); a test that holds a
// written name resolves it through sema's table first.
#ifndef TESTS_MAYBLOCK_BY_NAME_H_
#define TESTS_MAYBLOCK_BY_NAME_H_

#include <string_view>

#include "src/blockstop/blockstop.h"
#include "src/mc/sema.h"

namespace ivy {

inline bool MayBlockByName(const Sema& sema, const BlockStopReport& report,
                           std::string_view name) {
  auto it = sema.func_map().find(name);
  if (it == sema.func_map().end()) {
    return false;
  }
  const size_t id = static_cast<size_t>(it->second->func_id);
  return id < report.witness_by_id.size() && !report.witness_by_id[id].empty();
}

}  // namespace ivy

#endif  // TESTS_MAYBLOCK_BY_NAME_H_
