#include "src/tool/function_sharder.h"

#include <exception>

#include "src/support/clock.h"
#include "src/support/trace.h"

namespace ivy {

FunctionSharder::FunctionSharder(std::vector<const FuncDecl*> funcs, int shards)
    : funcs_(std::move(funcs)) {
  int n = shards > 0 ? shards : WorkQueue::ResolveHardware();
  if (!funcs_.empty() && static_cast<size_t>(n) > funcs_.size()) {
    n = static_cast<int>(funcs_.size());
  }
  shard_count_ = n < 1 ? 1 : n;
  for (size_t i = 0; i < funcs_.size(); ++i) {
    index_[funcs_[i]] = i;
  }
}

size_t FunctionSharder::IndexOf(const FuncDecl* fn) const {
  auto it = index_.find(fn);
  return it == index_.end() ? funcs_.size() : it->second;
}

std::vector<std::pair<size_t, size_t>> FunctionSharder::Partition(size_t n_items) const {
  std::vector<std::pair<size_t, size_t>> ranges;
  if (n_items == 0) {
    return ranges;
  }
  size_t chunks = static_cast<size_t>(shard_count_);
  if (chunks > n_items) {
    chunks = n_items;
  }
  size_t base = n_items / chunks;
  size_t extra = n_items % chunks;  // first `extra` chunks get one more item
  size_t begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    size_t len = base + (c < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + len);
    begin += len;
  }
  return ranges;
}

void FunctionSharder::ParallelChunks(
    WorkQueue& wq, size_t n_items,
    const std::function<void(int, size_t, size_t)>& kernel) const {
  RunChunks(wq, Partition(n_items), kernel);
}

void FunctionSharder::RunChunks(WorkQueue& wq,
                                const std::vector<std::pair<size_t, size_t>>& ranges,
                                const std::function<void(int, size_t, size_t)>& kernel) const {
  if (ranges.empty()) {
    return;
  }
  // Chunks 1..k-1 run through a TaskGroup (scoped to this round, so several
  // kernels can share one pool without seeing each other's completion or
  // exceptions); chunk 0 runs help-first on the calling thread.
  //
  // Queue-wait observability: when tracing is on, each submitted chunk
  // carries its submission timestamp and records Submit→start latency into
  // "sharder.queue_wait_us" plus a "shard.chunk" span for the kernel run.
  // The chunk index rides in the span args, so a Perfetto view shows which
  // shard sat behind which.
  TaskGroup group(wq);
  const bool traced = trace::Enabled();
  for (size_t c = 1; c < ranges.size(); ++c) {
    const uint64_t submit_ns = traced ? MonotonicNowNs() : 0;
    group.Submit([c, submit_ns, traced, &ranges, &kernel] {
      if (traced) {
        static trace::Histogram* const queue_wait_us =
            trace::GetHistogram("sharder.queue_wait_us");
        queue_wait_us->Record((MonotonicNowNs() - submit_ns) / 1000);
        trace::Span span("shard.chunk", {"chunk", static_cast<int64_t>(c)});
        kernel(static_cast<int>(c), ranges[c].first, ranges[c].second);
        return;
      }
      kernel(static_cast<int>(c), ranges[c].first, ranges[c].second);
    });
  }
  std::exception_ptr inline_err;
  try {
    kernel(0, ranges[0].first, ranges[0].second);
  } catch (...) {
    inline_err = std::current_exception();
  }
  if (ranges.size() > 1) {
    try {
      group.Wait();
    } catch (...) {
      if (!inline_err) {
        throw;
      }
    }
  }
  if (inline_err) {
    std::rethrow_exception(inline_err);
  }
}

}  // namespace ivy
