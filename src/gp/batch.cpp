#include "gp/batch.hpp"

#include "util/thread_pool.hpp"

namespace dpr::gp {

std::vector<std::optional<GpResult>> infer_batch(
    const std::vector<BatchJob>& jobs, util::ThreadPool* pool) {
  std::vector<std::optional<GpResult>> results(jobs.size());
  auto infer_one = [&jobs, &results](std::size_t i) {
    if (jobs[i].dataset == nullptr) return;
    results[i] = infer_formula(*jobs[i].dataset, jobs[i].config);
  };
  if (pool != nullptr) {
    pool->parallel_for(jobs.size(), infer_one);
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) infer_one(i);
  }
  return results;
}

}  // namespace dpr::gp
