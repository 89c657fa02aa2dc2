#pragma once
// Fleet-level GP fan-out: each (vehicle, DID) dataset is an independent
// inference problem, so a campaign scatters them across a thread pool
// instead of inferring one formula at a time. Each job carries its own
// GpConfig (seed included), so a batch produces exactly the results the
// equivalent serial loop would.

#include <optional>
#include <vector>

#include "correlate/correlate.hpp"
#include "gp/engine.hpp"

namespace dpr::util {
class ThreadPool;
}

namespace dpr::gp {

/// One unit of work: a dataset plus the fully-resolved config (including
/// the per-signal seed perturbation) to infer it with.
struct BatchJob {
  const correlate::Dataset* dataset = nullptr;
  GpConfig config;
};

/// Infer every job; results[i] corresponds to jobs[i]. With a pool the
/// jobs run through its parallel_for, without one in a serial loop; jobs
/// never share state, so the results are the same either way.
std::vector<std::optional<GpResult>> infer_batch(
    const std::vector<BatchJob>& jobs, util::ThreadPool* pool = nullptr);

}  // namespace dpr::gp
