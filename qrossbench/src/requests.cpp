#include "requests.hpp"

#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "problems/tsp/exact.hpp"
#include "problems/tsp/generators.hpp"

namespace qrossbench {
namespace {

struct KernelShape {
  std::uint32_t replicas;
  std::uint32_t sweeps;
};

/// Per-kernel batch shapes chosen so no kernel's calls dominate the mix by
/// more than a few times (DA evaluates every variable per step).
KernelShape shape_of(const std::string& kernel) {
  if (kernel == "da") return {4, 20};
  if (kernel == "qbsolv") return {8, 30};
  if (kernel == "tabu") return {16, 50};
  return {16, 60};  // sa, pt
}

}  // namespace

TspRequest draw_request(std::uint64_t seed) {
  qross::Rng rng(seed);
  const std::size_t cities = 5 + rng.uniform_int(std::uint64_t{4});
  const auto& kernel = kernel_names()[rng.uniform_int(kernel_names().size())];
  TspRequest request{tsp::generate_uniform(cities, derive_seed(seed, 1)),
                     std::exp(rng.uniform(std::log(8.0), std::log(80.0))),
                     0.0,
                     nullptr,
                     {}};
  request.optimum = tsp::solve_held_karp(request.instance).length;
  const auto shape = shape_of(kernel);
  request.job.solver = kernel;
  request.job.num_replicas = shape.replicas;
  request.job.num_sweeps = shape.sweeps;
  request.job.seed = derive_seed(seed, 2);
  return request;
}

void prepare(TspRequest& request) {
  request.prepared = std::make_shared<const surrogate::PreparedTspInstance>(
      request.instance);
  request.job.model = request.prepared->problem().to_qubo(request.a);
}

solvers::SolveOptions solve_options(const net::RemoteJob& job) {
  solvers::SolveOptions options;
  options.num_replicas = job.num_replicas;
  options.num_sweeps = job.num_sweeps;
  options.seed = job.seed;
  return options;
}

WireCost replay_wire(const net::RemoteJob& job,
                     std::shared_ptr<const qubo::SolveBatch> batch) {
  constexpr double kRecordHeaderBytes = 16;
  net::SubmitJobFrame submit;
  submit.solver = job.solver;
  submit.num_replicas = job.num_replicas;
  submit.num_sweeps = job.num_sweeps;
  submit.seed = job.seed;
  submit.model = job.model;
  net::ResultFrame result;
  result.batch = std::move(batch);
  const auto submit_bytes = net::encode_submit(submit);
  const auto result_bytes = net::encode_result(result);
  WireCost cost;
  cost.bytes = static_cast<double>(submit_bytes.size() + result_bytes.size()) +
               2 * kRecordHeaderBytes;
  cost.codec_us = replay_us(3, [&] { net::decode_submit(submit_bytes); }) +
                  replay_us(3, [&] { net::encode_result(result); }) +
                  replay_us(3, [&] { net::decode_result(result_bytes); });
  return cost;
}

std::optional<double> best_gap_pct(const TspRequest& request,
                                   const qubo::SolveBatch& batch) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& r : batch.results) {
    best = std::min(best, request.prepared->original_tour_length(r.assignment));
  }
  if (!std::isfinite(best)) return std::nullopt;
  const double excess = best - request.optimum;
  if (std::abs(excess) <= 1e-9 * request.optimum) return 0.0;
  return 100.0 * excess / request.optimum;
}

}  // namespace qrossbench
