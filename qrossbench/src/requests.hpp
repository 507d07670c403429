#pragma once

// Seeded TSP-relaxation solve requests shared by solve_open and batch_tcp:
// a uniform 5-8-city instance, its QUBO relaxation at a log-uniform A in
// [8, 80], one of the five kernels, and the Held-Karp optimum that turns a
// returned batch into an optimality gap.

#include <cstdint>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "problems/tsp/instance.hpp"
#include "surrogate/pipeline.hpp"

namespace qrossbench {

struct TspRequest {
  tsp::TspInstance instance;
  double a = 0.0;
  double optimum = 0.0;  ///< Held-Karp length of `instance`
  std::shared_ptr<const surrogate::PreparedTspInstance> prepared;
  net::RemoteJob job;  ///< model filled in by prepare()
};

/// Everything but the model, derived from `seed` alone: equal seeds give
/// byte-identical requests (and so equal service fingerprints).
TspRequest draw_request(std::uint64_t seed);

/// The client's part of building a request: MVODM-prepare the instance and
/// build its QUBO relaxation at the request's A.
void prepare(TspRequest& request);

/// The SolveOptions the server derives from the request's wire fields.
solvers::SolveOptions solve_options(const net::RemoteJob& job);

/// Wire cost of one solve job, replayed on its own frames: bytes of the
/// SubmitJob and Result frames (with record headers) and the time of the
/// server's decode of the request, its encode of the result and the
/// client's decode of the result.
struct WireCost {
  double bytes = 0.0;
  double codec_us = 0.0;
};
WireCost replay_wire(const net::RemoteJob& job,
                     std::shared_ptr<const qubo::SolveBatch> batch);

/// % of the batch's best feasible tour (original metric) above the optimum,
/// nullopt when no sample is feasible.  Ties up to rounding count as 0; a
/// negative value means the batch beat Held-Karp, which is a bug.
std::optional<double> best_gap_pct(const TspRequest& request,
                                   const qubo::SolveBatch& batch);

}  // namespace qrossbench
