#pragma once

// The three workloads and the metric helpers they share.

#include <string>
#include <vector>

#include "bench.hpp"

namespace qrossbench {

void run_tune_cold(const RunArgs& args, Report& report);
void run_solve_open(const RunArgs& args, Report& report);
void run_batch_tcp(const RunArgs& args, Report& report);

/// Trace ring size for traced passes (events; ~56 B each).  The server's
/// per-sweep instants dominate it, so the artifact holds the newest events.
inline constexpr std::size_t kTraceCapacity = 1u << 18;

/// Every end-to-end metric, identical names and units on each workload.
/// `latency_ms` holds one client-observed latency per operation; the tail
/// is its `tail_q` quantile (the highest one with >= 10 samples beyond).
/// `ok_within_slo` counts ok operations done within the workload's fixed
/// latency limit; failed ones never meet it.
void emit_end_to_end(Report& report, const std::vector<double>& latency_ms,
                     double wall_s, std::size_t ok, std::size_t attempted,
                     double tail_q, std::size_t ok_within_slo,
                     double gap_pct, const std::vector<double>& setup_s);

/// solvers.<k>.* rows for every kernel plus solvers.busy_share.
void emit_kernel_rows(const KernelLedger& ledger,
                      service::SolveService& service, double wall_s,
                      Report& report);

/// service.cache_hit_ratio, .coalesced, .solver_invocations and
/// .admission_rejected over a pass: the change from `before` to `after`.
void emit_service_counters(const service::ServiceMetrics& before,
                           const service::ServiceMetrics& after,
                           Report& report);

/// Replays the CSR adjacency build on models the run's kernels saw;
/// reports qubo.adjacency_build_us and returns it.
double emit_adjacency_replay(const KernelLedger& ledger, Report& report);

}  // namespace qrossbench
