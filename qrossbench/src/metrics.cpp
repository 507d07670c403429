#include <algorithm>

#include "qubo/sparse.hpp"
#include "workloads.hpp"

namespace qrossbench {

void emit_end_to_end(Report& report, const std::vector<double>& latency_ms,
                     double wall_s, std::size_t ok, std::size_t attempted,
                     double tail_q, std::size_t ok_within_slo,
                     double gap_pct, const std::vector<double>& setup_s) {
  const double n = static_cast<double>(std::max<std::size_t>(attempted, 1));
  report.metric("latency_p50_ms", percentile(latency_ms, 0.50), "ms");
  report.metric("latency_tail_ms", percentile(latency_ms, tail_q), "ms");
  report.metric("throughput_per_s", static_cast<double>(ok) / wall_s, "1/s");
  report.metric("ok_ratio", static_cast<double>(ok) / n, "ratio");
  report.metric("slo_ok_ratio", static_cast<double>(ok_within_slo) / n,
                "ratio");
  report.metric("gap_pct", gap_pct, "%");
  report.metric("setup_s", percentile(setup_s, 0.5), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  report.note("latency samples " + std::to_string(latency_ms.size()) +
              ", tail = p" + std::to_string(static_cast<int>(tail_q * 100)) +
              " with " +
              std::to_string(static_cast<std::size_t>(
                  static_cast<double>(latency_ms.size()) * (1.0 - tail_q))) +
              " beyond");
  std::string setups = "set-ups (s):";
  for (const double s : setup_s) {
    setups += ' ';
    setups += std::to_string(s);
  }
  report.note(setups);
}

void emit_kernel_rows(const KernelLedger& ledger,
                      service::SolveService& service, double wall_s,
                      Report& report) {
  const auto rows = ledger.rows();
  for (const auto& k : kernel_names()) {
    const auto it = rows.find(k);
    const KernelLedger::Row row = it == rows.end() ? KernelLedger::Row{}
                                                   : it->second;
    const double calls = static_cast<double>(row.calls);
    const std::string prefix = "solvers." + k + ".";
    report.metric(prefix + "calls", calls, "count");
    report.metric(prefix + "busy_ms_per_call",
                  calls > 0 ? row.busy_ms / calls : 0.0, "ms");
    report.metric(prefix + "flips_per_s",
                  row.busy_ms > 0 ? row.flips / (row.busy_ms / 1e3) : 0.0,
                  "1/s");
    report.metric(prefix + "csr_bytes_per_flip",
                  row.flips > 0 ? row.csr_bytes / row.flips : 0.0, "B");
  }
  report.metric("solvers.busy_share",
                ledger.total_busy_ms() /
                    (static_cast<double>(service.num_workers()) * wall_s * 1e3),
                "ratio");
}

void emit_service_counters(const service::ServiceMetrics& before,
                           const service::ServiceMetrics& after,
                           Report& report) {
  const auto delta = [](auto now, auto then) {
    return static_cast<double>(now - then);
  };
  report.metric("service.cache_hit_ratio",
                delta(after.cache_hits, before.cache_hits) /
                    std::max(1.0, delta(after.submitted, before.submitted)),
                "ratio");
  report.metric("service.coalesced", delta(after.coalesced, before.coalesced),
                "count");
  report.metric("service.solver_invocations",
                delta(after.solver_invocations, before.solver_invocations),
                "count");
  report.metric("service.admission_rejected",
                delta(after.admission_rejected, before.admission_rejected),
                "count");
}

double emit_adjacency_replay(const KernelLedger& ledger, Report& report) {
  std::vector<double> times;
  for (const auto& model : ledger.sample_models()) {
    times.push_back(
        replay_us(5, [&] { qubo::SparseAdjacency::build(model); }));
  }
  const double us = mean(times);
  report.metric("qubo.adjacency_build_us", us, "us");
  return us;
}

}  // namespace qrossbench
