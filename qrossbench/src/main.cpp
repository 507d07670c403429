// qrossbench — end-to-end benchmark of the qrossd serving stack.
//
//   qrossbench --workload tune_cold|solve_open|batch_tcp --seed N
//              --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a stamp line and, as the last line of stdout, one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  Untraced runs carry the
// end-to-end metrics, traced runs the per-layer ones.  Human-readable
// notes (sample counts, the layer budget, failed checks) go to stderr.
// Normally started through run.py, which builds this binary first.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

using Catalog = std::vector<std::pair<std::string, std::string>>;

const Catalog& end_to_end_catalog() {
  static const Catalog catalog{
      {"latency_p50_ms", "ms"},   {"latency_tail_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"ok_ratio", "ratio"},      {"slo_ok_ratio", "ratio"},
      {"gap_pct", "%"},           {"setup_s", "s"},
      {"peak_rss_mb", "MiB"}};
  return catalog;
}

const Catalog& per_layer_catalog() {
  static const Catalog catalog = [] {
    Catalog c;
    for (const auto& k : qrossbench::kernel_names()) {
      c.push_back({"solvers." + k + ".calls", "count"});
      c.push_back({"solvers." + k + ".busy_ms_per_call", "ms"});
      c.push_back({"solvers." + k + ".flips_per_s", "1/s"});
      c.push_back({"solvers." + k + ".csr_bytes_per_flip", "B"});
    }
    const Catalog rest{
        {"solvers.busy_share", "ratio"},
        {"qubo.adjacency_build_us", "us"},
        {"problems.to_qubo_us", "us"},
        {"problems.mvodm_ms", "ms"},
        {"surrogate.rows_per_session", "rows"},
        {"surrogate.passes_per_session", "passes"},
        {"surrogate.combined_row_ratio", "ratio"},
        {"surrogate.predict_us_per_row", "us"},
        {"qross.solver_calls_per_session", "calls"},
        {"qross.feasible_probe_ratio", "ratio"},
        {"qross.strategy_self_ms_per_session", "ms"},
        {"service.queue_wait_p50_ms", "ms"},
        {"service.queue_wait_p99_ms", "ms"},
        {"service.cache_hit_ratio", "ratio"},
        {"service.coalesced", "count"},
        {"service.solver_invocations", "count"},
        {"service.admission_rejected", "count"},
        {"io.warm_fill_ms", "ms"},
        {"io.cache_loaded", "count"},
        {"io.cache_stored", "count"},
        {"io.journal_bytes", "B"},
        {"io.flush_ms", "ms"},
        {"net.self_p50_ms", "ms"},
        {"net.self_p99_ms", "ms"},
        {"net.stall_share", "ratio"},
        {"net.frames_per_job", "frames"},
        {"net.bytes_per_job", "bytes"},
        {"load.gen_lag_p99_ms", "ms"},
        {"obs.trace_overhead_pct", "%"}};
    c.insert(c.end(), rest.begin(), rest.end());
    for (const auto& layer : qrossbench::budget_layers()) {
      c.push_back({"budget." + layer + "_self_ms", "ms"});
    }
    c.push_back({"budget.unattributed_ms", "ms"});
    c.push_back({"budget.client_ms", "ms"});
    return c;
  }();
  return catalog;
}

int usage() {
  std::fprintf(stderr,
               "usage: qrossbench --workload tune_cold|solve_open|batch_tcp "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qrossbench;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds < 1 || args.seconds > 120) return usage();

  using RunFn = void (*)(const RunArgs&, Report&);
  RunFn run = nullptr;
  if (args.workload == "tune_cold") run = run_tune_cold;
  if (args.workload == "solve_open") run = run_solve_open;
  if (args.workload == "batch_tcp") run = run_batch_tcp;
  if (run == nullptr) return usage();

  // Sockets and cache files live in a fresh per-process directory under
  // the work dir, removed again on exit; trace artifacts stay beside it.
  const std::string artifact_root = args.work_dir;
  args.work_dir += "/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{args.work_dir};
  const Catalog& catalog =
      args.trace ? per_layer_catalog() : end_to_end_catalog();
  Report report;
  try {
    run(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qrossbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  std::cout << stamp_json(args, report.simd) << "\n"
            << report.json(catalog) << std::endl;
  return 0;
}
