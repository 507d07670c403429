#pragma once

// Shared pieces of the qrossbench workloads: the run report, the timing
// solver decorator every kernel call goes through, the in-process serving
// stack (SolveService + TuneService + net::Server), and small statistics
// helpers.  Everything here measures the program from outside, through the
// public functions of each module; nothing under src/ is instrumented for
// the benchmark's sake.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "qross/facade.hpp"
#include "service/solve_service.hpp"
#include "service/tune_service.hpp"
#include "solvers/solver.hpp"
#include "common/rng.hpp"

namespace qrossbench {

namespace core = qross::core;
}  // namespace qrossbench
namespace qross::load {}
namespace qrossbench {
namespace net = qross::net;
namespace obs = qross::obs;
namespace qubo = qross::qubo;
namespace service = qross::service;
namespace solvers = qross::solvers;
namespace surrogate = qross::surrogate;
namespace tsp = qross::tsp;
namespace load = qross::load;
using qross::derive_seed;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line inputs of one run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// Per-process working directory for sockets and cache files, relative
  /// to the checkout root; trace artifacts go to its parent's artifacts/.
  std::string work_dir = ".bench_build/work";
};

/// What one run prints: correctness, operation counts and named metrics.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A failing check makes the run incorrect; the reason goes to stderr.
  void check(bool ok, const std::string& what);
  /// Declares catalog metrics of layers this workload never touches; they
  /// print as 0.  Any other catalog metric the run did not produce, and
  /// any name outside the catalog, still makes the run incorrect.
  void unused(const std::vector<std::string>& names);
  /// A human-readable line for stderr (sample counts, stamps, budgets).
  void note(const std::string& line) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// SIMD arm the service ran (ServiceMetrics::simd_kernel), for the stamp.
  std::string simd = "unknown";

  /// The single-line result object printed last: exactly the metrics
  /// of `catalog` (name, unit), in its order.  A catalog metric the run
  /// neither produced nor declared unused, or a produced metric outside
  /// the catalog, makes the run incorrect.
  std::string json(
      const std::vector<std::pair<std::string, std::string>>& catalog);

 private:
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double sum(const std::vector<double>& values);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Median of several timings of `fn` (replays of a layer's public call on
/// the workload's own inputs), in microseconds.
template <typename Fn>
double replay_us(int repeats, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  return percentile(std::move(times), 0.5);
}

/// Exact `<name>_sum` of a registry histogram, read from the Prometheus
/// exposition (the registry is process-wide; take deltas).
double histogram_sum(const std::string& name);

// --- kernels -----------------------------------------------------------------

inline const std::vector<std::string>& kernel_names() {
  static const std::vector<std::string> names{"sa", "da", "tabu", "pt",
                                              "qbsolv"};
  return names;
}

/// Per-kernel call ledger fed by TimedSolver.  Thread-safe: solve workers
/// record concurrently.
class KernelLedger {
 public:
  struct Row {
    std::uint64_t calls = 0;
    double busy_ms = 0.0;
    /// Nominal variable-update attempts: replicas x sweeps x variables, as
    /// requested (not counted inside the kernel).
    double flips = 0.0;
    /// CSR adjacency bytes those attempts read, computed from each model's
    /// nonzero count (traced runs only).
    double csr_bytes = 0.0;
  };

  /// Registry hook: the built-in kernel for `name`, wrapped in a timer.
  solvers::SolverPtr resolve(const std::string& name);

  void record(const std::string& kernel, const qubo::QuboModel& model,
              const solvers::SolveOptions& options,
              const qubo::SolveBatch& batch, Clock::time_point start,
              Clock::time_point end);

  std::map<std::string, Row> rows() const;
  double total_busy_ms() const;
  std::uint64_t total_calls() const;
  /// Up to a few models per kernel seen in this run (traced runs only), for
  /// replaying the adjacency build.
  std::vector<qubo::QuboModel> sample_models() const;
  /// The batch a traced call returned for (model, options), if recorded.
  std::optional<qubo::SolveBatch> recorded_batch(
      const qubo::QuboModel& model, const solvers::SolveOptions& options) const;
  /// Clears the ledger; `trace` turns on spans, byte counts and the
  /// recording of models and batches for replay.
  void reset(bool trace);

 private:
  bool trace_ = false;
  mutable std::mutex mutex_;
  std::map<std::string, Row> rows_;
  std::map<std::string, std::vector<qubo::QuboModel>> samples_;
  std::map<std::uint64_t, qubo::SolveBatch> batches_;
};

/// Decorator timing every solve() of the wrapped kernel.  name() and
/// config_digest() forward, so result-cache fingerprints are unchanged.
class TimedSolver final : public solvers::QuboSolver {
 public:
  TimedSolver(solvers::SolverPtr inner, KernelLedger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  std::string name() const override { return inner_->name(); }
  std::uint64_t config_digest() const override {
    return inner_->config_digest();
  }
  qubo::SolveBatch solve(const qubo::QuboModel& model,
                         const solvers::SolveOptions& options) const override;

 private:
  solvers::SolverPtr inner_;
  KernelLedger* ledger_;
};

// --- serving stack -----------------------------------------------------------

struct StackConfig {
  std::string listen;  ///< "unix:<path>" or "tcp:127.0.0.1:0"
  std::size_t cache_capacity = 256;
  std::string cache_path;
  /// When set, a TuneService around this tuner serves SubmitTune frames.
  const core::QrossTuner* tuner = nullptr;
  std::size_t max_sessions = 2;
};

/// SolveService (2 workers, kernels single-threaded) + optional TuneService
/// + net::Server, every kernel resolved through `ledger`.
class Stack {
 public:
  Stack(const StackConfig& config, KernelLedger* ledger);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  net::Endpoint endpoint() const { return endpoint_; }
  service::SolveService& service() { return *service_; }
  service::TuneService* tune() { return tune_.get(); }
  net::Server& server() { return *server_; }
  /// How long the SolveService constructor took: with a cache_path, the
  /// warm fill from the persisted snapshot.
  double warm_fill_ms() const { return warm_fill_ms_; }

  static constexpr std::size_t kWorkers = 2;

 private:
  std::unique_ptr<service::SolveService> service_;
  std::unique_ptr<service::TuneService> tune_;
  std::unique_ptr<net::Server> server_;
  net::Endpoint endpoint_;
  double warm_fill_ms_ = 0.0;
};

/// Counters when a measured pass starts; per-pass figures are deltas, since
/// warm-up traffic runs on the same stack.
struct Baseline {
  service::ServiceMetrics service;
  net::ServerStats server;
  double queue_wait_ms = 0.0;  ///< qross_queue_wait_ms sum (process-wide)
  surrogate::BatchedSurrogate::Stats surrogate;

  static Baseline take(Stack& stack);
  /// Frames received plus sent since the baseline.
  double frames_since(Stack& stack) const;
};

/// A connected client (throws std::runtime_error on failure).
std::unique_ptr<net::Client> connect_client(const net::Endpoint& endpoint,
                                            const std::string& client_id);

/// True when both batches hold the same assignments and bit-equal energies.
bool same_batch(const qubo::SolveBatch& a, const qubo::SolveBatch& b);

/// Per-op layer budget: each layer's mean self time plus the remainder.
struct Budget {
  double client_ms = 0.0;  ///< mean client-observed latency per op
  std::map<std::string, double> self_ms;  ///< layer -> mean self time
  void emit(Report& report) const;
};

/// Layers of the budget, in print order.
inline const std::vector<std::string>& budget_layers() {
  static const std::vector<std::string> layers{
      "load", "net", "service", "qubo", "solvers", "problems", "surrogate",
      "qross", "io"};
  return layers;
}

/// Writes the recorder's buffer as Chrome trace JSON; returns the path.
std::string write_trace_artifact(const RunArgs& args);

/// Builds the in-process run stamp (nproc, SIMD arm, compiler, build type,
/// seed) as one JSON object.
std::string stamp_json(const RunArgs& args, const std::string& simd);

}  // namespace qrossbench
