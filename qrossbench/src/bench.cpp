#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/stats.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace qrossbench {

// --- report ------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& entry : metrics_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::unused(const std::vector<std::string>& names) {
  for (const auto& name : names) {
    check(std::none_of(metrics_.begin(), metrics_.end(),
                       [&](const auto& m) { return m.first == name; }),
          "metric " + name + " was produced but declared unused");
    metric(name, 0.0, "");
  }
}

void Report::note(const std::string& line) const {
  std::fprintf(stderr, "%s\n", line.c_str());
}

std::string Report::json(
    const std::vector<std::pair<std::string, std::string>>& catalog) {
  std::ostringstream body;
  body.precision(17);
  bool first = true;
  for (const auto& [name, unit] : catalog) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const auto& m) { return m.first == name; });
    check(it != metrics_.end(), "metric " + name + " was not produced");
    const double value = it == metrics_.end() ? 0.0 : it->second.first;
    check(std::isfinite(value), "metric " + name + " is not finite");
    body << (first ? "" : ", ") << '"' << name
         << "\": {\"value\": " << (std::isfinite(value) ? value : 0.0)
         << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  for (const auto& [name, value] : metrics_) {
    check(std::any_of(catalog.begin(), catalog.end(),
                      [&](const auto& c) { return c.first == name; }),
          "metric " + name + " is not in the catalog");
  }
  check(attempted >= 1, "the run attempted no operation");
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
      << ", \"failed\": " << failed << ", \"metrics\": {" << body.str()
      << "}}";
  return out.str();
}

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  return qross::quantile(values, q);
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : sum(values) / static_cast<double>(values.size());
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double histogram_sum(const std::string& name) {
  std::istringstream text(qross::obs::registry().render_prometheus());
  std::string line;
  while (std::getline(text, line)) {
    if (line.rfind(name + "_sum ", 0) == 0) {
      return std::stod(line.substr(name.size() + 5));
    }
  }
  return 0.0;
}

// --- kernels -----------------------------------------------------------------

namespace {

constexpr std::size_t kSampleModelsPerKernel = 6;

std::uint64_t call_key(const qubo::QuboModel& model,
                       const solvers::SolveOptions& options) {
  qross::Hash64 hash;
  hash.mix(static_cast<std::uint64_t>(model.num_vars()));
  hash.mix(model.offset());
  for (const double v : model.raw()) hash.mix(v);
  hash.mix(static_cast<std::uint64_t>(options.num_replicas));
  hash.mix(static_cast<std::uint64_t>(options.num_sweeps));
  hash.mix(options.seed);
  return hash.digest();
}

/// CSR bytes one flip attempt reads on average for `model`, computed from
/// its nonzero count.
double csr_bytes_per_flip(const qubo::QuboModel& model) {
  const std::size_t n = model.num_vars();
  if (n == 0) return 0.0;
  std::size_t interactions = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (model.coefficient(i, j) != 0.0) ++interactions;
    }
  }
  const double mean_degree =
      2.0 * static_cast<double>(interactions) / static_cast<double>(n);
  // Per attempt: deg x (u32 column + f64 weight), two row pointers, the
  // diagonal coefficient.
  return mean_degree * 12.0 + 2.0 * sizeof(std::size_t) + sizeof(double);
}

}  // namespace

solvers::SolverPtr KernelLedger::resolve(const std::string& name) {
  auto inner = net::default_solver_registry(name);
  if (inner == nullptr) return nullptr;
  return std::make_shared<TimedSolver>(std::move(inner), this);
}

void KernelLedger::record(const std::string& kernel,
                          const qubo::QuboModel& model,
                          const solvers::SolveOptions& options,
                          const qubo::SolveBatch& batch,
                          Clock::time_point start, Clock::time_point end) {
  const double flips = static_cast<double>(options.num_replicas) *
                       static_cast<double>(options.num_sweeps) *
                       static_cast<double>(model.num_vars());
  double bytes = 0.0;
  std::uint64_t key = 0;
  if (trace_) {
    qross::obs::TraceRecorder::instance().record_span(
        "kernel_call", "bench.solvers", start, end);
    bytes = flips * csr_bytes_per_flip(model);
    key = call_key(model, options);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Row& row = rows_[kernel];
  ++row.calls;
  row.busy_ms += ms_between(start, end);
  row.flips += flips;
  row.csr_bytes += bytes;
  if (trace_) {
    auto& samples = samples_[kernel];
    if (samples.size() < kSampleModelsPerKernel) samples.push_back(model);
    batches_.emplace(key, batch);
  }
}

std::map<std::string, KernelLedger::Row> KernelLedger::rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_;
}

double KernelLedger::total_busy_ms() const {
  double total = 0.0;
  for (const auto& [name, row] : rows()) total += row.busy_ms;
  return total;
}

std::uint64_t KernelLedger::total_calls() const {
  std::uint64_t total = 0;
  for (const auto& [name, row] : rows()) total += row.calls;
  return total;
}

std::vector<qubo::QuboModel> KernelLedger::sample_models() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<qubo::QuboModel> out;
  for (const auto& [name, models] : samples_) {
    out.insert(out.end(), models.begin(), models.end());
  }
  return out;
}

std::optional<qubo::SolveBatch> KernelLedger::recorded_batch(
    const qubo::QuboModel& model, const solvers::SolveOptions& options) const {
  const auto key = call_key(model, options);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = batches_.find(key);
  if (it == batches_.end()) return std::nullopt;
  return it->second;
}

void KernelLedger::reset(bool trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_ = trace;
  rows_.clear();
  samples_.clear();
  batches_.clear();
}

qubo::SolveBatch TimedSolver::solve(const qubo::QuboModel& model,
                                    const solvers::SolveOptions& options) const {
  const auto start = Clock::now();
  qubo::SolveBatch batch = inner_->solve(model, options);
  ledger_->record(inner_->name(), model, options, batch, start, Clock::now());
  return batch;
}

// --- serving stack -----------------------------------------------------------

Stack::Stack(const StackConfig& config, KernelLedger* ledger) {
  service::ServiceConfig service_config;
  service_config.num_workers = kWorkers;
  service_config.cache_capacity = config.cache_capacity;
  service_config.cache_path = config.cache_path;
  const auto t0 = Clock::now();
  service_ = std::make_unique<service::SolveService>(service_config);
  warm_fill_ms_ = ms_between(t0, Clock::now());

  net::ServerConfig server_config;
  server_config.listen.push_back(*net::Endpoint::parse(config.listen));
  server_config.registry = [ledger](const std::string& name) {
    return ledger->resolve(name);
  };
  if (config.tuner != nullptr) {
    service::TuneServiceConfig tune_config;
    tune_config.max_sessions = config.max_sessions;
    tune_ = std::make_unique<service::TuneService>(*config.tuner, *service_,
                                                   tune_config);
    server_config.tune = tune_.get();
  }
  server_ = std::make_unique<net::Server>(*service_, server_config);
  std::string error;
  if (!server_->start(&error)) {
    throw std::runtime_error("server start failed: " + error);
  }
  endpoint_ = server_->endpoints().front();
}

Stack::~Stack() {
  server_->stop();
  server_.reset();
  tune_.reset();
  service_.reset();
}

Baseline Baseline::take(Stack& stack) {
  Baseline base;
  base.service = stack.service().metrics();
  base.server = stack.server().stats();
  base.queue_wait_ms = histogram_sum("qross_queue_wait_ms");
  if (stack.tune() != nullptr) {
    base.surrogate = stack.tune()->metrics().surrogate;
  }
  return base;
}

double Baseline::frames_since(Stack& stack) const {
  const auto now = stack.server().stats();
  return static_cast<double>((now.frames_received - server.frames_received) +
                             (now.frames_sent - server.frames_sent));
}

std::unique_ptr<net::Client> connect_client(const net::Endpoint& endpoint,
                                            const std::string& client_id) {
  net::ClientConfig config;
  config.server = endpoint;
  config.client_id = client_id;
  // A closed-loop or open-loop measurement never redials: a lost connection
  // is a failed run, not something to smooth over.
  config.reconnect_attempts = 1;
  config.reconnect_backoff_ms = 0;
  auto client = std::make_unique<net::Client>(config);
  std::string error;
  if (!client->connect(&error)) {
    throw std::runtime_error("connect failed: " + error);
  }
  return client;
}

bool same_batch(const qubo::SolveBatch& a, const qubo::SolveBatch& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& x = a.results[i];
    const auto& y = b.results[i];
    if (x.assignment != y.assignment) return false;
    if (std::bit_cast<std::uint64_t>(x.qubo_energy) !=
        std::bit_cast<std::uint64_t>(y.qubo_energy)) {
      return false;
    }
  }
  return true;
}

void Budget::emit(Report& report) const {
  for (const auto& [layer, value] : self_ms) {
    report.check(std::find(budget_layers().begin(), budget_layers().end(),
                           layer) != budget_layers().end(),
                 "budget layer " + layer + " is not a known layer");
  }
  double attributed = 0.0;
  std::string line = "budget (mean ms per op): client " +
                     std::to_string(client_ms);
  for (const auto& layer : budget_layers()) {
    const auto it = self_ms.find(layer);
    const double value = it == self_ms.end() ? 0.0 : it->second;
    attributed += value;
    report.metric("budget." + layer + "_self_ms", value, "ms");
    line += " | " + layer + " " + std::to_string(value);
  }
  const double rest = client_ms - attributed;
  report.metric("budget.unattributed_ms", rest, "ms");
  report.metric("budget.client_ms", client_ms, "ms");
  report.note(line + " | unattributed " + std::to_string(rest));
}

std::string write_trace_artifact(const RunArgs& args) {
  const std::filesystem::path dir =
      std::filesystem::path(args.work_dir).parent_path() / "artifacts";
  std::filesystem::create_directories(dir);
  const auto path =
      dir / (args.workload + "-seed" + std::to_string(args.seed) +
             ".trace.json");
  std::ofstream out(path);
  out << qross::obs::chrome_trace_json(qross::obs::TraceRecorder::instance());
  return path.string();
}

std::string stamp_json(const RunArgs& args, const std::string& simd) {
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream out;
  out << "{\"stamp\": {\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"simd\": \"" << simd << "\", \"compiler\": \"" << compiler
      << "\", \"build_type\": \"" << QROSSBENCH_BUILD_TYPE
      << "\", \"workload\": \"" << args.workload << "\", \"seed\": "
      << args.seed << ", \"seconds\": " << args.seconds
      << ", \"trace\": " << (args.trace ? 1 : 0) << "}}";
  return out.str();
}

}  // namespace qrossbench
