// tune_cold — closed loop of remote tuning sessions (the paper's product).
//
// Two connections each run a fixed list of composed-strategy sessions on
// the `da` kernel.  Every session has its own seed, so no probe ever hits
// the result cache: each of the session's trials is a real kernel call, and
// `solvers`, `qross` and `surrogate` do nearly all the work while `net`
// carries two frames per trial.  Instances are small enough for Held-Karp,
// so solution quality is an exact gap to the optimum.

#include <cmath>
#include <thread>

#include "obs/trace.hpp"
#include "problems/tsp/exact.hpp"
#include "problems/tsp/generators.hpp"
#include "problems/tsp/preprocess.hpp"
#include "surrogate/pipeline.hpp"
#include "workloads.hpp"

namespace qrossbench {
namespace {

constexpr std::size_t kConnections = 2;
/// Nominal session rate per connection the op count is sized from (so a
/// run lasts about --seconds on a 4-vCPU x86 VM); never measured at run
/// time, so both sides of a comparison run identical sessions.
constexpr double kSessionsPerSecondPerConnection = 9.0;
constexpr std::uint32_t kTrials = 6;
constexpr std::size_t kMinCities = 11;
constexpr std::size_t kMaxCities = 12;
constexpr std::size_t kHistoryInstances = 8;
/// Sessions per run support a p90 (>= 10 sessions beyond it), not a p99.
constexpr double kTailQuantile = 0.90;
constexpr double kSloMs = 1000.0;
/// Untimed runs are this many rounds of set-up, warm-up and an equal share
/// of the sessions, so the set-ups behind setup_s's median are spread over
/// the whole run instead of sampling one of the host's speed streaks.
constexpr std::size_t kRounds = 6;
/// Traced runs alternate untraced and traced windows of sessions on one
/// stack, for obs.trace_overhead_pct.
constexpr std::size_t kTraceWindows = 20;
constexpr std::size_t kReplaySessions = 24;

solvers::SolveOptions probe_options() {
  solvers::SolveOptions options;
  options.num_replicas = 4;
  options.num_sweeps = 12;
  options.seed = 5;
  options.num_threads = 1;
  return options;
}

/// The tuner is the same deployed model on every run: its training history
/// is fixed, so the seed varies the traffic (instances, session seeds) and
/// not the model serving it.
constexpr std::uint64_t kHistorySeed = 0x51524f5353;

core::QrossTuner train_tuner() {
  surrogate::SweepConfig sweep;
  sweep.slope_points = 5;
  sweep.plateau_points = 1;
  sweep.bisection_steps = 3;
  surrogate::SurrogateConfig config;
  config.pf_training.max_epochs = 800;
  config.pf_training.patience = 800;
  config.energy_training.max_epochs = 300;
  return core::QrossTuner::fit(
      tsp::generate_synthetic_dataset(kHistoryInstances, kMinCities,
                                      kMaxCities, kHistorySeed),
      net::default_solver_registry("da"), probe_options(), sweep, config);
}

struct Session {
  tsp::TspInstance instance;  ///< as the server sees it (distances only)
  double optimum = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t trace_id = 0;
};

std::vector<Session> make_sessions(std::size_t count, std::uint64_t seed,
                                   std::uint64_t first_trace_id) {
  const auto instances = tsp::generate_synthetic_dataset(
      count, kMinCities, kMaxCities, derive_seed(seed, 0x42));
  std::vector<Session> sessions;
  sessions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Session s{net::unpack_tsp_instance(net::pack_tsp_instance(instances[i]),
                                       "tune-" + std::to_string(i)),
              0.0, derive_seed(seed, 0x1000 + i), first_trace_id + i};
    s.optimum = tsp::solve_held_karp(s.instance).length;
    sessions.push_back(std::move(s));
  }
  return sessions;
}

net::RemoteTune request_for(const Session& s) {
  net::RemoteTune tune;
  tune.solver = "da";
  tune.instance = net::pack_tsp_instance(s.instance);
  tune.strategy = net::kTuneComposed;
  tune.trials = kTrials;
  tune.a_min = 1.0;
  tune.a_max = 100.0;
  tune.seed = s.seed;
  tune.trace_id = s.trace_id;
  tune.instance_name = s.instance.name();
  return tune;
}

struct Outcome {
  bool ok = false;
  double latency_ms = 0.0;
  net::TuneResultFrame result;
};

/// Runs sessions begin + conn, begin + conn + kConnections, ... below `end`
/// on its own client, one after the other.
void run_connection(const net::Endpoint& endpoint, std::size_t conn,
                    const std::vector<Session>& sessions, std::size_t begin,
                    std::size_t end, bool trace,
                    std::vector<Outcome>* outcomes) {
  auto client = connect_client(endpoint, "tune-" + std::to_string(conn));
  for (std::size_t i = begin + conn; i < end; i += kConnections) {
    Outcome& out = (*outcomes)[i];
    const auto request = request_for(sessions[i]);
    const auto t0 = Clock::now();
    auto tag = client->submit_tune(request);
    std::optional<net::RemoteOutcome<net::TuneResultFrame>> result;
    if (tag.ok()) result = client->tune_wait(tag.value());
    const auto t1 = Clock::now();
    out.latency_ms = ms_between(t0, t1);
    if (trace) {
      obs::TraceRecorder::instance().record_span(
          "tune_session", "bench.client", t0, t1, 0, sessions[i].trace_id);
    }
    if (!result.has_value() || !result->ok()) continue;
    out.ok = result->value().status == net::kTuneDone;
    out.result = std::move(*result).value();
  }
}

struct Pass {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
};

/// Runs sessions [begin, end) of `sessions` into `pass` (sized for all of
/// them) and adds the range's wall time to pass->wall_s.
void run_range(Stack& stack, const std::vector<Session>& sessions,
               std::size_t begin, std::size_t end, bool trace, Pass* pass) {
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(run_connection, stack.endpoint(), c,
                         std::cref(sessions), begin, end, trace,
                         &pass->outcomes);
  }
  for (auto& t : threads) t.join();
  pass->wall_s += ms_between(start, Clock::now()) / 1e3;
}

Pass run_pass(Stack& stack, const std::vector<Session>& sessions) {
  Pass pass;
  pass.outcomes.resize(sessions.size());
  run_range(stack, sessions, 0, sessions.size(), false, &pass);
  return pass;
}

/// Checks every outcome; returns the per-session gaps of the valid ones.
std::vector<double> verify(const std::vector<Session>& sessions,
                           const Pass& pass, Report& report,
                           std::size_t* ok_count,
                           std::size_t* within_slo = nullptr) {
  std::vector<double> gaps;
  *ok_count = 0;
  if (within_slo != nullptr) *within_slo = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto& out = pass.outcomes[i];
    const auto& s = sessions[i];
    if (!out.ok) {
      report.note("tune session " + std::to_string(i) + " failed");
      continue;
    }
    const auto& r = out.result;
    std::vector<std::size_t> tour(r.best_tour.begin(), r.best_tour.end());
    if (tour.empty()) {
      // Served, but no feasible tour: not the product, so not ok.
      report.note("tune session " + std::to_string(i) + " found no tour");
      continue;
    }
    const bool valid = s.instance.is_valid_tour(tour);
    report.check(valid, "session " + std::to_string(i) +
                            " best tour is not a valid tour");
    if (!valid) continue;
    const double length = s.instance.tour_length(tour);
    report.check(std::abs(length - r.best_length) <= 1e-9 * length,
                 "session " + std::to_string(i) +
                     " best tour length differs from the reported length");
    report.check(r.trials.size() == kTrials,
                 "session " + std::to_string(i) + " ran " +
                     std::to_string(r.trials.size()) + " trials");
    report.check(length >= s.optimum * (1.0 - 1e-9),
                 "session " + std::to_string(i) + " beat the optimum");
    ++*ok_count;
    if (within_slo != nullptr && out.latency_ms <= kSloMs) ++*within_slo;
    // Ties with the optimum up to rounding count as a zero gap.
    const double excess = length - s.optimum;
    gaps.push_back(excess <= 1e-9 * s.optimum ? 0.0
                                              : 100.0 * excess / s.optimum);
  }
  return gaps;
}

/// Returns the batch a traced kernel call recorded for each call, so a
/// session replays in-process without running a kernel.
class ReplaySolver final : public solvers::QuboSolver {
 public:
  explicit ReplaySolver(const KernelLedger& ledger) : ledger_(ledger) {}
  std::string name() const override { return "da"; }
  qubo::SolveBatch solve(const qubo::QuboModel& model,
                         const solvers::SolveOptions& options) const override {
    auto batch = ledger_.recorded_batch(model, options);
    if (!batch.has_value()) {
      throw std::runtime_error("replay: no recorded batch for this call");
    }
    return std::move(*batch);
  }

 private:
  const KernelLedger& ledger_;
};

/// Times the surrogate calls of an in-process replay.
class TimedEvaluator final : public surrogate::SurrogateEvaluator {
 public:
  explicit TimedEvaluator(const surrogate::SurrogateEvaluator& inner)
      : inner_(inner) {}
  bool is_trained() const override { return inner_.is_trained(); }
  surrogate::SurrogatePrediction predict(
      const std::array<double, surrogate::kNumTspFeatures>& features,
      double anchor, double a) const override {
    const auto t0 = Clock::now();
    auto p = inner_.predict(features, anchor, a);
    ms += ms_between(t0, Clock::now());
    rows += 1;
    return p;
  }
  std::vector<surrogate::SurrogatePrediction> predict_sweep(
      const std::array<double, surrogate::kNumTspFeatures>& features,
      double anchor, std::span<const double> a_values) const override {
    const auto t0 = Clock::now();
    auto p = inner_.predict_sweep(features, anchor, a_values);
    ms += ms_between(t0, Clock::now());
    rows += static_cast<double>(a_values.size());
    return p;
  }
  mutable double ms = 0.0;
  mutable double rows = 0.0;

 private:
  const surrogate::SurrogateEvaluator& inner_;
};

/// Per-layer metrics and budget from the traced pass.
void report_layers(const std::vector<Session>& sessions, const Pass& pass,
                   Stack& stack, const KernelLedger& ledger,
                   const core::QrossTuner& tuner, const Baseline& base,
                   Report& report) {
  const double n = static_cast<double>(sessions.size());
  emit_kernel_rows(ledger, stack.service(), pass.wall_s, report);

  const auto sg = stack.tune()->metrics().surrogate;
  const auto& sg0 = base.surrogate;
  const double rows = static_cast<double>(sg.rows - sg0.rows);
  report.metric("surrogate.rows_per_session", rows / n, "rows");
  report.metric("surrogate.passes_per_session",
                static_cast<double>(sg.passes - sg0.passes) / n, "passes");
  report.metric("surrogate.combined_row_ratio",
                rows > 0 ? static_cast<double>(sg.combined_rows -
                                               sg0.combined_rows) /
                               rows
                         : 0.0,
                "ratio");

  double probes = 0.0, feasible_probes = 0.0, invocations = 0.0;
  std::vector<double> net_self, client_ms;
  for (const auto& out : pass.outcomes) {
    client_ms.push_back(out.latency_ms);
    net_self.push_back(out.latency_ms - out.result.wall_ms);
    invocations += static_cast<double>(out.result.solver_invocations);
    for (const auto& t : out.result.trials) {
      probes += 1.0;
      if (t.pf > 0.0) feasible_probes += 1.0;
    }
  }
  report.metric("qross.solver_calls_per_session", invocations / n, "calls");
  report.metric("qross.feasible_probe_ratio",
                probes > 0 ? feasible_probes / probes : 0.0, "ratio");

  // Replays on the run's own inputs: the in-process session (recorded
  // batches instead of kernels) splits session time into strategy,
  // surrogate and instance preparation.
  const std::size_t replays = std::min(kReplaySessions, sessions.size());
  double replay_ms = 0.0, eval_ms = 0.0, eval_rows = 0.0, prepare_ms = 0.0,
         mvodm_ms = 0.0, to_qubo_us = 0.0;
  const auto replay_solver = std::make_shared<ReplaySolver>(ledger);
  for (std::size_t i = 0; i < replays; ++i) {
    const auto& s = sessions[i];
    TimedEvaluator evaluator(tuner.surrogate());
    core::TuneOptions options;
    options.trials = kTrials;
    options.a_min = 1.0;
    options.a_max = 100.0;
    options.seed = s.seed;
    options.evaluator = &evaluator;
    const auto t0 = Clock::now();
    const auto outcome = tuner.tune(s.instance, replay_solver, options);
    replay_ms += ms_between(t0, Clock::now());
    eval_ms += evaluator.ms;
    eval_rows += evaluator.rows;
    report.check(outcome.best_length == pass.outcomes[i].result.best_length,
                 "remote session " + std::to_string(i) +
                     " differs from its in-process replay");
    prepare_ms += replay_us(3, [&] {
                    const surrogate::PreparedTspInstance p(s.instance);
                  }) / 1e3;
    mvodm_ms += replay_us(3, [&] { tsp::mvodm_preprocess(s.instance); }) / 1e3;
    const surrogate::PreparedTspInstance prepared(s.instance);
    to_qubo_us += replay_us(5, [&] {
      prepared.problem().to_qubo(pass.outcomes[i].result.best_parameter);
    });
  }
  const double r = static_cast<double>(std::max<std::size_t>(replays, 1));
  const double surrogate_ms = eval_ms / r;
  const double problems_ms = prepare_ms / r + kTrials * (to_qubo_us / r) / 1e3;
  const double strategy_ms = replay_ms / r - surrogate_ms - problems_ms;
  report.metric("surrogate.predict_us_per_row",
                eval_rows > 0 ? eval_ms * 1e3 / eval_rows : 0.0, "us");
  report.metric("qross.strategy_self_ms_per_session", strategy_ms, "ms");
  report.metric("problems.mvodm_ms", mvodm_ms / r, "ms");
  report.metric("problems.to_qubo_us", to_qubo_us / r, "us");

  const double adjacency_us = emit_adjacency_replay(ledger, report);
  const auto svc = stack.service().metrics();
  report.metric("service.queue_wait_p50_ms", svc.queue_wait.p50_ms, "ms");
  report.metric("service.queue_wait_p99_ms", svc.queue_wait.p99_ms, "ms");
  emit_service_counters(base.service, svc, report);

  // Wire: one SubmitTune, a TuneStatus per trial, one TuneResult.
  report.metric("net.frames_per_job", base.frames_since(stack) / n, "frames");
  double bytes = 0.0, codec_us = 0.0;
  for (std::size_t i = 0; i < replays; ++i) {
    net::SubmitTuneFrame submit;
    const auto request = request_for(sessions[i]);
    submit.solver = request.solver;
    submit.trials = request.trials;
    submit.seed = request.seed;
    submit.instance = request.instance;
    submit.instance_name = request.instance_name;
    const auto submit_bytes = net::encode_submit_tune(submit);
    auto result = pass.outcomes[i].result;
    const auto result_bytes = net::encode_tune_result(result);
    net::TuneStatusFrame status;
    bytes += static_cast<double>(submit_bytes.size() + result_bytes.size() +
                                 kTrials * net::encode_tune_status(status).size() +
                                 (2 + kTrials) * 16);
    codec_us += replay_us(5, [&] { net::decode_submit_tune(submit_bytes); });
    codec_us += replay_us(5, [&] { net::encode_tune_result(result); });
    codec_us += replay_us(5, [&] { net::decode_tune_result(result_bytes); });
  }
  report.metric("net.bytes_per_job", bytes / r, "bytes");
  report.metric("net.self_p50_ms", percentile(net_self, 0.5), "ms");
  report.metric("net.self_p99_ms", percentile(net_self, 0.99), "ms");
  double stalls = 0.0;
  for (const double v : net_self) stalls += v >= 40.0 ? 1.0 : 0.0;
  report.metric("net.stall_share", stalls / n, "ratio");

  const double kernel_calls = static_cast<double>(ledger.total_calls());
  const double qubo_ms = kernel_calls * adjacency_us / 1e3 / n;
  Budget budget;
  budget.client_ms = mean(client_ms);
  budget.self_ms["net"] = codec_us / r / 1e3;
  budget.self_ms["service"] =
      (histogram_sum("qross_queue_wait_ms") - base.queue_wait_ms) / n;
  budget.self_ms["qubo"] = qubo_ms;
  budget.self_ms["solvers"] = ledger.total_busy_ms() / n - qubo_ms;
  budget.self_ms["problems"] = problems_ms;
  budget.self_ms["surrogate"] = surrogate_ms;
  budget.self_ms["qross"] = strategy_ms;
  budget.emit(report);
}

}  // namespace

void run_tune_cold(const RunArgs& args, Report& report) {
  const auto count = static_cast<std::size_t>(std::ceil(
      args.seconds * kSessionsPerSecondPerConnection * kConnections));
  const auto sessions = make_sessions(count, args.seed, 1);
  const auto warmup =
      make_sessions(kConnections, derive_seed(args.seed, 0x5741524d), 1 << 20);

  KernelLedger ledger;
  std::vector<double> setup_s;
  std::unique_ptr<core::QrossTuner> tuner;
  std::unique_ptr<Stack> stack;
  const auto set_up = [&] {
    stack.reset();
    const auto t0 = Clock::now();
    tuner = std::make_unique<core::QrossTuner>(train_tuner());
    StackConfig config;
    config.listen = "unix:" + args.work_dir + "/tune.sock";
    config.tuner = tuner.get();
    config.max_sessions = kConnections;
    stack = std::make_unique<Stack>(config, &ledger);
    connect_client(stack->endpoint(), "probe");
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  };

  Pass pass;
  pass.outcomes.resize(sessions.size());
  Baseline base;
  std::vector<double> plain_ms, traced_ms;
  if (!args.trace) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      set_up();
      run_pass(*stack, warmup);
      run_range(*stack, sessions, count * r / kRounds,
                count * (r + 1) / kRounds, false, &pass);
    }
  } else {
    set_up();
    run_pass(*stack, warmup);
    ledger.reset(true);
    base = Baseline::take(*stack);
    auto& recorder = obs::TraceRecorder::instance();
    for (std::size_t w = 0; w < kTraceWindows; ++w) {
      const bool traced = w % 2 == 1;
      if (traced) recorder.enable(kTraceCapacity);
      const std::size_t begin = count * w / kTraceWindows;
      const std::size_t end = count * (w + 1) / kTraceWindows;
      run_range(*stack, sessions, begin, end, traced, &pass);
      recorder.disable();
      for (std::size_t i = begin; i < end; ++i) {
        (traced ? traced_ms : plain_ms).push_back(pass.outcomes[i].latency_ms);
      }
    }
  }

  std::size_t ok = 0, within_slo = 0;
  const auto gaps = verify(sessions, pass, report, &ok, &within_slo);
  report.simd = stack->service().metrics().simd_kernel;
  report.attempted = sessions.size();
  report.failed = sessions.size() - ok;
  std::vector<double> latency;
  for (const auto& out : pass.outcomes) latency.push_back(out.latency_ms);
  report.note("tune_cold: " + std::to_string(sessions.size()) +
              " sessions over " + std::to_string(kConnections) +
              " connections, " + std::to_string(ok) + " ok");

  if (!args.trace) {
    emit_end_to_end(report, latency, pass.wall_s, ok, sessions.size(),
                    kTailQuantile, within_slo, mean(gaps), setup_s);
    return;
  }
  report.metric("obs.trace_overhead_pct",
                100.0 * (mean(traced_ms) - mean(plain_ms)) / mean(plain_ms),
                "%");
  report_layers(sessions, pass, *stack, ledger, *tuner, base, report);
  // No generator schedule and no cache file on this workload.
  report.unused({"load.gen_lag_p99_ms", "io.warm_fill_ms", "io.cache_loaded",
                 "io.cache_stored", "io.journal_bytes", "io.flush_ms"});
  report.note("trace artifact: " + write_trace_artifact(args));
}

}  // namespace qrossbench
