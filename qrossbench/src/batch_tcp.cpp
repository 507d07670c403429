// batch_tcp — pipelined windows of cache-warm jobs over TCP, closed loop.
//
// Set-up warm-fills the result cache from a persisted snapshot (the io read
// path), so no kernel runs in the measured phase: the network front end and
// the service's cache lookup are all there is.  Each of two connections
// sends a window of 16 jobs back to back, then waits for all 16 results.
// Today every window sits on the ~40 ms delayed-ACK floor (the server's
// accepted sockets lack TCP_NODELAY), so socket-level fixes show here and
// kernel work cannot.

#include <cmath>
#include <filesystem>
#include <thread>

#include "common/rng.hpp"
#include "requests.hpp"
#include "workloads.hpp"

namespace qrossbench {
namespace {

constexpr std::size_t kConnections = 2;
constexpr std::size_t kWindow = 16;
constexpr std::size_t kDistinctJobs = 2048;
/// Nominal window rate per connection the op count is sized from (the
/// delayed-ACK floor allows ~22/s); fixed, never measured at run time.
constexpr double kWindowsPerSecondPerConnection = 25.0;
constexpr double kTailQuantile = 0.99;
constexpr double kSloMs = 100.0;
/// Untimed runs are this many rounds of set-up, warm-up and an equal share
/// of the windows, so setup_s's median samples set-ups across the run.
constexpr std::size_t kRounds = 9;
constexpr std::size_t kReplayJobs = 64;
/// Traced runs alternate untraced and traced shares of the windows on one
/// stack, for obs.trace_overhead_pct.
constexpr std::size_t kTraceWindows = 20;

struct Job {
  TspRequest request;
  std::shared_ptr<const qubo::SolveBatch> expected;  ///< from the snapshot run
  double gap_pct = 0.0;  ///< of the expected batch's best feasible tour
};

/// Draws the jobs and prepares them once, for building the snapshot; every
/// timed set-up prepares them again, as a client would before sending.
std::vector<Job> make_jobs(std::uint64_t seed) {
  std::vector<Job> jobs;
  jobs.reserve(kDistinctJobs);
  for (std::size_t i = 0; i < kDistinctJobs; ++i) {
    jobs.push_back({draw_request(derive_seed(seed, 0x100 + i)), nullptr, 0.0});
    prepare(jobs.back().request);
  }
  return jobs;
}

/// Solves every job once through a service persisting to `snapshot`, keeps
/// each batch as the expected reply, and leaves the compacted snapshot.
void build_snapshot(std::vector<Job>& jobs, const std::string& snapshot,
                    KernelLedger& ledger, Report& report) {
  service::ServiceConfig config;
  config.num_workers = Stack::kWorkers;
  config.cache_capacity = 2 * kDistinctJobs;
  config.cache_path = snapshot;
  service::SolveService service(config);
  std::vector<service::JobHandle> handles;
  for (const auto& job : jobs) {
    const auto& r = job.request.job;
    handles.push_back(
        service.submit(ledger.resolve(r.solver), r.model, solve_options(r)));
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto result = handles[i].wait();
    if (result.status != service::JobStatus::done || !result.batch) {
      throw std::runtime_error("snapshot job " + std::to_string(i) +
                               " did not complete");
    }
    auto& job = jobs[i];
    job.expected = result.batch;
    const auto gap = best_gap_pct(job.request, *job.expected);
    report.check(gap.value_or(0.0) >= 0.0,
                 "snapshot job " + std::to_string(i) +
                     " beat the Held-Karp optimum");
    job.gap_pct = gap.value_or(0.0);
  }
}

struct Window {
  double latency_ms = 0.0;
  std::vector<std::size_t> jobs;
  std::vector<net::ResultFrame> replies;  ///< empty entry = transport failure
  std::vector<double> rtt_ms;             ///< per job, submit -> its reply
};

struct Pass {
  std::vector<Window> windows;
  double wall_s = 0.0;
};

std::vector<Window> plan_windows(std::uint64_t seed, std::size_t count) {
  qross::Rng rng(derive_seed(seed, 0x77));
  std::vector<Window> windows(count);
  for (auto& w : windows) {
    for (std::size_t j = 0; j < kWindow; ++j) {
      w.jobs.push_back(rng.uniform_int(std::uint64_t{kDistinctJobs}));
    }
  }
  return windows;
}

/// Runs `plan` over kConnections clients; `first_window` numbers the plan's
/// windows within the whole pass, for trace ids.
Pass run_pass(const std::vector<Job>& jobs, std::vector<Window> plan,
              const net::Endpoint& endpoint, bool trace,
              std::size_t first_window = 0) {
  Pass pass;
  pass.windows = std::move(plan);
  const auto start = Clock::now();
  const auto worker = [&](std::size_t conn) {
    auto client = connect_client(endpoint, "batch-" + std::to_string(conn));
    for (std::size_t w = conn; w < pass.windows.size(); w += kConnections) {
      auto& window = pass.windows[w];
      const std::size_t id = first_window + w;
      std::vector<std::uint64_t> tags;
      std::vector<Clock::time_point> sent;
      const auto t0 = Clock::now();
      for (const auto index : window.jobs) {
        auto request = jobs[index].request.job;
        request.trace_id = trace ? id * kWindow + tags.size() + 1 : 0;
        auto tag = client->submit_job(request);
        sent.push_back(Clock::now());
        tags.push_back(tag.ok() ? tag.value() : 0);
      }
      for (std::size_t j = 0; j < tags.size(); ++j) {
        net::ResultFrame reply;
        if (tags[j] != 0) {
          auto result = client->wait_result(tags[j]);
          if (result.ok()) reply = std::move(result).value();
        }
        window.rtt_ms.push_back(ms_between(sent[j], Clock::now()));
        window.replies.push_back(std::move(reply));
      }
      const auto t1 = Clock::now();
      window.latency_ms = ms_between(t0, t1);
      if (trace) {
        obs::TraceRecorder::instance().record_span("window", "bench.client",
                                                   t0, t1, 0, id + 1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) threads.emplace_back(worker, c);
  for (auto& t : threads) t.join();
  pass.wall_s = ms_between(start, Clock::now()) / 1e3;
  return pass;
}

/// Every reply must be a cache hit carrying exactly the snapshot's batch.
std::size_t verify(const std::vector<Job>& jobs, const Pass& pass,
                   Report& report, double* gap_pct,
                   std::size_t* ok_within_slo = nullptr) {
  std::size_t ok = 0;
  double gaps = 0.0;
  if (ok_within_slo != nullptr) *ok_within_slo = 0;
  for (std::size_t w = 0; w < pass.windows.size(); ++w) {
    const auto& window = pass.windows[w];
    const bool in_slo = window.latency_ms <= kSloMs;
    for (std::size_t j = 0; j < window.jobs.size(); ++j) {
      const auto& reply = window.replies[j];
      const auto& job = jobs[window.jobs[j]];
      const std::string where =
          "window " + std::to_string(w) + " job " + std::to_string(j);
      if (reply.status != service::JobStatus::done || !reply.batch) {
        report.note(where + " did not complete");
        continue;
      }
      report.check(reply.cache_hit, where + " was not a cache hit");
      const bool same = same_batch(*reply.batch, *job.expected);
      report.check(same, where + " differs from the snapshot's batch");
      if (!reply.cache_hit || !same) continue;
      ++ok;
      if (in_slo && ok_within_slo != nullptr) ++*ok_within_slo;
      gaps += job.gap_pct;
    }
  }
  *gap_pct = ok > 0 ? gaps / static_cast<double>(ok) : 0.0;
  return ok;
}

}  // namespace

void run_batch_tcp(const RunArgs& args, Report& report) {
  KernelLedger ledger;
  auto jobs = make_jobs(args.seed);
  const std::string pristine = args.work_dir + "/batch-pristine.qsnap";
  build_snapshot(jobs, pristine, ledger, report);
  ledger.reset(false);

  const auto count = static_cast<std::size_t>(
      std::ceil(args.seconds * kWindowsPerSecondPerConnection * kConnections));
  const auto plan = plan_windows(args.seed, count);
  const auto warmup = plan_windows(derive_seed(args.seed, 0x5741524d),
                                   4 * kConnections);

  std::vector<double> setup_s, warm_fill_ms, plain_ms, traced_ms;
  std::unique_ptr<Stack> stack;
  int generation = 0;
  const auto set_up = [&] {
    stack.reset();
    const std::string path =
        args.work_dir + "/batch-" + std::to_string(generation++) + ".qsnap";
    std::filesystem::copy_file(pristine, path);
    const auto t0 = Clock::now();
    for (auto& job : jobs) prepare(job.request);
    StackConfig config;
    config.listen = "tcp:127.0.0.1:0";
    config.cache_capacity = 2 * kDistinctJobs;
    config.cache_path = path;
    stack = std::make_unique<Stack>(config, &ledger);
    warm_fill_ms.push_back(stack->warm_fill_ms());
    connect_client(stack->endpoint(), "probe");
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  };
  Pass pass;
  Baseline base;
  service::ServiceMetrics m1;
  // Warms the fresh stack, untimed, and checks its warm fill.
  const auto warm = [&] {
    run_pass(jobs, warmup, stack->endpoint(), false);
    base = Baseline::take(*stack);
    report.check(base.service.cache_loaded == kDistinctJobs,
                 "warm fill loaded " +
                     std::to_string(base.service.cache_loaded) + " of " +
                     std::to_string(kDistinctJobs) + " entries");
  };
  // Serves windows [begin, end) of the plan on the current stack.
  const auto serve = [&](std::size_t begin, std::size_t end, bool traced) {
    Pass part = run_pass(jobs, {plan.begin() + begin, plan.begin() + end},
                         stack->endpoint(), traced, begin);
    for (auto& window : part.windows) {
      (traced ? traced_ms : plain_ms).push_back(window.latency_ms);
      pass.windows.push_back(std::move(window));
    }
    pass.wall_s += part.wall_s;
  };
  const auto check_no_kernel = [&] {
    m1 = stack->service().metrics();
    report.check(m1.solver_invocations == 0,
                 std::to_string(m1.solver_invocations) +
                     " solver invocations after set-up");
    report.check(ledger.total_calls() == 0, "a kernel ran after set-up");
  };

  if (!args.trace) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      set_up();
      warm();
      serve(count * r / kRounds, count * (r + 1) / kRounds, false);
      check_no_kernel();
    }
  } else {
    set_up();
    warm();
    auto& recorder = obs::TraceRecorder::instance();
    for (std::size_t w = 0; w < kTraceWindows; ++w) {
      const bool traced = w % 2 == 1;
      if (traced) recorder.enable(kTraceCapacity);
      serve(count * w / kTraceWindows, count * (w + 1) / kTraceWindows,
            traced);
      recorder.disable();
    }
    check_no_kernel();
  }
  double gap_pct = 0.0;
  std::size_t within_slo = 0;
  const std::size_t ok = verify(jobs, pass, report, &gap_pct, &within_slo);
  const std::size_t attempted = pass.windows.size() * kWindow;
  report.simd = m1.simd_kernel;
  report.attempted = attempted;
  report.failed = attempted - ok;
  std::vector<double> latency;
  for (const auto& w : pass.windows) latency.push_back(w.latency_ms);
  report.note("batch_tcp: " + std::to_string(pass.windows.size()) +
              " windows of " + std::to_string(kWindow) + " over " +
              std::to_string(kConnections) + " TCP connections, " +
              std::to_string(ok) + " of " + std::to_string(attempted) +
              " jobs ok");
  if (!args.trace) {
    emit_end_to_end(report, latency, pass.wall_s, ok, attempted, kTailQuantile,
                    within_slo, gap_pct, setup_s);
    return;
  }

  std::vector<double> net_self;
  double stalls = 0.0;
  for (const auto& w : pass.windows) {
    stalls += w.latency_ms >= 40.0 ? 1.0 : 0.0;
    for (std::size_t j = 0; j < w.replies.size(); ++j) {
      net_self.push_back(w.rtt_ms[j] - w.replies[j].wait_ms -
                         w.replies[j].run_ms);
    }
  }
  const double windows = static_cast<double>(pass.windows.size());
  const double njobs = windows * kWindow;
  report.metric("obs.trace_overhead_pct",
                100.0 * (mean(traced_ms) - mean(plain_ms)) / mean(plain_ms),
                "%");
  emit_kernel_rows(ledger, stack->service(), pass.wall_s, report);
  report.metric("io.warm_fill_ms", percentile(warm_fill_ms, 0.5), "ms");
  report.metric("io.cache_loaded", static_cast<double>(m1.cache_loaded),
                "count");
  emit_service_counters(base.service, m1, report);
  report.metric("net.frames_per_job", base.frames_since(*stack) / njobs,
                "frames");
  report.metric("net.self_p50_ms", percentile(net_self, 0.5), "ms");
  report.metric("net.self_p99_ms", percentile(net_self, 0.99), "ms");
  report.metric("net.stall_share", stalls / windows, "ratio");

  // Replays on this run's own requests: wire codecs, and the service's
  // cache-hit path (fingerprint + lookup) on the live, warm service.
  double codec_us = 0.0, lookup_us = 0.0, bytes = 0.0;
  const std::size_t replays = std::min(kReplayJobs, jobs.size());
  for (std::size_t i = 0; i < replays; ++i) {
    const auto& job = jobs[i];
    const auto& request = job.request.job;
    const auto wire = replay_wire(request, job.expected);
    bytes += wire.bytes;
    codec_us += wire.codec_us;
    const auto kernel = ledger.resolve(request.solver);
    lookup_us += replay_us(3, [&] {
      stack->service()
          .submit(kernel, request.model, solve_options(request))
          .wait();
    });
  }
  const double r = static_cast<double>(std::max<std::size_t>(replays, 1));
  report.metric("net.bytes_per_job", bytes / r, "bytes");
  report.check(stack->service().metrics().solver_invocations == 0,
               "the cache-hit replay ran a kernel");

  Budget budget;
  budget.client_ms = mean(latency);
  budget.self_ms["net"] = kWindow * codec_us / r / 1e3;
  budget.self_ms["service"] = kWindow * lookup_us / r / 1e3;
  budget.emit(report);
  // Nothing is solved, tuned, generated on a schedule or written here.
  report.unused({"qubo.adjacency_build_us", "problems.to_qubo_us",
                 "problems.mvodm_ms", "surrogate.rows_per_session",
                 "surrogate.passes_per_session", "surrogate.combined_row_ratio",
                 "surrogate.predict_us_per_row",
                 "qross.solver_calls_per_session", "qross.feasible_probe_ratio",
                 "qross.strategy_self_ms_per_session",
                 "service.queue_wait_p50_ms", "service.queue_wait_p99_ms",
                 "io.cache_stored", "io.journal_bytes", "io.flush_ms",
                 "load.gen_lag_p99_ms"});
  report.note("trace artifact: " + write_trace_artifact(args));
}

}  // namespace qrossbench
