// solve_open — open-loop Poisson arrivals of solve jobs over a unix socket.
//
// The only workload with queueing, admission, fair share between two
// clients, cache hits and coalescing, and journal writes (cache_path is
// set).  Jobs are TSP relaxations of mixed size and relaxation parameter A,
// spread over all five kernels; a fixed hot share repeats earlier requests.
// The arrival rate is a fixed absolute number (kernels ~12 % busy on a
// 4-vCPU VM; higher rates let queueing amplify the host's speed swings),
// never derived from a capacity measured at run time, and each job's
// latency runs from its scheduled send time.

#include <atomic>
#include <cmath>
#include <filesystem>
#include <latch>
#include <set>
#include <thread>

#include "load/replayer.hpp"
#include "load/workload.hpp"
#include "problems/tsp/preprocess.hpp"
#include "surrogate/pipeline.hpp"
#include "requests.hpp"
#include "workloads.hpp"

namespace qrossbench {
namespace {

constexpr double kRatePerSecond = 150.0;
/// Untimed heat-up at about the two workers' capacity before anything is
/// timed: a light open loop on an otherwise idle VM runs in whatever speed
/// state the host was left in (runs right after a heavy one measured 1.4x
/// faster kernels and a 10x lower generator lag than back-to-back light
/// runs); after this phase every run measures the same state.
constexpr double kHeatRatePerSecond = 500.0;
constexpr double kHeatSeconds = 3.0;
/// The heat-up runs in this many chunks, each on a stack set up right
/// after the previous chunk; those set-ups are setup_s's samples, spread
/// over the heat-up instead of back to back in one of the host's speed
/// streaks.  The last one serves the measured phase.  (Splitting the
/// measured phase itself into rounds on fresh stacks instead raised the
/// generator's lag and the p99's spread: a light round after a light round
/// runs in the host's slow state.)
constexpr std::size_t kHeatChunks = 6;
constexpr double kHotShare = 0.25;
constexpr std::size_t kHotModels = 32;
constexpr double kTailQuantile = 0.99;
constexpr double kSloMs = 50.0;
/// A run whose generator sent its p99 job later than this after its
/// scheduled time measured the generator, not the server: it is invalid.
constexpr double kMaxGenLagP99Ms = 10.0;
constexpr int kPollSliceMs = 2;
constexpr double kDrainSeconds = 30.0;
constexpr std::size_t kReplayJobs = 64;
/// Traced runs switch the recorder on and off every this many seconds of
/// the schedule, for obs.trace_overhead_pct; jobs scheduled in odd windows
/// are the traced ones.
constexpr double kTraceWindowSec = 1.0;

bool in_traced_window(double scheduled_sec) {
  return static_cast<long>(scheduled_sec / kTraceWindowSec) % 2 == 1;
}

struct Inputs {
  load::Schedule schedule;
  std::map<std::uint64_t, TspRequest> specs;  ///< by model seed
  void prepare_all() {
    for (auto& [seed, spec] : specs) prepare(spec);
  }
};

Inputs make_inputs(std::uint64_t seed, double rate_per_s, double duration_s) {
  load::WorkloadConfig config;
  config.arrivals = load::ArrivalKind::poisson;
  config.rate_per_sec = rate_per_s;
  config.duration_sec = duration_s;
  config.hit_ratio = kHotShare;
  config.hot_models = kHotModels;
  config.clients = {{"tenant-a", 1.0, 0, 0, 0.0}, {"tenant-b", 1.0, 0, 0, 0.0}};
  config.seed = seed;
  Inputs inputs;
  inputs.schedule = load::generate_schedule(config);
  for (const auto& job : inputs.schedule.jobs) {
    if (!inputs.specs.contains(job.model_seed)) {
      inputs.specs.emplace(job.model_seed, draw_request(job.model_seed));
    }
  }
  return inputs;
}

/// One scheduled job's fate; `record` carries scheduled and actual send
/// times on the pass clock.
struct JobOutcome {
  load::JobRecord record;
  bool coalesced = false;
  double wait_ms = 0.0;
  double run_ms = 0.0;
  std::shared_ptr<const qubo::SolveBatch> batch;
};

struct Pass {
  std::vector<JobOutcome> jobs;
  double wall_s = 0.0;
};

/// Fires the schedule over one connection per client spec, each on its own
/// thread, regardless of what has completed.  load::replay does the same
/// for one solver and MVC models and keeps no batches or wait/run times,
/// which the checks and the budget here need.  With `trace`, a further
/// thread turns the recorder on for the odd kTraceWindowSec windows.
Pass replay(const Inputs& inputs, const net::Endpoint& endpoint, bool trace) {
  const auto& schedule = inputs.schedule;
  Pass pass;
  pass.jobs.resize(schedule.jobs.size());
  for (std::size_t i = 0; i < schedule.jobs.size(); ++i) {
    pass.jobs[i].record.scheduled_sec = schedule.jobs[i].arrival_sec;
  }
  const auto& clients = schedule.config.clients;
  std::latch ready(static_cast<std::ptrdiff_t>(clients.size()));
  std::latch go(1);
  Clock::time_point start{};
  const auto since_start = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  const auto worker = [&](std::uint32_t c) {
    std::vector<std::size_t> mine;
    for (std::size_t i = 0; i < schedule.jobs.size(); ++i) {
      if (schedule.jobs[i].client == c) mine.push_back(i);
    }
    auto client = connect_client(endpoint, clients[c].client_id);
    ready.count_down();
    go.wait();
    std::map<std::uint64_t, std::size_t> inflight;  // tag -> job index
    const auto collect = [&] {
      const double now = since_start();
      for (const auto& err : client->take_errors()) {
        const auto it = inflight.find(err.tag);
        if (it == inflight.end()) continue;
        auto& out = pass.jobs[it->second];
        out.record.outcome = load::Outcome::shed;
        out.record.completed_sec = now;
        client->forget(err.tag);
        inflight.erase(it);
      }
      for (auto& frame : client->take_ready_results()) {
        const auto it = inflight.find(frame.tag);
        if (it == inflight.end()) continue;
        auto& out = pass.jobs[it->second];
        out.record.outcome =
            frame.status == service::JobStatus::done     ? load::Outcome::ok
            : frame.status == service::JobStatus::expired ? load::Outcome::expired
                                                          : load::Outcome::failed;
        out.record.cache_hit = frame.cache_hit;
        out.record.completed_sec = now;
        out.coalesced = frame.coalesced;
        out.wait_ms = frame.wait_ms;
        out.run_ms = frame.run_ms;
        out.batch = std::move(frame.batch);
        if (trace) {
          const auto at = [&](double s) {
            return start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(s));
          };
          obs::TraceRecorder::instance().record_span(
              "job", "bench.client", at(out.record.scheduled_sec), at(now), 0,
              it->second + 1);
        }
        inflight.erase(it);
      }
    };
    for (const auto index : mine) {
      const double due = schedule.jobs[index].arrival_sec;
      while (true) {
        const double gap_ms = (due - since_start()) * 1e3;
        if (gap_ms <= 0.0) break;
        if (gap_ms < 1.0) {
          // poll() counts whole milliseconds; sleep out the remainder.
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due)));
          break;
        }
        if (!client->poll(static_cast<int>(
                std::min<double>(std::floor(gap_ms), kPollSliceMs)))) {
          return;  // connection lost: the rest stay lost
        }
        collect();
      }
      auto job = inputs.specs.at(schedule.jobs[index].model_seed).job;
      job.trace_id = trace ? index + 1 : 0;
      auto& out = pass.jobs[index];
      out.record.submitted_sec = since_start();
      auto tag = client->submit_job(job);
      if (!tag.ok()) return;
      inflight.emplace(tag.value(), index);
      collect();
    }
    const double drain_until = since_start() + kDrainSeconds;
    while (!inflight.empty() && since_start() < drain_until) {
      if (!client->poll(20)) return;
      collect();
    }
  };

  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back(worker, c);
  }
  ready.wait();
  start = Clock::now();
  go.count_down();
  std::atomic<bool> done{false};
  std::thread toggler;
  if (trace) {
    toggler = std::thread([&] {
      auto& recorder = obs::TraceRecorder::instance();
      for (long w = 0; !done.load(); ++w) {
        if (w % 2 == 1) {
          recorder.enable(kTraceCapacity);
        } else {
          recorder.disable();
        }
        const double until = static_cast<double>(w + 1) * kTraceWindowSec;
        while (!done.load() && since_start() < until) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
      recorder.disable();
    });
  }
  for (auto& t : threads) t.join();
  done.store(true);
  if (toggler.joinable()) toggler.join();
  for (const auto& job : pass.jobs) {
    pass.wall_s = std::max(pass.wall_s, job.record.completed_sec);
  }
  return pass;
}

struct Verdict {
  std::size_t ok = 0;
  std::size_t ok_within_slo = 0;
  std::size_t hits = 0;       ///< served from the result cache
  std::size_t coalesced = 0;  ///< joined an in-flight execution
  std::vector<double> latency_ms;  ///< scheduled send -> result, every job
  std::vector<double> lag_ms;      ///< actual send - scheduled send
  double gap_pct = 0.0;
};

Verdict verify(const Inputs& inputs, const Pass& pass, Report& report) {
  Verdict v;
  const auto& jobs = inputs.schedule.jobs;
  std::map<std::uint64_t, std::shared_ptr<const qubo::SolveBatch>> first;
  std::size_t hot = 0;
  std::vector<double> gaps;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& out = pass.jobs[i];
    const auto& rec = out.record;
    if (rec.submitted_sec >= 0.0) {
      v.lag_ms.push_back((rec.submitted_sec - rec.scheduled_sec) * 1e3);
    }
    // A job that never resolved counts with the whole drain as latency.
    v.latency_ms.push_back(
        rec.resolved() ? (rec.completed_sec - rec.scheduled_sec) * 1e3
                       : (pass.wall_s + kDrainSeconds) * 1e3);
    if (jobs[i].hot) ++hot;
    if (rec.outcome != load::Outcome::ok) continue;
    const auto& spec = inputs.specs.at(jobs[i].model_seed);
    const auto& batch = out.batch;
    const std::size_t vars = spec.job.model.num_vars();
    const bool shaped = batch != nullptr &&
                        batch->size() == spec.job.num_replicas &&
                        std::all_of(batch->results.begin(),
                                    batch->results.end(), [&](const auto& r) {
                                      return r.assignment.size() == vars;
                                    });
    report.check(shaped, "job " + std::to_string(i) + " batch is malformed");
    if (!shaped) continue;
    ++v.ok;
    if (v.latency_ms.back() <= kSloMs) ++v.ok_within_slo;
    const bool reused = rec.cache_hit || out.coalesced;
    v.hits += rec.cache_hit ? 1 : 0;
    v.coalesced += out.coalesced ? 1 : 0;
    report.check(jobs[i].hot || !reused,
                 "fresh job " + std::to_string(i) +
                     " was served from another job's result");
    const auto [it, inserted] = first.emplace(jobs[i].model_seed, batch);
    if (!inserted) {
      report.check(same_batch(*it->second, *batch),
                   "job " + std::to_string(i) +
                       " differs from the batch that first answered it");
    }
    if (const auto gap = best_gap_pct(spec, *batch)) {
      report.check(*gap >= 0.0, "job " + std::to_string(i) +
                                    " beat the Held-Karp optimum");
      gaps.push_back(*gap);
    }
  }
  v.gap_pct = mean(gaps);

  // Every repeat of a hot request is a hit or a join (the cache holds every
  // result of the run); a seed collision between inputs would break this
  // and the binomial bound below.
  const double n = static_cast<double>(jobs.size());
  std::size_t distinct_hot = 0;
  {
    std::set<std::uint64_t> seen;
    for (const auto& job : jobs) {
      if (job.hot && seen.insert(job.model_seed).second) ++distinct_hot;
    }
  }
  if (v.ok == jobs.size()) {
    report.check(v.hits + v.coalesced == hot - distinct_hot,
                 "cache hits + joins " + std::to_string(v.hits + v.coalesced) +
                     " != hot repeats " + std::to_string(hot - distinct_hot));
  }
  // Observed reuse (hits + joins + the first answer of each hot request)
  // must sit within binomial bounds of the configured hot share.
  const double sd = std::sqrt(n * kHotShare * (1.0 - kHotShare));
  const double reused =
      static_cast<double>(v.hits + v.coalesced + distinct_hot);
  report.check(std::abs(reused - n * kHotShare) <= 4.0 * sd,
               "observed reuse share " + std::to_string(reused / n) +
                   " outside binomial bounds of the hot share " +
                   std::to_string(kHotShare));
  const double lag_p99 = percentile(v.lag_ms, 0.99);
  report.check(lag_p99 <= kMaxGenLagP99Ms,
               "generator ran late (p99 lag " + std::to_string(lag_p99) +
                   " ms): run invalid");
  return v;
}

double journal_bytes(const std::string& cache_path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(cache_path + ".journal", ec);
  return ec ? 0.0 : static_cast<double>(size);
}

void report_layers(const Inputs& inputs, const Pass& pass,
                   const Verdict& verdict, Stack& stack,
                   const KernelLedger& ledger, const std::string& cache_path,
                   const Baseline& base, double journal0, Report& report) {
  const double n = static_cast<double>(pass.jobs.size());
  emit_kernel_rows(ledger, stack.service(), pass.wall_s, report);
  const double adjacency_us = emit_adjacency_replay(ledger, report);

  std::vector<double> waits, net_self, runs, client_ms;
  for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
    const auto& out = pass.jobs[i];
    if (out.record.outcome != load::Outcome::ok) continue;
    if (!out.record.cache_hit) waits.push_back(out.wait_ms);
    const double rtt =
        (out.record.completed_sec - out.record.submitted_sec) * 1e3;
    net_self.push_back(rtt - out.wait_ms - out.run_ms);
    runs.push_back(out.run_ms);
    client_ms.push_back(
        (out.record.completed_sec - out.record.scheduled_sec) * 1e3);
  }
  const auto m = stack.service().metrics();
  report.metric("service.queue_wait_p50_ms", percentile(waits, 0.5), "ms");
  report.metric("service.queue_wait_p99_ms", percentile(waits, 0.99), "ms");
  emit_service_counters(base.service, m, report);
  report.metric("io.cache_stored",
                static_cast<double>(m.cache_stored - base.service.cache_stored),
                "count");
  report.metric("io.journal_bytes",
                journal_bytes(cache_path) - journal0, "B");
  const auto t0 = Clock::now();
  stack.service().flush_cache();
  report.metric("io.flush_ms", ms_between(t0, Clock::now()), "ms");

  // Replays of the program's public calls on this run's own inputs.
  double mvodm_ms = 0.0, to_qubo_us = 0.0, codec_us = 0.0, bytes = 0.0;
  std::size_t replays = 0;
  for (std::size_t i = 0; i < pass.jobs.size() && replays < kReplayJobs; ++i) {
    const auto& out = pass.jobs[i];
    if (out.batch == nullptr) continue;
    const auto& spec = inputs.specs.at(inputs.schedule.jobs[i].model_seed);
    mvodm_ms += replay_us(3, [&] {
                  tsp::mvodm_preprocess(spec.prepared->original());
                }) / 1e3;
    to_qubo_us +=
        replay_us(3, [&] { spec.prepared->problem().to_qubo(spec.a); });
    const auto wire = replay_wire(spec.job, out.batch);
    bytes += wire.bytes;
    codec_us += wire.codec_us;
    ++replays;
  }
  const double r = static_cast<double>(std::max<std::size_t>(replays, 1));
  report.metric("problems.mvodm_ms", mvodm_ms / r, "ms");
  report.metric("problems.to_qubo_us", to_qubo_us / r, "us");

  report.metric("net.frames_per_job", base.frames_since(stack) / n, "frames");
  report.metric("net.bytes_per_job", bytes / r, "bytes");
  report.metric("net.self_p50_ms", percentile(net_self, 0.5), "ms");
  report.metric("net.self_p99_ms", percentile(net_self, 0.99), "ms");
  double stalls = 0.0;
  for (const double v : net_self) stalls += v >= 40.0 ? 1.0 : 0.0;
  report.metric("net.stall_share",
                net_self.empty() ? 0.0 : stalls / net_self.size(), "ratio");
  report.metric("load.gen_lag_p99_ms", percentile(verdict.lag_ms, 0.99), "ms");

  // Kernel calls per ok job: hits and joins ran no kernel of their own.
  const double ok = static_cast<double>(std::max<std::size_t>(verdict.ok, 1));
  const double qubo_ms =
      static_cast<double>(ledger.total_calls()) * adjacency_us / 1e3 / ok;
  Budget budget;
  budget.client_ms = mean(client_ms);
  budget.self_ms["load"] = mean(verdict.lag_ms);
  budget.self_ms["net"] = codec_us / r / 1e3;
  budget.self_ms["service"] = sum(waits) / ok;
  budget.self_ms["qubo"] = qubo_ms;
  budget.self_ms["solvers"] = mean(runs) - qubo_ms;
  budget.emit(report);
}

}  // namespace

void run_solve_open(const RunArgs& args, Report& report) {
  Inputs inputs = make_inputs(args.seed, kRatePerSecond, args.seconds);
  // Chunk seeds come off one derived parent: derive_seed(seed, i) itself
  // gives seeds 3 and 4 the same set of chunks, in another order.
  const std::uint64_t heat_seed = derive_seed(args.seed, 0x48454154);
  std::vector<Inputs> heat;
  for (std::size_t i = 0; i < kHeatChunks; ++i) {
    heat.push_back(make_inputs(derive_seed(heat_seed, i), kHeatRatePerSecond,
                               kHeatSeconds / kHeatChunks));
    heat.back().prepare_all();
  }
  Inputs warmup =
      make_inputs(derive_seed(args.seed, 0x5741524d), kRatePerSecond, 1.0);
  warmup.prepare_all();

  KernelLedger ledger;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  std::string cache_path;
  int generation = 0;
  const auto set_up = [&] {
    stack.reset();
    cache_path = args.work_dir + "/open-" + std::to_string(generation++) +
                 ".qsnap";
    const auto t0 = Clock::now();
    inputs.prepare_all();
    StackConfig config;
    config.listen = "unix:" + args.work_dir + "/open.sock";
    config.cache_capacity =
        2 * (inputs.schedule.jobs.size() + warmup.schedule.jobs.size());
    config.cache_path = cache_path;
    stack = std::make_unique<Stack>(config, &ledger);
    connect_client(stack->endpoint(), "probe");
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  };
  // The first stack, set up before any heat, only carries the first chunk;
  // its set-up time is dropped.
  set_up();
  setup_s.clear();
  for (const auto& chunk : heat) {
    replay(chunk, stack->endpoint(), false);
    set_up();
  }
  replay(warmup, stack->endpoint(), false);
  ledger.reset(args.trace);
  const Baseline base = Baseline::take(*stack);
  const double journal0 = journal_bytes(cache_path);

  const auto hits0 = base.service.cache_hits;
  const Pass pass = replay(inputs, stack->endpoint(), args.trace);
  const Verdict verdict = verify(inputs, pass, report);
  report.check(stack->service().metrics().cache_hits - hits0 == verdict.hits,
               "service cache-hit counter disagrees with the client");
  report.simd = stack->service().metrics().simd_kernel;
  report.attempted = pass.jobs.size();
  report.failed = pass.jobs.size() - verdict.ok;
  report.note("solve_open: " + std::to_string(pass.jobs.size()) + " jobs at " +
              std::to_string(kRatePerSecond) + "/s, " +
              std::to_string(verdict.hits) + " cache hits, " +
              std::to_string(verdict.coalesced) + " joined, " +
              std::to_string(verdict.ok) + " ok, busy share " +
              std::to_string(ledger.total_busy_ms() /
                             (Stack::kWorkers * pass.wall_s * 1e3)) +
              ", generator lag p99 " +
              std::to_string(percentile(verdict.lag_ms, 0.99)) + " ms");
  if (!args.trace) {
    emit_end_to_end(report, verdict.latency_ms, pass.wall_s, verdict.ok,
                    pass.jobs.size(), kTailQuantile, verdict.ok_within_slo,
                    verdict.gap_pct,
                    setup_s);
    return;
  }

  std::vector<double> plain_ms, traced_ms;
  for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
    (in_traced_window(pass.jobs[i].record.scheduled_sec) ? traced_ms
                                                          : plain_ms)
        .push_back(verdict.latency_ms[i]);
  }
  report.metric("obs.trace_overhead_pct",
                100.0 * (mean(traced_ms) - mean(plain_ms)) / mean(plain_ms),
                "%");
  report_layers(inputs, pass, verdict, *stack, ledger, cache_path, base,
                journal0, report);
  // No tune sessions and no snapshot load on this workload.
  report.unused({"surrogate.rows_per_session", "surrogate.passes_per_session",
                 "surrogate.combined_row_ratio", "surrogate.predict_us_per_row",
                 "qross.solver_calls_per_session", "qross.feasible_probe_ratio",
                 "qross.strategy_self_ms_per_session", "io.warm_fill_ms",
                 "io.cache_loaded"});
  report.note("trace artifact: " + write_trace_artifact(args));
}

}  // namespace qrossbench
