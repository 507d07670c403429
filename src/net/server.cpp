#include "net/server.hpp"

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <memory>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <utility>

#include "common/thread_annotations.hpp"
#include "io/binary.hpp"
#include "obs/log.hpp"
#include "service/tune_service.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "solvers/digital_annealer.hpp"
#include "solvers/parallel_tempering.hpp"
#include "solvers/qbsolv.hpp"
#include "solvers/simulated_annealer.hpp"
#include "solvers/tabu_search.hpp"

namespace qross::net {

solvers::SolverPtr default_solver_registry(const std::string& name) {
  if (name == "da") return std::make_shared<solvers::DigitalAnnealer>();
  if (name == "sa") return std::make_shared<solvers::SimulatedAnnealer>();
  if (name == "tabu") return std::make_shared<solvers::TabuSearch>();
  if (name == "pt") return std::make_shared<solvers::ParallelTempering>();
  if (name == "qbsolv") return std::make_shared<solvers::Qbsolv>();
  return nullptr;
}

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

struct Server::Impl {
  // One submitted job as the serving side tracks it.
  struct PendingJob {
    service::JobHandle handle;
    bool stream_status = false;
    service::JobStatus last_reported = service::JobStatus::queued;
    std::uint64_t trace_id = 0;  ///< client-supplied; stamps the result span
  };

  // One tune session as the serving side tracks it.  `reported` is the
  // high-water mark of streamed trial events: the persistent notify hook
  // may enqueue many completions per session, and each reactor pass streams
  // only events_since(reported), so duplicate wakeups send nothing twice.
  struct PendingTune {
    service::TuneHandle handle;
    std::size_t reported = 0;
    std::uint64_t trace_id = 0;
  };

  struct Connection {
    std::uint64_t id = 0;
    /// Admission identity: the Hello's self-reported client_id, else
    /// "conn-<id>" so each anonymous connection is its own quota bucket.
    std::string client_id;
    Socket sock;
    FrameBuffer in;
    std::vector<std::uint8_t> out;  // unsent frame bytes, FIFO
    std::size_t out_offset = 0;
    bool handshaken = false;
    bool closing = false;  // flush `out`, then close
    std::map<std::uint64_t, PendingJob> jobs;
    std::map<std::uint64_t, PendingTune> tunes;
    std::uint64_t submitted = 0;
    std::uint64_t results = 0;
    std::uint64_t cancels = 0;

    explicit Connection(std::uint64_t id_, Socket sock_)
        : id(id_), sock(std::move(sock_)) {}
  };

  /// Completion hooks outlive the server when cancelled kernels finish
  /// late; they reach the Impl only through this null-able indirection.
  /// Hooks call deliver() — never touch `impl` directly — so the guard is
  /// enforced at the one place the pointer is read.
  struct CompletionSink {
    Mutex m;
    Impl* impl GUARDED_BY(m) = nullptr;  // nulled by stop() after the join

    void deliver(std::uint64_t conn_id, std::uint64_t tag, bool tune)
        EXCLUDES(m) {
      MutexLock lock(m);
      if (impl != nullptr) impl->on_complete(conn_id, tag, tune);
    }

    /// Severs the indirection; any hook mid-deliver finishes first (it
    /// holds m), so after this returns no hook can reach the Impl.
    void detach() EXCLUDES(m) {
      MutexLock lock(m);
      impl = nullptr;
    }
  };

  Impl(service::SolveService& svc, ServerConfig cfg)
      : service(svc), config(std::move(cfg)) {
    sink = std::make_shared<CompletionSink>();
    {
      MutexLock lock(sink->m);
      sink->impl = this;
    }
    ctr_frames_sent = obs::registry().counter(
        "qross_net_frames_sent_total", "Frames queued to peers");
    ctr_frames_received = obs::registry().counter(
        "qross_net_frames_received_total", "Well-framed frames received");
  }

  service::SolveService& service;
  ServerConfig config;
  std::shared_ptr<CompletionSink> sink;

  std::vector<Socket> listeners;
  std::vector<Endpoint> bound;
  int wake_read = -1;
  int wake_write = -1;
  std::thread reactor;
  /// Owner-thread-only: start()/drain()/stop() are driven by the thread
  /// that owns the Server (qrossd's main/signal path), never the reactor.
  bool started = false;

  // Cross-thread state (reactor <-> public API / completion hooks).
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t tag = 0;
    bool tune = false;  ///< progress/terminal of a tune session, not a job
  };
  mutable Mutex m;
  std::condition_variable cv;
  std::vector<Completion> completions GUARDED_BY(m);
  bool stop_requested GUARDED_BY(m) = false;
  bool draining GUARDED_BY(m) = false;
  bool drain_done GUARDED_BY(m) = false;
  bool stopped GUARDED_BY(m) = false;
  ServerStats stats GUARDED_BY(m);

  // Reactor-thread-only state (stop() touches it only after the join, when
  // the reactor is gone — single-threaded again, so no guard applies).
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
  std::uint64_t next_conn_id = 1;

  // Registry instruments (atomic updates only — safe on the reactor).
  obs::Counter* ctr_frames_sent = nullptr;
  obs::Counter* ctr_frames_received = nullptr;

  // --- wakeup -----------------------------------------------------------

  void wake() const {
    const char byte = 1;
    if (wake_write >= 0) {
      [[maybe_unused]] const auto n = ::write(wake_write, &byte, 1);
    }
  }

  /// Called by JobHandle::notify / TuneHandle::notify hooks — possibly from
  /// inside the service lock, so this must only enqueue and signal (see
  /// job.hpp contract).  Tune hooks are persistent (one enqueue per trial
  /// plus the terminal one); the reactor dedups via PendingTune::reported.
  void on_complete(std::uint64_t conn_id, std::uint64_t tag,
                   bool tune = false) EXCLUDES(m) {
    {
      MutexLock lock(m);
      completions.push_back({conn_id, tag, tune});
    }
    wake();
  }

  // --- frame output -----------------------------------------------------

  void queue_frame(Connection* conn, std::uint32_t type,
                   std::span<const std::uint8_t> payload) EXCLUDES(m) {
    ctr_frames_sent->inc();
    std::vector<std::uint8_t> bytes;
    {
      obs::ScopedSpan span("frame_encode", "net");
      bytes = frame(type, payload);
    }
    conn->out.insert(conn->out.end(), bytes.begin(), bytes.end());
    {
      MutexLock lock(m);
      ++stats.frames_sent;
    }
    flush_out(conn);
  }

  /// Admission/lifecycle refusals (draining, quota): the peer used the
  /// protocol correctly, so the Error frame goes out WITHOUT counting a
  /// protocol error — those rejections have their own counters
  /// (ServiceMetrics::admission_rejected, ServerStats rejection fields).
  void queue_refusal(Connection* conn, std::uint64_t tag, std::uint32_t code,
                     const std::string& message) EXCLUDES(m) {
    ErrorFrame error;
    error.tag = tag;
    error.code = code;
    error.message = message;
    queue_frame(conn, io::kRecordNetError, encode_error(error));
  }

  void queue_error(Connection* conn, std::uint64_t tag, std::uint32_t code,
                   const std::string& message) EXCLUDES(m) {
    // Count BEFORE the frame departs: a peer that has seen the Error frame
    // must see the counter too (tests and operators correlate the two).
    {
      MutexLock lock(m);
      ++stats.protocol_errors;
    }
    queue_refusal(conn, tag, code, message);
  }

  /// Non-blocking write of the pending bytes; a peer that cannot keep up
  /// simply keeps its buffer until POLLOUT.
  void flush_out(Connection* conn) {
    while (conn->out_offset < conn->out.size()) {
      const ssize_t n =
          ::send(conn->sock.fd(), conn->out.data() + conn->out_offset,
                 conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        conn->closing = true;  // broken pipe: close once we fall out
        conn->out.clear();
        conn->out_offset = 0;
        return;
      }
      conn->out_offset += static_cast<std::size_t>(n);
    }
    conn->out.clear();
    conn->out_offset = 0;
  }

  bool out_empty(const Connection* conn) const {
    return conn->out_offset >= conn->out.size();
  }

  // --- request handling -------------------------------------------------

  void handle_submit(Connection* conn, const Frame& f) EXCLUDES(m) {
    SubmitJobFrame submit;
    // std::exception, not just DecodeError: a decoder slip (bad_alloc from
    // a hostile size that passed the sanity bounds, length_error, ...)
    // must cost one request, never the reactor thread.
    try {
      obs::ScopedSpan span("frame_decode", "net");
      submit = decode_submit(f.payload);
    } catch (const std::exception& e) {
      queue_error(conn, 0, kErrBadFrame,
                  std::string("undecodable SubmitJob: ") + e.what());
      return;
    }
    if (is_draining()) {
      queue_refusal(conn, submit.tag, kErrDraining,
                    "server is draining; submissions refused");
      return;
    }
    if (conn->jobs.contains(submit.tag) || conn->tunes.contains(submit.tag)) {
      queue_error(conn, submit.tag, kErrBadRequest,
                  "tag already has an in-flight request");
      return;
    }
    const auto solver = config.registry(submit.solver);
    if (solver == nullptr) {
      queue_error(conn, submit.tag, kErrUnknownSolver,
                  "unknown solver: " + submit.solver);
      return;
    }
    solvers::SolveOptions options;
    options.num_replicas = submit.num_replicas;
    options.num_sweeps = submit.num_sweeps;
    options.seed = submit.seed;
    service::SubmitOptions submit_options;
    submit_options.priority = submit.priority;
    submit_options.bypass_cache = submit.bypass_cache;
    if (submit.deadline_ms > 0) {
      submit_options.deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(submit.deadline_ms);
    }
    submit_options.client_id = conn->client_id;
    submit_options.trace_id = submit.trace_id;
    service::JobHandle handle;
    try {
      handle = service.submit(solver, submit.model, options, submit_options);
    } catch (const service::AdmissionError& e) {
      // Only genuinely transient refusals are kErrDraining (retryable);
      // quota violations get their own permanent code so a client stops
      // resubmitting a job that cannot be admitted until its OWN earlier
      // work finishes.
      queue_refusal(conn, submit.tag,
                    e.retryable() ? kErrDraining : kErrQuotaExceeded,
                    e.what());
      return;
    } catch (const std::exception& e) {
      // Anything else the service refused is wrong with THIS request (bad
      // options, invalid model, ...): permanently invalid, never "try the
      // same bytes again later".  Mapping these to kErrDraining used to
      // make clients resubmit unacceptable jobs forever.
      queue_error(conn, submit.tag, kErrBadRequest, e.what());
      return;
    }
    PendingJob job;
    job.handle = handle;
    job.stream_status = submit.stream_status;
    job.trace_id = submit.trace_id;
    conn->jobs.emplace(submit.tag, std::move(job));
    ++conn->submitted;
    {
      MutexLock lock(m);
      ++stats.submits;
    }
    if (submit.stream_status && !handle.finished()) {
      JobStatusFrame status;
      status.tag = submit.tag;
      status.status = handle.status();
      queue_frame(conn, io::kRecordNetJobStatus, encode_job_status(status));
      conn->jobs[submit.tag].last_reported = status.status;
    }
    // The hook fires immediately (on this thread) for cache hits — the
    // completion lands in the queue and is flushed this same reactor pass.
    const auto sink_ref = sink;
    const auto conn_id = conn->id;
    const auto tag = submit.tag;
    handle.notify([sink_ref, conn_id, tag] {
      sink_ref->deliver(conn_id, tag, /*tune=*/false);
    });
  }

  void handle_submit_tune(Connection* conn, const Frame& f) EXCLUDES(m) {
    SubmitTuneFrame submit;
    try {
      obs::ScopedSpan span("frame_decode", "net");
      submit = decode_submit_tune(f.payload);
    } catch (const std::exception& e) {
      queue_error(conn, 0, kErrBadFrame,
                  std::string("undecodable SubmitTune: ") + e.what());
      return;
    }
    if (is_draining()) {
      queue_refusal(conn, submit.tag, kErrDraining,
                    "server is draining; submissions refused");
      return;
    }
    if (config.tune == nullptr) {
      // Capability refusal, not a protocol error: the frame was fine, this
      // daemon just runs without a tuner (qrossd without --tuner).
      queue_refusal(conn, submit.tag, kErrTuningUnavailable,
                    "no tuner loaded on this server");
      return;
    }
    if (conn->jobs.contains(submit.tag) || conn->tunes.contains(submit.tag)) {
      queue_error(conn, submit.tag, kErrBadRequest,
                  "tag already has an in-flight request");
      return;
    }
    const auto solver = config.registry(submit.solver);
    if (solver == nullptr) {
      queue_error(conn, submit.tag, kErrUnknownSolver,
                  "unknown solver: " + submit.solver);
      return;
    }
    if (submit.strategy > kTuneOfs) {
      queue_error(conn, submit.tag, kErrBadRequest,
                  "unknown tune strategy code " +
                      std::to_string(submit.strategy));
      return;
    }
    service::TuneHandle handle;
    try {
      tsp::TspInstance instance = unpack_tsp_instance(
          submit.instance, submit.instance_name.empty()
                               ? "remote-tune-" + std::to_string(submit.tag)
                               : submit.instance_name);
      core::TuneOptions options;
      options.trials = submit.trials;
      options.a_min = submit.a_min;
      options.a_max = submit.a_max;
      options.seed = submit.seed;
      options.mode = static_cast<core::TuneStrategyKind>(submit.strategy);
      options.pf_target = submit.pf_target;
      service::TuneSubmitOptions tune_submit;
      tune_submit.client_id = conn->client_id;
      tune_submit.trace_id = submit.trace_id;
      handle = config.tune->submit(std::move(instance), solver,
                                   std::move(options), std::move(tune_submit));
    } catch (const service::AdmissionError& e) {
      // shutting_down mirrors job admission (kErrDraining); the session
      // quota is transient capacity pressure — kErrServerFull, the same
      // "back off and retry" signal as a full accept queue.
      const std::uint32_t code =
          e.kind() == service::AdmissionErrorKind::shutting_down
              ? kErrDraining
              : (e.retryable() ? kErrServerFull : kErrQuotaExceeded);
      queue_refusal(conn, submit.tag, code, e.what());
      return;
    } catch (const std::exception& e) {
      // Instance/validation failures are wrong with THIS request.
      queue_error(conn, submit.tag, kErrBadRequest, e.what());
      return;
    }
    PendingTune pending;
    pending.handle = handle;
    pending.trace_id = submit.trace_id;
    conn->tunes.emplace(submit.tag, std::move(pending));
    ++conn->submitted;
    {
      MutexLock lock(m);
      ++stats.tune_submits;
    }
    // Persistent hook: one wakeup per completed trial, one more at the
    // terminal transition (and immediately if anything already happened).
    const auto sink_ref = sink;
    const auto conn_id = conn->id;
    const auto tag = submit.tag;
    handle.notify([sink_ref, conn_id, tag] {
      sink_ref->deliver(conn_id, tag, /*tune=*/true);
    });
  }

  void handle_frame(Connection* conn, const Frame& f) EXCLUDES(m) {
    ctr_frames_received->inc();
    {
      MutexLock lock(m);
      ++stats.frames_received;
    }
    if (!conn->handshaken) {
      if (f.type != io::kRecordNetHello) {
        queue_error(conn, 0, kErrHandshakeRequired,
                    "first frame must be Hello");
        conn->closing = true;
        return;
      }
      HelloFrame hello;
      try {
        hello = decode_hello(f.payload);
      } catch (const io::DecodeError& e) {
        queue_error(conn, 0, kErrBadFrame,
                    std::string("undecodable Hello: ") + e.what());
        conn->closing = true;
        return;
      }
      if (hello.protocol_version > kProtocolVersion) {
        // A FUTURE client: refuse rather than guess at its semantics.  The
        // error carries our version so the client can retry lower.
        queue_error(conn, 0, kErrFutureVersion,
                    "protocol version " +
                        std::to_string(hello.protocol_version) +
                        " is newer than this server's " +
                        std::to_string(kProtocolVersion));
        conn->closing = true;
        return;
      }
      if (hello.protocol_version == 0) {
        queue_error(conn, 0, kErrBadRequest, "protocol version 0 is invalid");
        conn->closing = true;
        return;
      }
      if (hello.client_id.size() > 128) {
        // The id becomes a scheduler/metrics map key held for the daemon's
        // lifetime; an unbounded one is a memory lever, not a name.
        queue_error(conn, 0, kErrBadRequest,
                    "client_id longer than 128 bytes");
        conn->closing = true;
        return;
      }
      conn->handshaken = true;
      conn->client_id = hello.client_id.empty()
                            ? "conn-" + std::to_string(conn->id)
                            : hello.client_id;
      obs::log_event(obs::LogLevel::debug, "conn_hello",
                     {{"conn", std::to_string(conn->id)},
                      {"client_id", conn->client_id},
                      {"protocol", std::to_string(hello.protocol_version)}});
      HelloAckFrame ack;
      ack.protocol_version = kProtocolVersion;
      ack.max_frame_bytes = config.max_frame_bytes;
      queue_frame(conn, io::kRecordNetHelloAck, encode_hello_ack(ack));
      return;
    }
    switch (f.type) {
      case io::kRecordNetSubmitJob:
        handle_submit(conn, f);
        return;
      case io::kRecordNetSubmitTune:
        handle_submit_tune(conn, f);
        return;
      case io::kRecordNetCancelTune: {
        CancelTuneFrame cancel;
        try {
          cancel = decode_cancel_tune(f.payload);
        } catch (const io::DecodeError&) {
          queue_error(conn, 0, kErrBadFrame, "undecodable CancelTune");
          return;
        }
        const auto it = conn->tunes.find(cancel.tag);
        if (it == conn->tunes.end()) {
          queue_error(conn, cancel.tag, kErrUnknownTag,
                      "no in-flight tune session with this tag");
          return;
        }
        // The TuneResult (status = cancelled) arrives through the normal
        // notify path once the session thread reaches its stop boundary.
        it->second.handle.cancel();
        ++conn->cancels;
        MutexLock lock(m);
        ++stats.tune_cancels;
        return;
      }
      case io::kRecordNetCancelJob: {
        CancelJobFrame cancel;
        try {
          cancel = decode_cancel(f.payload);
        } catch (const io::DecodeError&) {
          queue_error(conn, 0, kErrBadFrame, "undecodable CancelJob");
          return;
        }
        const auto it = conn->jobs.find(cancel.tag);
        if (it == conn->jobs.end()) {
          queue_error(conn, cancel.tag, kErrUnknownTag,
                      "no in-flight job with this tag");
          return;
        }
        it->second.handle.cancel();
        ++conn->cancels;
        MutexLock lock(m);
        ++stats.cancels;
        return;
      }
      case io::kRecordNetGetMetrics: {
        MetricsFrame metrics;
        metrics.service = service.metrics();
        {
          MutexLock lock(m);
          metrics.connections_accepted = stats.connections_accepted;
          metrics.connections_active = stats.connections_active;
          metrics.protocol_errors = stats.protocol_errors;
          metrics.connections_rejected_full = stats.connections_rejected_full;
        }
        metrics.connection_submitted = conn->submitted;
        metrics.connection_results = conn->results;
        metrics.connection_cancelled = conn->cancels;
        metrics.client_id = conn->client_id;
        // The rows ride in MetricsFrame::clients on the wire; the copy
        // inside `service` is never encoded, so move it out.
        metrics.clients = std::move(metrics.service.clients);
        queue_frame(conn, io::kRecordNetMetrics, encode_metrics(metrics));
        return;
      }
      case io::kRecordNetGetTrace: {
        // The dump is a snapshot of the process-global recorder; an empty
        // buffer (tracing never enabled) is a valid empty trace, not an
        // error — the caller sees zero events and the counters.
        const std::string json =
            obs::chrome_trace_json(obs::TraceRecorder::instance());
        queue_frame(conn, io::kRecordNetTraceDump, encode_text(json));
        return;
      }
      case io::kRecordNetGetProm: {
        queue_frame(conn, io::kRecordNetPromText,
                    encode_text(obs::registry().render_prometheus()));
        return;
      }
      case io::kRecordNetHello:
        queue_error(conn, 0, kErrBadRequest, "duplicate Hello");
        return;
      default:
        // Unknown-but-well-framed types mirror the snapshot scanner's
        // tolerance: reject the frame, keep the connection.
        queue_error(conn, 0, kErrUnknownType,
                    "unknown frame type " + std::to_string(f.type));
        return;
    }
  }

  void send_result(Connection* conn, std::uint64_t tag) EXCLUDES(m) {
    const auto it = conn->jobs.find(tag);
    if (it == conn->jobs.end()) return;  // tag already retired
    const service::JobHandle handle = it->second.handle;
    if (!handle.finished()) return;  // defensive; hooks fire on terminal
    const service::JobResult r = handle.result();
    ResultFrame result;
    result.tag = tag;
    result.status = r.status;
    result.cache_hit = r.cache_hit;
    result.coalesced = r.coalesced;
    result.wait_ms = r.wait_ms;
    result.run_ms = r.run_ms;
    result.error = r.error;
    result.batch = r.batch;
    const std::uint64_t trace_id = it->second.trace_id;
    conn->jobs.erase(it);
    ++conn->results;
    {
      // Encode + enqueue of the terminal result — the final lifecycle span
      // (submit → queue → dispatch → kernel → journal → result).
      obs::ScopedSpan span("result_flush", "net", handle.id(), trace_id);
      queue_frame(conn, io::kRecordNetResult, encode_result(result));
    }
    MutexLock lock(m);
    ++stats.results_sent;
  }

  /// Streams unreported trial events as TuneStatus frames, then — once the
  /// session is terminal — the TuneResult frame.  Idempotent per wakeup:
  /// the persistent hook enqueues one completion per trial, and `reported`
  /// makes each event go out exactly once.
  void send_tune_progress(Connection* conn, std::uint64_t tag) EXCLUDES(m) {
    const auto it = conn->tunes.find(tag);
    if (it == conn->tunes.end()) return;  // tag already retired
    PendingTune& pending = it->second;
    const auto events = pending.handle.events_since(pending.reported);
    for (const auto& event : events) {
      TuneStatusFrame status;
      status.tag = tag;
      status.trial = static_cast<std::uint32_t>(event.index);
      status.total = static_cast<std::uint32_t>(event.total);
      status.relaxation_parameter = event.relaxation_parameter;
      status.pf = event.pf;
      status.best_length = event.best_length;
      status.energy_avg = event.energy_avg;
      status.energy_std = event.energy_std;
      status.feasible = event.feasible;
      queue_frame(conn, io::kRecordNetTuneStatus, encode_tune_status(status));
    }
    pending.reported += events.size();
    if (!pending.handle.finished()) return;
    // Every event precedes the terminal transition on the session thread,
    // so a finished handle has already streamed its full trial history.
    const service::TuneHandle handle = pending.handle;
    const std::uint64_t trace_id = pending.trace_id;
    const service::TuneSessionResult r = handle.result();
    TuneResultFrame result;
    result.tag = tag;
    switch (r.status) {
      case service::TuneSessionStatus::done:
        result.status = kTuneDone;
        break;
      case service::TuneSessionStatus::cancelled:
        result.status = kTuneCancelled;
        break;
      default:
        result.status = kTuneFailed;
        break;
    }
    result.error = r.error;
    result.best_length = r.outcome.best_length;
    result.best_parameter = r.outcome.best_parameter;
    result.best_tour.reserve(r.outcome.best_tour.size());
    for (const auto city : r.outcome.best_tour) {
      result.best_tour.push_back(static_cast<std::uint32_t>(city));
    }
    result.trials.reserve(r.outcome.trials.size());
    for (const auto& trial : r.outcome.trials) {
      result.trials.push_back({trial.relaxation_parameter, trial.pf,
                               trial.best_length_so_far});
    }
    result.solver_invocations = r.solver_invocations;
    result.wall_ms = r.wall_ms;
    conn->tunes.erase(it);
    ++conn->results;
    {
      obs::ScopedSpan span("tune_result_flush", "net", handle.id(), trace_id);
      queue_frame(conn, io::kRecordNetTuneResult, encode_tune_result(result));
    }
    MutexLock lock(m);
    ++stats.tune_results_sent;
  }

  // --- connection lifecycle ---------------------------------------------

  void close_connection(std::uint64_t id) EXCLUDES(m) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    Connection* conn = it->second.get();
    std::uint64_t cancelled = 0;
    for (auto& [tag, job] : conn->jobs) {
      if (!job.handle.finished()) {
        job.handle.cancel();
        ++cancelled;
      }
    }
    std::uint64_t cancelled_tunes = 0;
    for (auto& [tag, pending] : conn->tunes) {
      if (!pending.handle.finished()) {
        pending.handle.cancel();
        ++cancelled_tunes;
      }
    }
    obs::log_event(obs::LogLevel::info, "conn_close",
                   {{"conn", std::to_string(id)},
                    {"client_id", conn->client_id},
                    {"cancelled_jobs", std::to_string(cancelled)},
                    {"cancelled_tunes", std::to_string(cancelled_tunes)}});
    conns.erase(it);
    MutexLock lock(m);
    stats.disconnect_cancelled_jobs += cancelled;
    stats.disconnect_cancelled_tunes += cancelled_tunes;
    stats.connections_active = conns.size();
  }

  void accept_pending(const Socket& listener) EXCLUDES(m) {
    while (true) {
      Socket sock = accept_from(listener);
      if (!sock.valid()) return;  // EAGAIN or transient error; poll again later
      if (conns.size() >= config.max_connections) {
        // Tell the peer WHY before closing: a bare close looks like a
        // network failure and used to send Client's reconnect-with-backoff
        // hammering a full server forever.  kErrServerFull is retryable —
        // back off until some connection leaves.  Best-effort blocking
        // send: the frame is ~100 bytes into a fresh socket buffer, so it
        // cannot stall the reactor.
        ErrorFrame error;
        error.code = kErrServerFull;
        error.message = "server at max_connections (" +
                        std::to_string(config.max_connections) +
                        "); retry after backoff";
        const auto bytes = frame(io::kRecordNetError, encode_error(error));
        std::size_t sent = 0;
        while (sent < bytes.size()) {
          const ssize_t n = ::send(sock.fd(), bytes.data() + sent,
                                   bytes.size() - sent, MSG_NOSIGNAL);
          if (n < 0 && errno == EINTR) continue;
          if (n <= 0) break;
          sent += static_cast<std::size_t>(n);
        }
        sock.close();
        MutexLock lock(m);
        ++stats.connections_rejected_full;
        continue;
      }
      set_nonblocking(sock.fd());
      const auto id = next_conn_id++;
      conns.emplace(id, std::make_unique<Connection>(id, std::move(sock)));
      conns[id]->in = FrameBuffer(config.max_frame_bytes);
      obs::log_event(obs::LogLevel::info, "conn_open",
                     {{"conn", std::to_string(id)}});
      MutexLock lock(m);
      ++stats.connections_accepted;
      stats.connections_active = conns.size();
    }
  }

  /// Reads everything available; returns false when the connection should
  /// be torn down after its out buffer flushes.
  bool read_ready(Connection* conn) EXCLUDES(m) {
    std::uint8_t buf[65536];
    bool saw_eof = false;
    while (true) {
      const ssize_t n = ::recv(conn->sock.fd(), buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;  // hard error: peer is gone
      }
      if (n == 0) {  // orderly EOF; handled after the frames are drained
        saw_eof = true;
        break;
      }
      conn->in.append(buf, static_cast<std::size_t>(n));
    }
    Frame f;
    while (true) {
      const auto status = conn->in.next(&f);
      if (status == FrameBuffer::Status::need_more) break;
      if (status == FrameBuffer::Status::oversized) {
        queue_error(conn, 0, kErrOversizedFrame,
                    "frame exceeds the " +
                        std::to_string(config.max_frame_bytes) +
                        "-byte limit");
        conn->closing = true;
        break;
      }
      if (status == FrameBuffer::Status::bad_frame) {
        queue_error(conn, 0, kErrBadFrame,
                    "frame checksum mismatch; closing the stream");
        conn->closing = true;
        break;
      }
      handle_frame(conn, f);
      if (conn->closing) break;
    }
    if (saw_eof) {
      // Only bytes the parse loop could not consume count as truncation —
      // a complete final frame followed by close is the legal
      // fire-and-forget pattern, not a protocol error.
      if (!conn->closing && conn->in.mid_frame()) {
        // The peer half-closed inside a frame; tell it (its read side may
        // still be open) before closing.
        queue_error(conn, 0, kErrTruncatedFrame,
                    "connection ended inside a frame");
      }
      conn->closing = true;
    }
    return true;
  }

  /// queued→running transitions for stream_status jobs (poll-driven; the
  /// terminal transition arrives through the completion hook instead).
  void stream_status_tick(Connection* conn) EXCLUDES(m) {
    for (auto& [tag, job] : conn->jobs) {
      if (!job.stream_status) continue;
      const auto status = job.handle.status();
      if (status == job.last_reported || service::is_terminal(status)) {
        continue;
      }
      JobStatusFrame frame_data;
      frame_data.tag = tag;
      frame_data.status = status;
      queue_frame(conn, io::kRecordNetJobStatus,
                  encode_job_status(frame_data));
      job.last_reported = status;
    }
  }

  bool is_draining() const EXCLUDES(m) {
    MutexLock lock(m);
    return draining;
  }

  /// Blocks until the reactor reports the drain finished (or the server
  /// stopped underneath us); true iff drained within `deadline`.
  bool wait_drained(std::chrono::milliseconds deadline) EXCLUDES(m) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    MutexLock lock(m);
    while (!drain_done && !stopped) {
      if (cv.wait_until(lock.native(), until) == std::cv_status::timeout) {
        return drain_done || stopped;
      }
    }
    return true;
  }

  // --- the reactor ------------------------------------------------------

  void reactor_loop() EXCLUDES(m) {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = not a conn)
    while (true) {
      bool drain_now = false;
      {
        MutexLock lock(m);
        if (stop_requested) break;
        drain_now = draining;
      }
      fds.clear();
      fd_conn.clear();
      fds.push_back({wake_read, POLLIN, 0});
      fd_conn.push_back(0);
      if (!drain_now) {
        for (const auto& listener : listeners) {
          fds.push_back({listener.fd(), POLLIN, 0});
          fd_conn.push_back(0);
        }
      }
      bool any_stream_jobs = false;
      for (const auto& [id, conn] : conns) {
        short events = POLLIN;
        if (!out_empty(conn.get())) events |= POLLOUT;
        fds.push_back({conn->sock.fd(), events, 0});
        fd_conn.push_back(id);
        for (const auto& [tag, job] : conn->jobs) {
          if (job.stream_status) any_stream_jobs = true;
        }
      }
      // Completions arrive via the wake pipe; the only reason to tick on a
      // timer is sampling queued→running transitions for streamed jobs,
      // and re-checking the drain condition.
      const int timeout_ms = any_stream_jobs ? 20 : (drain_now ? 50 : -1);
      int rc;
      do {
        rc = ::poll(fds.data(), fds.size(), timeout_ms);
      } while (rc < 0 && errno == EINTR);

      // Drain the wake pipe.
      if (fds[0].revents & POLLIN) {
        char sink_buf[256];
        while (::read(wake_read, sink_buf, sizeof(sink_buf)) > 0) {
        }
      }

      // Deliver completed jobs' Result frames and tune sessions' progress.
      std::vector<Completion> done;
      {
        MutexLock lock(m);
        done.swap(completions);
      }
      for (const auto& c : done) {
        const auto it = conns.find(c.conn_id);
        if (it == conns.end()) continue;
        if (c.tune) {
          send_tune_progress(it->second.get(), c.tag);
        } else {
          send_result(it->second.get(), c.tag);
        }
      }

      // Accept, read, write.
      std::size_t fd_index = 1;
      if (!drain_now) {
        for (const auto& listener : listeners) {
          if (fds[fd_index].revents & POLLIN) accept_pending(listener);
          ++fd_index;
        }
      }
      std::vector<std::uint64_t> to_close;
      for (; fd_index < fds.size(); ++fd_index) {
        const auto conn_id = fd_conn[fd_index];
        const auto it = conns.find(conn_id);
        if (it == conns.end()) continue;
        Connection* conn = it->second.get();
        const short revents = fds[fd_index].revents;
        if (revents & (POLLERR | POLLNVAL)) {
          to_close.push_back(conn_id);
          continue;
        }
        if (revents & (POLLIN | POLLHUP)) {
          if (!read_ready(conn)) {
            to_close.push_back(conn_id);
            continue;
          }
        }
        if (!out_empty(conn)) flush_out(conn);
        if (conn->closing && out_empty(conn)) to_close.push_back(conn_id);
      }
      for (const auto id : to_close) close_connection(id);

      if (any_stream_jobs) {
        for (const auto& [id, conn] : conns) stream_status_tick(conn.get());
      }

      if (drain_now) {
        bool complete = true;
        for (const auto& [id, conn] : conns) {
          if (!conn->jobs.empty() || !conn->tunes.empty() ||
              !out_empty(conn.get())) {
            complete = false;
            break;
          }
        }
        if (complete) {
          MutexLock lock(m);
          if (!drain_done) {
            drain_done = true;
            cv.notify_all();
          }
        }
      }
    }
  }
};

Server::Server(service::SolveService& service, ServerConfig config)
    : impl_(std::make_unique<Impl>(service, std::move(config))) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  if (impl_->started) {
    if (error != nullptr) *error = "server already started";
    return false;
  }
  if (impl_->config.listen.empty()) {
    if (error != nullptr) *error = "no listen endpoints configured";
    return false;
  }
  for (const auto& endpoint : impl_->config.listen) {
    auto sock = listen_on(endpoint, error);
    if (!sock.valid()) {
      impl_->listeners.clear();
      impl_->bound.clear();
      return false;
    }
    set_nonblocking(sock.fd());
    const auto actual = local_endpoint(sock.fd());
    impl_->bound.push_back(actual.value_or(endpoint));
    impl_->listeners.push_back(std::move(sock));
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    if (error != nullptr) *error = "cannot create wake pipe";
    impl_->listeners.clear();
    impl_->bound.clear();
    return false;
  }
  impl_->wake_read = pipe_fds[0];
  impl_->wake_write = pipe_fds[1];
  set_nonblocking(impl_->wake_read);
  set_nonblocking(impl_->wake_write);
  impl_->started = true;
  impl_->reactor = std::thread([impl = impl_.get()] { impl->reactor_loop(); });
  return true;
}

std::vector<Endpoint> Server::endpoints() const { return impl_->bound; }

bool Server::drain(std::chrono::milliseconds deadline) {
  if (!impl_->started) return true;
  {
    MutexLock lock(impl_->m);
    impl_->draining = true;
  }
  impl_->wake();
  return impl_->wait_drained(deadline);
}

void Server::stop() {
  if (!impl_->started) return;
  {
    MutexLock lock(impl_->m);
    if (impl_->stopped) return;
    impl_->stop_requested = true;
  }
  impl_->wake();
  if (impl_->reactor.joinable()) impl_->reactor.join();
  // From here no other thread touches the connection table.  Null the hook
  // indirection FIRST: a kernel finishing late must find no Impl, and the
  // sink mutex makes any hook mid-delivery finish before we tear down.
  impl_->sink->detach();
  std::vector<std::uint64_t> ids;
  ids.reserve(impl_->conns.size());
  for (const auto& [id, conn] : impl_->conns) ids.push_back(id);
  for (const auto id : ids) impl_->close_connection(id);
  impl_->listeners.clear();
  if (impl_->wake_read >= 0) ::close(impl_->wake_read);
  if (impl_->wake_write >= 0) ::close(impl_->wake_write);
  impl_->wake_read = impl_->wake_write = -1;
  // Remove Unix socket files so the next daemon start is clean even after
  // an unlucky crash-free-but-unlinked exit.
  for (const auto& endpoint : impl_->bound) {
    if (endpoint.kind == Endpoint::Kind::unix_domain) {
      ::unlink(endpoint.path.c_str());
    }
  }
  {
    MutexLock lock(impl_->m);
    impl_->stopped = true;
  }
  impl_->cv.notify_all();
}

ServerStats Server::stats() const {
  MutexLock lock(impl_->m);
  return impl_->stats;
}

}  // namespace qross::net
