// Tests for the src/net/ network front end: endpoint parsing, the payload
// codecs and incremental frame splitter, the Server reactor above a real
// SolveService (submit/cancel/deadline/disconnect semantics over TCP and
// Unix-domain sockets), the blocking Client with reconnect, and the
// protocol-robustness contract — truncated frames, flipped checksum bytes,
// future protocol versions, and oversized frames all answered with a clean
// Error frame (the socket counterpart of io_test's corruption suite).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "counting_solver.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "problems/mvc/mvc.hpp"
#include "service/solve_service.hpp"
#include "solvers/digital_annealer.hpp"

namespace qross::net {
namespace {

using namespace std::chrono_literals;

qubo::QuboModel test_model(std::uint64_t seed = 7, std::size_t n = 32) {
  return mvc::generate_random_mvc(n, 0.12, seed).to_qubo(2.0);
}

bool eventually(const std::function<bool()>& condition,
                std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return condition();
}

// --- endpoints --------------------------------------------------------------

TEST(EndpointTest, ParsesTcpUnixAndShorthand) {
  const auto unix_ep = Endpoint::parse("unix:/tmp/q.sock");
  ASSERT_TRUE(unix_ep.has_value());
  EXPECT_EQ(unix_ep->kind, Endpoint::Kind::unix_domain);
  EXPECT_EQ(unix_ep->path, "/tmp/q.sock");
  EXPECT_EQ(unix_ep->to_string(), "unix:/tmp/q.sock");

  const auto tcp = Endpoint::parse("tcp:127.0.0.1:7777");
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->kind, Endpoint::Kind::tcp);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 7777);

  const auto shorthand = Endpoint::parse("localhost:0");
  ASSERT_TRUE(shorthand.has_value());
  EXPECT_EQ(shorthand->kind, Endpoint::Kind::tcp);
  EXPECT_EQ(shorthand->port, 0);

  EXPECT_FALSE(Endpoint::parse("").has_value());
  EXPECT_FALSE(Endpoint::parse("unix:").has_value());
  EXPECT_FALSE(Endpoint::parse("no-port").has_value());
  EXPECT_FALSE(Endpoint::parse("host:99999").has_value());
  EXPECT_FALSE(Endpoint::parse("host:notaport").has_value());
}

// --- socket options ---------------------------------------------------------

// Without TCP_NODELAY on the accepted socket, Nagle holds each small Result
// frame after the first until the client's delayed ACK (~40 ms): a stall
// per pipelined window.
TEST(SocketTest, AcceptedTcpSocketHasNoDelay) {
  std::string error;
  const auto listener = listen_on(*Endpoint::parse("tcp:127.0.0.1:0"), &error);
  ASSERT_TRUE(listener.valid()) << error;
  const auto bound = local_endpoint(listener.fd());
  ASSERT_TRUE(bound.has_value());
  const auto client = connect_to(*bound, 2000, &error);
  ASSERT_TRUE(client.valid()) << error;
  const auto accepted = accept_from(listener);
  ASSERT_TRUE(accepted.valid()) << std::strerror(errno);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted.fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         &len),
            0);
  EXPECT_EQ(nodelay, 1);
}

TEST(SocketTest, AcceptFromServesUnixDomain) {
  const auto path =
      std::filesystem::path(::testing::TempDir()) / "qross_accept_unix.sock";
  std::string error;
  const auto listener =
      listen_on(*Endpoint::parse("unix:" + path.string()), &error);
  ASSERT_TRUE(listener.valid()) << error;
  const auto client =
      connect_to(*Endpoint::parse("unix:" + path.string()), 2000, &error);
  ASSERT_TRUE(client.valid()) << error;
  const auto accepted = accept_from(listener);
  ASSERT_TRUE(accepted.valid()) << std::strerror(errno);
  const char byte = 'q';
  ASSERT_TRUE(client.send_all(&byte, 1));
  char got = 0;
  EXPECT_EQ(accepted.recv_some(&got, 1, 2000), 1);
  EXPECT_EQ(got, 'q');
  std::filesystem::remove(path);
}

// --- codecs -----------------------------------------------------------------

TEST(NetProtocolTest, ModelCodecRoundTripsCanonically) {
  const auto model = test_model(3, 24);
  io::ByteWriter out;
  io::encode_model(out, model);
  const auto bytes = out.take();
  io::ByteReader in(bytes);
  const auto decoded = io::decode_model(in);
  ASSERT_EQ(decoded.num_vars(), model.num_vars());
  EXPECT_EQ(decoded.offset(), model.offset());
  for (std::size_t i = 0; i < model.num_vars(); ++i) {
    for (std::size_t j = i; j < model.num_vars(); ++j) {
      EXPECT_EQ(decoded.coefficient(i, j), model.coefficient(i, j));
    }
  }
  // Canonical: re-encoding the decoded model is byte-identical.
  io::ByteWriter again;
  io::encode_model(again, decoded);
  EXPECT_EQ(again.bytes().size(), bytes.size());
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), again.bytes().begin()));
}

TEST(NetProtocolTest, ModelDecoderRejectsCorruptInput) {
  // nnz count beyond the n(n+1)/2 structural maximum: allocation bomb guard.
  {
    io::ByteWriter out;
    out.u32(4);       // num_vars
    out.f64(0.0);     // offset
    out.u32(1000);    // nnz — impossible for n=4
    io::ByteReader in(out.bytes());
    EXPECT_THROW(io::decode_model(in), io::DecodeError);
  }
  // Lower-triangular / out-of-range term index.
  {
    io::ByteWriter out;
    out.u32(4);
    out.f64(0.0);
    out.u32(1);
    out.u32(3);
    out.u32(1);  // j < i: not canonical upper-triangular
    out.f64(1.0);
    io::ByteReader in(out.bytes());
    EXPECT_THROW(io::decode_model(in), io::DecodeError);
  }
  // Truncated mid-triple.
  {
    io::ByteWriter out;
    out.u32(4);
    out.f64(0.0);
    out.u32(2);
    out.u32(0);
    out.u32(1);
    out.f64(1.0);  // second triple missing entirely
    io::ByteReader in(out.bytes());
    EXPECT_THROW(io::decode_model(in), io::DecodeError);
  }
}

TEST(NetProtocolTest, SubmitFrameRoundTrips) {
  SubmitJobFrame submit;
  submit.tag = 42;
  submit.solver = "tabu";
  submit.num_replicas = 9;
  submit.num_sweeps = 77;
  submit.seed = 0xDEADBEEF;
  submit.priority = -3;
  submit.deadline_ms = 1500;
  submit.bypass_cache = true;
  submit.stream_status = true;
  submit.model = test_model(5, 16);
  submit.trace_id = 0xFACE;
  const auto decoded = decode_submit(encode_submit(submit));
  EXPECT_EQ(decoded.tag, 42u);
  EXPECT_EQ(decoded.solver, "tabu");
  EXPECT_EQ(decoded.num_replicas, 9u);
  EXPECT_EQ(decoded.num_sweeps, 77u);
  EXPECT_EQ(decoded.seed, 0xDEADBEEFu);
  EXPECT_EQ(decoded.priority, -3);
  EXPECT_EQ(decoded.deadline_ms, 1500u);
  EXPECT_TRUE(decoded.bypass_cache);
  EXPECT_TRUE(decoded.stream_status);
  EXPECT_EQ(decoded.model.num_vars(), submit.model.num_vars());
  EXPECT_EQ(decoded.trace_id, 0xFACEu);

  // The trace id was appended within v1: a pre-obs client's SubmitJob ends
  // at the model, and the decoder must default the id to 0, not throw.
  auto legacy_bytes = encode_submit(submit);
  legacy_bytes.resize(legacy_bytes.size() - 8);
  const auto legacy = decode_submit(legacy_bytes);
  EXPECT_EQ(legacy.trace_id, 0u);
  EXPECT_EQ(legacy.model.num_vars(), submit.model.num_vars());
}

TEST(NetProtocolTest, ResultFrameRoundTripsWithAndWithoutBatch) {
  ResultFrame result;
  result.tag = 9;
  result.status = service::JobStatus::expired;
  result.coalesced = true;
  result.wait_ms = 1.5;
  result.run_ms = 2.5;
  result.error = "late";
  auto decoded = decode_result(encode_result(result));
  EXPECT_EQ(decoded.tag, 9u);
  EXPECT_EQ(decoded.status, service::JobStatus::expired);
  EXPECT_TRUE(decoded.coalesced);
  EXPECT_EQ(decoded.error, "late");
  EXPECT_EQ(decoded.batch, nullptr);

  qubo::SolveBatch batch;
  batch.results.push_back({{1, 0, 1, 1}, -3.25});
  result.batch = std::make_shared<const qubo::SolveBatch>(batch);
  decoded = decode_result(encode_result(result));
  ASSERT_NE(decoded.batch, nullptr);
  ASSERT_EQ(decoded.batch->size(), 1u);
  EXPECT_EQ(decoded.batch->results[0].assignment, (qubo::Bits{1, 0, 1, 1}));
  EXPECT_EQ(decoded.batch->results[0].qubo_energy, -3.25);
}

TEST(NetProtocolTest, HelloRoundTripsClientIdAndToleratesLegacyPayload) {
  HelloFrame hello;
  hello.client_id = "tenant-a";
  auto decoded = decode_hello(encode_hello(hello));
  EXPECT_EQ(decoded.protocol_version, kProtocolVersion);
  EXPECT_EQ(decoded.client_id, "tenant-a");

  // A pre-admission-control Hello (version + flags only) still decodes:
  // fields are append-only within a protocol version.
  io::ByteWriter legacy;
  legacy.u32(kProtocolVersion);
  legacy.u32(0);
  decoded = decode_hello(legacy.bytes());
  EXPECT_EQ(decoded.protocol_version, kProtocolVersion);
  EXPECT_TRUE(decoded.client_id.empty());
}

TEST(NetProtocolTest, MetricsFrameRoundTripsAdmissionTailAndToleratesLegacy) {
  MetricsFrame metrics;
  metrics.service.admission_rejected = 7;
  metrics.service.simd_kernel = "avx2";
  metrics.service.recent_jobs_per_second = 4.25;
  metrics.connections_rejected_full = 3;
  metrics.client_id = "me";
  service::ClientSchedulerMetrics row;
  row.client_id = "greedy";
  row.weight = 2.5;
  row.queued = 4;
  row.inflight = 6;
  row.submitted = 100;
  row.completed = 90;
  row.dispatched = 42;
  row.rejected_inflight = 8;
  row.rejected_queued = 9;
  metrics.clients.push_back(row);

  const auto decoded = decode_metrics(encode_metrics(metrics));
  EXPECT_EQ(decoded.service.admission_rejected, 7u);
  EXPECT_EQ(decoded.service.simd_kernel, "avx2");
  EXPECT_EQ(decoded.service.recent_jobs_per_second, 4.25);
  EXPECT_EQ(decoded.connections_rejected_full, 3u);
  EXPECT_EQ(decoded.client_id, "me");
  ASSERT_EQ(decoded.clients.size(), 1u);
  EXPECT_EQ(decoded.clients[0].client_id, "greedy");
  EXPECT_EQ(decoded.clients[0].weight, 2.5);
  EXPECT_EQ(decoded.clients[0].queued, 4u);
  EXPECT_EQ(decoded.clients[0].inflight, 6u);
  EXPECT_EQ(decoded.clients[0].submitted, 100u);
  EXPECT_EQ(decoded.clients[0].completed, 90u);
  EXPECT_EQ(decoded.clients[0].dispatched, 42u);
  EXPECT_EQ(decoded.clients[0].rejected_inflight, 8u);
  EXPECT_EQ(decoded.clients[0].rejected_queued, 9u);

  // A pre-SIMD-dispatch payload ends after the per-client rows: strip the
  // recent-rate f64 (8 bytes) and the kernel string (empty string = 4
  // length bytes) and the decoder must report an unknown kernel.
  auto pre_simd_bytes = encode_metrics(MetricsFrame{});
  pre_simd_bytes.resize(pre_simd_bytes.size() - 12);
  const auto pre_simd = decode_metrics(pre_simd_bytes);
  EXPECT_EQ(pre_simd.service.simd_kernel, "unknown");
  EXPECT_EQ(pre_simd.service.recent_jobs_per_second, 0.0);

  // A pre-obs payload ends after the kernel string: strip just the
  // recent-rate f64 and the rate defaults to 0 while the kernel survives.
  auto pre_obs_bytes = encode_metrics(MetricsFrame{});
  pre_obs_bytes.resize(pre_obs_bytes.size() - 8);
  const auto pre_obs = decode_metrics(pre_obs_bytes);
  EXPECT_EQ(pre_obs.service.recent_jobs_per_second, 0.0);

  // A pre-admission-control payload is a strict prefix of that: strip the
  // quota tail too (u64 + u64 + empty string + u32 count = 24 bytes) and
  // the decoder must fall back to "no quota activity".
  auto legacy_bytes = pre_simd_bytes;
  legacy_bytes.resize(legacy_bytes.size() - 24);
  const auto legacy = decode_metrics(legacy_bytes);
  EXPECT_EQ(legacy.connections_rejected_full, 0u);
  EXPECT_EQ(legacy.service.admission_rejected, 0u);
  EXPECT_TRUE(legacy.client_id.empty());
  EXPECT_TRUE(legacy.clients.empty());
  EXPECT_EQ(legacy.service.simd_kernel, "unknown");
}

TEST(NetProtocolTest, FrameBufferReassemblesByteByByte) {
  const auto payload = encode_cancel({.tag = 77});
  const auto bytes = frame(io::kRecordNetCancelJob, payload);
  FrameBuffer buffer;
  Frame out;
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    EXPECT_EQ(buffer.next(&out), FrameBuffer::Status::need_more);
    buffer.append(&bytes[k], 1);
  }
  ASSERT_EQ(buffer.next(&out), FrameBuffer::Status::frame);
  EXPECT_EQ(out.type, io::kRecordNetCancelJob);
  EXPECT_EQ(decode_cancel(out.payload).tag, 77u);
  EXPECT_FALSE(buffer.mid_frame());
  EXPECT_EQ(buffer.next(&out), FrameBuffer::Status::need_more);
}

TEST(NetProtocolTest, FrameBufferLatchesOnCorruption) {
  auto bytes = frame(io::kRecordNetCancelJob, encode_cancel({.tag = 1}));
  bytes[8] ^= 0x40;  // flip one checksum byte
  FrameBuffer buffer;
  buffer.append(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(buffer.next(&out), FrameBuffer::Status::bad_frame);
  // Latched: once framing trust is gone there is no resynchronising.
  EXPECT_EQ(buffer.next(&out), FrameBuffer::Status::bad_frame);

  FrameBuffer small(64);
  const auto big = frame(io::kRecordNetError,
                         encode_error({.message = std::string(100, 'x')}));
  small.append(big.data(), big.size());
  EXPECT_EQ(small.next(&out), FrameBuffer::Status::oversized);
}

// --- server + client --------------------------------------------------------

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("qross_net_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    server_.reset();
    service_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Builds service + server; the registry resolves "count" to a
  /// CountingSolver around the digital annealer so tests can prove which
  /// submissions actually ran a kernel.
  Endpoint start(const std::string& listen_spec,
                 service::ServiceConfig service_config = {},
                 std::uint32_t max_frame_bytes = kMaxFrameBytes,
                 std::size_t max_connections = 256) {
    service_ = std::make_unique<service::SolveService>(service_config);
    ServerConfig config;
    config.listen.push_back(*Endpoint::parse(listen_spec));
    config.max_frame_bytes = max_frame_bytes;
    config.max_connections = max_connections;
    config.registry = [this](const std::string& name) -> solvers::SolverPtr {
      if (name == "count") {
        return std::make_shared<testing::CountingSolver>(
            std::make_shared<solvers::DigitalAnnealer>(), invocations_);
      }
      return default_solver_registry(name);
    };
    server_ = std::make_unique<Server>(*service_, config);
    std::string error;
    if (!server_->start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return {};
    }
    return server_->endpoints().front();
  }

  Endpoint start_tcp() { return start("tcp:127.0.0.1:0"); }
  Endpoint start_unix() {
    return start("unix:" + (dir_ / "qross.sock").string());
  }

  Client make_client(const Endpoint& endpoint,
                     int request_timeout_ms = 30000,
                     const std::string& client_id = {}) {
    ClientConfig config;
    config.server = endpoint;
    config.client_id = client_id;
    config.request_timeout_ms = request_timeout_ms;
    config.reconnect_backoff_ms = 10;
    return Client(config);
  }

  static RemoteJob quick_job(std::uint64_t seed = 7) {
    RemoteJob job;
    job.solver = "count";
    job.model = test_model(seed);
    job.num_replicas = 4;
    job.num_sweeps = 20;
    return job;
  }

  /// A job long enough (minutes) that only cancel/deadline/disconnect can
  /// end it within the test — kernels poll their stop token every sweep.
  static RemoteJob slow_job(std::uint64_t seed = 11) {
    RemoteJob job;
    job.solver = "count";
    job.model = test_model(seed, 64);
    job.num_replicas = 1;
    job.num_sweeps = 50'000'000;
    return job;
  }

  std::filesystem::path dir_;
  std::atomic<int> invocations_{0};
  std::unique_ptr<service::SolveService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetServerTest, SubmitOverTcpMatchesLocalSolveBitIdentically) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  EXPECT_EQ(client.negotiated_version(), kProtocolVersion);

  const auto job = quick_job();
  const auto tag = client.submit(job, &error);
  ASSERT_TRUE(tag.has_value()) << error;
  const auto result = client.wait(*tag);
  ASSERT_EQ(result.status, service::JobStatus::done) << result.error;
  ASSERT_NE(result.batch, nullptr);

  // The wire round trip must not perturb the result: a local solve with
  // the same inputs is bit-identical.
  solvers::SolveOptions options;
  options.num_replicas = job.num_replicas;
  options.num_sweeps = job.num_sweeps;
  options.seed = job.seed;
  const auto local =
      solvers::DigitalAnnealer().solve(job.model, options);
  ASSERT_EQ(result.batch->size(), local.size());
  for (std::size_t k = 0; k < local.size(); ++k) {
    EXPECT_EQ(result.batch->results[k].assignment,
              local.results[k].assignment);
    EXPECT_EQ(result.batch->results[k].qubo_energy,
              local.results[k].qubo_energy);
  }
}

TEST_F(NetServerTest, UnixDomainSocketServesJobs) {
  const auto endpoint = start_unix();
  ASSERT_EQ(endpoint.kind, Endpoint::Kind::unix_domain);
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto results = client.run({quick_job(1), quick_job(2)});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, service::JobStatus::done);
  EXPECT_EQ(results[1].status, service::JobStatus::done);
  EXPECT_EQ(invocations_.load(), 2);
}

TEST_F(NetServerTest, RepeatAndCrossClientSubmissionsHitTheServerCache) {
  const auto endpoint = start_tcp();
  auto first = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(first.connect(&error)) << error;
  const auto job = quick_job(21);
  auto result = first.wait(*first.submit(job));
  ASSERT_EQ(result.status, service::JobStatus::done);
  EXPECT_FALSE(result.cache_hit);
  const auto baseline = result.batch;

  // Same connection, same job: served from the service cache.
  result = first.wait(*first.submit(job));
  ASSERT_EQ(result.status, service::JobStatus::done);
  EXPECT_TRUE(result.cache_hit);

  // A DIFFERENT connection (a fresh short-lived client, as in the warm
  // daemon workflow): still a cache hit, still bit-identical.
  auto second = make_client(endpoint);
  ASSERT_TRUE(second.connect(&error)) << error;
  result = second.wait(*second.submit(job));
  ASSERT_EQ(result.status, service::JobStatus::done);
  EXPECT_TRUE(result.cache_hit);
  ASSERT_NE(result.batch, nullptr);
  ASSERT_EQ(result.batch->size(), baseline->size());
  for (std::size_t k = 0; k < baseline->size(); ++k) {
    EXPECT_EQ(result.batch->results[k].assignment,
              baseline->results[k].assignment);
  }
  EXPECT_EQ(invocations_.load(), 1);
}

TEST_F(NetServerTest, CancelEndToEndStopsARunningJob) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto tag = client.submit(slow_job());
  ASSERT_TRUE(tag.has_value());
  ASSERT_TRUE(eventually([&] { return service_->metrics().running > 0; }));
  ASSERT_TRUE(client.cancel(*tag));
  const auto result = client.wait(*tag);
  EXPECT_EQ(result.status, service::JobStatus::cancelled);
}

TEST_F(NetServerTest, DeadlineTravelsAndExpiresMidRun) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  auto job = slow_job(31);
  job.deadline_ms = 60;
  const auto result = client.wait(*client.submit(job));
  EXPECT_EQ(result.status, service::JobStatus::expired);
}

TEST_F(NetServerTest, ClientDisconnectCancelsItsInFlightJobs) {
  const auto endpoint = start_tcp();
  {
    auto client = make_client(endpoint);
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    ASSERT_TRUE(client.submit(slow_job(33)).has_value());
    ASSERT_TRUE(eventually([&] { return service_->metrics().running > 0; }));
  }  // client destroyed: socket closes with the job still running
  ASSERT_TRUE(eventually([&] { return service_->metrics().cancelled >= 1; }));
  ASSERT_TRUE(eventually(
      [&] { return server_->stats().disconnect_cancelled_jobs >= 1; }));
  EXPECT_EQ(service_->metrics().running, 0u);
}

TEST_F(NetServerTest, StreamedStatusUpdatesArriveInOrder) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  auto job = slow_job(35);
  job.stream_status = true;
  const auto tag = client.submit(job);
  ASSERT_TRUE(tag.has_value());
  ASSERT_TRUE(eventually([&] { return service_->metrics().running > 0; }));
  // Give the reactor's status tick a chance to observe `running`, then end
  // the job; the updates ride the same stream the Result arrives on.
  std::this_thread::sleep_for(80ms);
  client.cancel(*tag);
  const auto result = client.wait(*tag);
  EXPECT_EQ(result.status, service::JobStatus::cancelled);
  // The first update is `queued` unless a worker grabbed the job before
  // the submit reply was even written; `running` must always have been
  // streamed by the time the cancel landed.
  const auto updates = client.status_updates(*tag);
  ASSERT_GE(updates.size(), 1u);
  EXPECT_EQ(updates.back(), service::JobStatus::running);
  if (updates.size() >= 2) {
    EXPECT_EQ(updates[0], service::JobStatus::queued);
  }
}

TEST_F(NetServerTest, UnknownSolverNameIsRejectedPerRequest) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  RemoteJob job = quick_job();
  job.solver = "warp-drive";
  const auto result = client.wait(*client.submit(job));
  EXPECT_EQ(result.status, service::JobStatus::failed);
  EXPECT_NE(result.error.find("unknown solver"), std::string::npos);
  // The connection survives a per-request error.
  const auto ok = client.wait(*client.submit(quick_job()));
  EXPECT_EQ(ok.status, service::JobStatus::done);
}

TEST_F(NetServerTest, MetricsRoundTripReportsConnectionLedger) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  ASSERT_EQ(client.wait(*client.submit(quick_job())).status,
            service::JobStatus::done);
  const auto metrics = client.metrics(&error);
  ASSERT_TRUE(metrics.has_value()) << error;
  EXPECT_EQ(metrics->service.workers, service_->num_workers());
  EXPECT_EQ(metrics->service.submitted, 1u);
  EXPECT_EQ(metrics->connection_submitted, 1u);
  EXPECT_EQ(metrics->connection_results, 1u);
  EXPECT_EQ(metrics->connections_accepted, 1u);
  EXPECT_EQ(metrics->connections_active, 1u);
}

TEST_F(NetServerTest, DrainCompletesInFlightAndRejectsNewSubmissions) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto tag = client.submit(quick_job(41));
  ASSERT_TRUE(tag.has_value());
  // Only start draining once the server has accepted the submission —
  // draining earlier would (correctly) refuse it, which is the other
  // assertion below.
  ASSERT_TRUE(eventually([&] { return service_->metrics().submitted >= 1; }));
  // Drain from another thread while the result may still be outstanding;
  // it must wait for the Result frame to flush, not cut the connection.
  std::thread drainer([&] {
    EXPECT_TRUE(server_->drain(std::chrono::milliseconds(10000)));
  });
  const auto result = client.wait(*tag);
  EXPECT_EQ(result.status, service::JobStatus::done);
  drainer.join();
  const auto refused = client.wait(*client.submit(quick_job(42)));
  EXPECT_EQ(refused.status, service::JobStatus::failed);
  EXPECT_NE(refused.error.find("draining"), std::string::npos);
}

TEST_F(NetServerTest, ClientReconnectsToARestartedServerAndResubmits) {
  const auto path = "unix:" + (dir_ / "qross.sock").string();
  const auto endpoint = start(path);
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  ASSERT_EQ(client.wait(*client.submit(quick_job(51))).status,
            service::JobStatus::done);

  // Bounce the server (same service, same socket path) — a daemon restart
  // as seen by a long-lived client.
  server_.reset();
  ServerConfig config;
  config.listen.push_back(*Endpoint::parse(path));
  config.registry = [this](const std::string& name) -> solvers::SolverPtr {
    if (name == "count") {
      return std::make_shared<testing::CountingSolver>(
          std::make_shared<solvers::DigitalAnnealer>(), invocations_);
    }
    return default_solver_registry(name);
  };
  server_ = std::make_unique<Server>(*service_, config);
  ASSERT_TRUE(server_->start(&error)) << error;

  // The old socket is dead; submit() or wait() notices, redials, and
  // resubmits under the same tag.  The service cache makes the retry free.
  const auto tag = client.submit(quick_job(51), &error);
  ASSERT_TRUE(tag.has_value()) << error;
  const auto result = client.wait(*tag);
  EXPECT_EQ(result.status, service::JobStatus::done);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(invocations_.load(), 1);
}

// --- protocol robustness (raw sockets) --------------------------------------

class RawConnection {
 public:
  explicit RawConnection(const Endpoint& endpoint) {
    std::string error;
    sock_ = connect_to(endpoint, 2000, &error);
    EXPECT_TRUE(sock_.valid()) << error;
  }

  bool send_bytes(std::span<const std::uint8_t> bytes) {
    return sock_.send_all(bytes.data(), bytes.size());
  }

  bool send_frame(std::uint32_t type, std::span<const std::uint8_t> payload) {
    return send_bytes(frame(type, payload));
  }

  /// Reads until one full frame arrives (or `timeout` passes).
  std::optional<Frame> read_frame(std::chrono::milliseconds timeout = 3s) {
    Frame out;
    std::uint8_t buf[4096];
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      const auto status = buffer_.next(&out);
      if (status == FrameBuffer::Status::frame) return out;
      if (status != FrameBuffer::Status::need_more) return std::nullopt;
      const long n = sock_.recv_some(buf, sizeof(buf), 100);
      if (n == -2) continue;
      if (n <= 0) return std::nullopt;
      buffer_.append(buf, static_cast<std::size_t>(n));
    }
    return std::nullopt;
  }

  bool handshake() {
    if (!send_frame(io::kRecordNetHello, encode_hello({}))) return false;
    const auto ack = read_frame();
    return ack.has_value() && ack->type == io::kRecordNetHelloAck;
  }

  void half_close() { ::shutdown(sock_.fd(), SHUT_WR); }

  const Socket& socket() const { return sock_; }

 private:
  Socket sock_;
  FrameBuffer buffer_;
};

// A client that pipelines a large window of cache hits and reads nothing
// until it has sent them all.  The Results outgrow the socket send buffer,
// so the server's flush must stop at EAGAIN, keep reading submits, and
// resume on POLLOUT — every Result delivered exactly once, bit-identical.
// Unix-domain, because its send buffer is fixed (TCP autotunes to MiBs).
TEST_F(NetServerTest, SlowReaderGetsEveryPipelinedResultExactlyOnce) {
  const auto endpoint = start_unix();
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.handshake());

  constexpr std::size_t kDistinct = 4;
  constexpr std::uint64_t kPipelined = 256;
  auto submit_for = [](std::uint64_t tag) {
    SubmitJobFrame submit;
    submit.tag = tag;
    submit.solver = "count";
    submit.model = test_model(100 + tag % kDistinct, 64);
    submit.num_replicas = 256;
    submit.num_sweeps = 2;
    submit.seed = 5;
    return submit;
  };
  // Warm the cache: one kernel run per distinct job (slow under TSAN).
  for (std::uint64_t tag = 1; tag <= kDistinct; ++tag) {
    ASSERT_TRUE(raw.send_frame(io::kRecordNetSubmitJob,
                               encode_submit(submit_for(tag))));
    const auto reply = raw.read_frame(60s);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, io::kRecordNetResult);
  }
  ASSERT_EQ(invocations_.load(), static_cast<int>(kDistinct));

  const std::uint64_t first = kDistinct + 1;
  for (std::uint64_t tag = first; tag < first + kPipelined; ++tag) {
    ASSERT_TRUE(raw.send_frame(io::kRecordNetSubmitJob,
                               encode_submit(submit_for(tag))));
  }
  std::map<std::uint64_t, ResultFrame> results;
  std::size_t result_bytes = 0;
  while (results.size() < kPipelined) {
    const auto reply = raw.read_frame();
    ASSERT_TRUE(reply.has_value()) << results.size() << " results so far";
    ASSERT_EQ(reply->type, io::kRecordNetResult);
    result_bytes += reply->payload.size();
    auto result = decode_result(reply->payload);
    ASSERT_TRUE(results.emplace(result.tag, std::move(result)).second)
        << "tag " << result.tag << " answered twice";
  }
  // Nothing beyond the one Result per tag.
  ASSERT_TRUE(raw.send_frame(io::kRecordNetGetMetrics, {}));
  const auto tail = raw.read_frame();
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->type, io::kRecordNetMetrics);

  int sndbuf = 0;
  socklen_t len = sizeof(sndbuf);
  ASSERT_EQ(::getsockopt(raw.socket().fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         &len),
            0);
  EXPECT_GT(result_bytes, 2 * static_cast<std::size_t>(sndbuf))
      << "window too small to fill the server's send buffer";
  EXPECT_EQ(invocations_.load(), static_cast<int>(kDistinct));

  std::vector<qubo::SolveBatch> local;
  for (std::uint64_t k = 0; k < kDistinct; ++k) {
    const auto submit = submit_for(k);
    solvers::SolveOptions options;
    options.num_replicas = submit.num_replicas;
    options.num_sweeps = submit.num_sweeps;
    options.seed = submit.seed;
    local.push_back(solvers::DigitalAnnealer().solve(submit.model, options));
  }
  for (std::uint64_t tag = first; tag < first + kPipelined; ++tag) {
    const auto it = results.find(tag);
    ASSERT_NE(it, results.end()) << "tag " << tag << " never answered";
    const ResultFrame& result = it->second;
    ASSERT_EQ(result.status, service::JobStatus::done) << result.error;
    EXPECT_TRUE(result.cache_hit);
    ASSERT_NE(result.batch, nullptr);
    const auto& expected = local[tag % kDistinct];
    ASSERT_EQ(result.batch->size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(result.batch->results[k].assignment,
                expected.results[k].assignment);
      EXPECT_EQ(result.batch->results[k].qubo_energy,
                expected.results[k].qubo_energy);
    }
  }
}

TEST_F(NetServerTest, FutureProtocolVersionGetsACleanErrorFrame) {
  const auto endpoint = start_tcp();
  RawConnection raw(endpoint);
  HelloFrame hello;
  hello.protocol_version = 99;
  ASSERT_TRUE(raw.send_frame(io::kRecordNetHello, encode_hello(hello)));
  const auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, io::kRecordNetError);
  const auto error = decode_error(reply->payload);
  EXPECT_EQ(error.code, kErrFutureVersion);
  // The server names its own version so the client can retry lower.
  EXPECT_EQ(error.protocol_version, kProtocolVersion);
  // The connection is closed after the error.
  EXPECT_FALSE(raw.read_frame().has_value());
}

TEST_F(NetServerTest, FlippedChecksumByteGetsACleanErrorFrame) {
  const auto endpoint = start_tcp();
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.handshake());
  auto bytes = frame(io::kRecordNetGetMetrics, {});
  bytes[8] ^= 0x01;  // corrupt the checksum field
  ASSERT_TRUE(raw.send_bytes(bytes));
  const auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, io::kRecordNetError);
  EXPECT_EQ(decode_error(reply->payload).code, kErrBadFrame);
  EXPECT_FALSE(raw.read_frame().has_value());
}

TEST_F(NetServerTest, TruncatedFrameGetsACleanErrorFrame) {
  const auto endpoint = start_tcp();
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.handshake());
  const auto bytes =
      frame(io::kRecordNetSubmitJob, encode_submit(SubmitJobFrame{}));
  ASSERT_GT(bytes.size(), 10u);
  ASSERT_TRUE(raw.send_bytes(
      std::span<const std::uint8_t>(bytes.data(), 10)));  // partial frame
  raw.half_close();  // EOF mid-frame; our read side stays open
  const auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, io::kRecordNetError);
  EXPECT_EQ(decode_error(reply->payload).code, kErrTruncatedFrame);
}

TEST_F(NetServerTest, OversizedFrameIsRejectedBeforeBuffering) {
  const auto endpoint = start("tcp:127.0.0.1:0", {}, /*max_frame_bytes=*/4096);
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.handshake());
  // A frame HEADER claiming a huge payload; the body never follows — the
  // server must reject on the length field alone.
  io::ByteWriter header;
  header.u32(1u << 24);
  header.u32(io::kRecordNetSubmitJob);
  header.u64(0);
  ASSERT_TRUE(raw.send_bytes(header.bytes()));
  const auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, io::kRecordNetError);
  EXPECT_EQ(decode_error(reply->payload).code, kErrOversizedFrame);
  EXPECT_FALSE(raw.read_frame().has_value());
}

TEST_F(NetServerTest, RequestBeforeHandshakeIsRefused) {
  const auto endpoint = start_tcp();
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.send_frame(io::kRecordNetGetMetrics, {}));
  const auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, io::kRecordNetError);
  EXPECT_EQ(decode_error(reply->payload).code, kErrHandshakeRequired);
}

TEST_F(NetServerTest, UnknownFrameTypeGetsErrorButKeepsTheConnection) {
  const auto endpoint = start_tcp();
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.handshake());
  const std::uint8_t junk[3] = {1, 2, 3};
  ASSERT_TRUE(raw.send_frame(12345, junk));
  auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, io::kRecordNetError);
  EXPECT_EQ(decode_error(reply->payload).code, kErrUnknownType);
  // Still usable afterwards — mirroring the snapshot scanner's tolerance
  // of unknown record types.
  ASSERT_TRUE(raw.send_frame(io::kRecordNetGetMetrics, {}));
  reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, io::kRecordNetMetrics);
}

// --- admission control + fair share over the wire ----------------------------

// ISSUE 5 satellite: an accept over max_connections used to be silently
// ::close()d — the peer saw a reset and retried forever.  It must receive a
// kErrServerFull Error frame (then the close), and be counted.
TEST_F(NetServerTest, ConnectionOverMaxConnectionsGetsServerFullNotAReset) {
  const auto endpoint = start("tcp:127.0.0.1:0", {}, kMaxFrameBytes,
                              /*max_connections=*/1);
  RawConnection first(endpoint);
  ASSERT_TRUE(first.handshake());

  RawConnection second(endpoint);
  const auto reply = second.read_frame();
  ASSERT_TRUE(reply.has_value())
      << "over-limit accept must answer with an Error frame, not a bare close";
  ASSERT_EQ(reply->type, io::kRecordNetError);
  EXPECT_EQ(decode_error(reply->payload).code, kErrServerFull);
  EXPECT_FALSE(second.read_frame().has_value());  // closed after the frame
  EXPECT_TRUE(eventually(
      [&] { return server_->stats().connections_rejected_full >= 1; }));
  // The admitted connection is untouched.
  ASSERT_TRUE(first.send_frame(io::kRecordNetGetMetrics, {}));
  const auto metrics_reply = first.read_frame();
  ASSERT_TRUE(metrics_reply.has_value());
  EXPECT_EQ(metrics_reply->type, io::kRecordNetMetrics);
  EXPECT_EQ(decode_metrics(metrics_reply->payload).connections_rejected_full,
            1u);
}

// ISSUE 5 satellite: a quota refusal is PERMANENT for the client's current
// standing — the client must fail the job on the first kErrQuotaExceeded
// frame instead of resubmitting it.
TEST_F(NetServerTest, QuotaExceededFailsTheJobWithoutRetries) {
  service::ServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_inflight_per_client = 1;
  const auto endpoint = start("tcp:127.0.0.1:0", service_config);
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  const auto slow = client.submit(slow_job());
  ASSERT_TRUE(slow.has_value());
  ASSERT_TRUE(eventually([&] { return service_->metrics().running > 0; }));
  const auto refused = client.submit(quick_job());
  ASSERT_TRUE(refused.has_value());
  const auto result = client.wait(*refused);
  EXPECT_EQ(result.status, service::JobStatus::failed);
  EXPECT_NE(result.error.find("quota"), std::string::npos) << result.error;
  const auto errors = client.take_errors();
  ASSERT_EQ(errors.size(), 1u) << "exactly one refusal: no resubmit loop";
  EXPECT_EQ(errors[0].code, kErrQuotaExceeded);
  // An admission refusal is not a protocol violation: the peer spoke the
  // protocol correctly and the rejection has its own counter.
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
  EXPECT_EQ(service_->metrics().admission_rejected, 1u);

  ASSERT_TRUE(client.cancel(*slow));
  EXPECT_EQ(client.wait(*slow).status, service::JobStatus::cancelled);
}

// ISSUE 5 satellite: the submit handler used to map EVERY service.submit()
// exception to kErrDraining, reporting permanently-invalid jobs as
// retryable.  An invalid job must be kErrBadRequest, failed exactly once.
TEST_F(NetServerTest, InvalidJobIsBadRequestNotDrainingAndNotRetried) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  RemoteJob invalid = quick_job();
  invalid.num_replicas = 0;  // the service refuses this at submit()
  const auto result = client.wait(*client.submit(invalid));
  EXPECT_EQ(result.status, service::JobStatus::failed);
  EXPECT_NE(result.error.find("num_replicas"), std::string::npos)
      << result.error;
  const auto errors = client.take_errors();
  ASSERT_EQ(errors.size(), 1u) << "permanent refusal must not be retried";
  EXPECT_EQ(errors[0].code, kErrBadRequest);
  EXPECT_EQ(server_->stats().protocol_errors, 1u);
  EXPECT_EQ(invocations_.load(), 0);

  // The connection survives; a valid job still runs.
  EXPECT_EQ(client.wait(*client.submit(quick_job())).status,
            service::JobStatus::done);
}

// The retryable side of the taxonomy: a kErrDraining refusal keeps the job
// pending and the client resubmits it (with backoff) under its original
// tag.  Scripted one-connection server: first SubmitJob → kErrDraining,
// the resubmit → a done Result.
TEST_F(NetServerTest, DrainingRefusalIsRetriedWithBackoffUntilAccepted) {
  std::string error;
  auto listener = listen_on(*Endpoint::parse("tcp:127.0.0.1:0"), &error);
  ASSERT_TRUE(listener.valid()) << error;
  const auto endpoint = local_endpoint(listener.fd());
  ASSERT_TRUE(endpoint.has_value());

  std::atomic<int> submits_seen{0};
  std::thread scripted([&] {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0) return;
    Socket conn(fd);
    FrameBuffer in;
    std::uint8_t buf[65536];
    const auto reply = [&](std::uint32_t type,
                           std::span<const std::uint8_t> payload) {
      const auto bytes = frame(type, payload);
      conn.send_all(bytes.data(), bytes.size());
    };
    bool finished = false;
    while (!finished) {
      const long n = conn.recv_some(buf, sizeof(buf), 5000);
      if (n <= 0) break;
      in.append(buf, static_cast<std::size_t>(n));
      Frame f;
      while (in.next(&f) == FrameBuffer::Status::frame) {
        if (f.type == io::kRecordNetHello) {
          reply(io::kRecordNetHelloAck, encode_hello_ack({}));
        } else if (f.type == io::kRecordNetSubmitJob) {
          const auto submit = decode_submit(f.payload);
          if (++submits_seen == 1) {
            ErrorFrame busy;
            busy.tag = submit.tag;
            busy.code = kErrDraining;
            busy.message = "scripted: draining";
            reply(io::kRecordNetError, encode_error(busy));
          } else {
            ResultFrame result;
            result.tag = submit.tag;
            result.status = service::JobStatus::done;
            qubo::SolveBatch batch;
            batch.results.push_back({{1, 0, 1}, -1.0});
            result.batch =
                std::make_shared<const qubo::SolveBatch>(std::move(batch));
            reply(io::kRecordNetResult, encode_result(result));
            finished = true;
          }
        }
      }
    }
  });

  auto client = make_client(*endpoint, /*request_timeout_ms=*/10000);
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto tag = client.submit(quick_job(61));
  ASSERT_TRUE(tag.has_value());
  const auto result = client.wait(*tag);
  EXPECT_EQ(result.status, service::JobStatus::done)
      << "retryable refusal must be resubmitted, got: " << result.error;
  EXPECT_EQ(submits_seen.load(), 2) << "refused once, resubmitted once";
  scripted.join();
}

// The retryable side of kErrServerFull: connect() backs off and redials
// until a connection slot frees (instead of failing on the first refusal).
TEST_F(NetServerTest, ConnectRetriesWithBackoffWhileServerFull) {
  const auto endpoint = start("tcp:127.0.0.1:0", {}, kMaxFrameBytes,
                              /*max_connections=*/1);
  auto occupant = std::make_unique<RawConnection>(endpoint);
  ASSERT_TRUE(occupant->handshake());
  std::thread freer([&] {
    std::this_thread::sleep_for(100ms);
    occupant.reset();  // the slot frees mid-retry
  });
  ClientConfig config;
  config.server = endpoint;
  config.reconnect_backoff_ms = 50;
  config.reconnect_attempts = 10;
  Client client(config);
  std::string error;
  EXPECT_TRUE(client.connect(&error))
      << "connect must retry a full server: " << error;
  freer.join();
  EXPECT_GE(server_->stats().connections_rejected_full, 1u)
      << "the first attempt should have been refused as full";
}

TEST_F(NetServerTest, MetricsReportPerClientSchedulerRows) {
  service::ServiceConfig service_config;
  service_config.client_weights["tenant-a"] = 2.0;
  const auto endpoint = start("tcp:127.0.0.1:0", service_config);
  auto tenant = make_client(endpoint, 30000, "tenant-a");
  auto anon = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(tenant.connect(&error)) << error;
  ASSERT_TRUE(anon.connect(&error)) << error;

  ASSERT_EQ(tenant.wait(*tenant.submit(quick_job(71))).status,
            service::JobStatus::done);
  ASSERT_EQ(anon.wait(*anon.submit(quick_job(72))).status,
            service::JobStatus::done);

  const auto metrics = tenant.metrics(&error);
  ASSERT_TRUE(metrics.has_value()) << error;
  EXPECT_EQ(metrics->client_id, "tenant-a");
  ASSERT_EQ(metrics->clients.size(), 2u);
  // Hello-named identity and the per-connection fallback, side by side.
  EXPECT_EQ(metrics->clients[0].client_id, "conn-2");
  EXPECT_EQ(metrics->clients[1].client_id, "tenant-a");
  EXPECT_EQ(metrics->clients[1].weight, 2.0);
  EXPECT_EQ(metrics->clients[1].submitted, 1u);
  EXPECT_EQ(metrics->clients[1].completed, 1u);
  EXPECT_EQ(metrics->clients[1].dispatched, 1u);

  const auto anon_metrics = anon.metrics(&error);
  ASSERT_TRUE(anon_metrics.has_value()) << error;
  EXPECT_EQ(anon_metrics->client_id, "conn-2");
}

// --- observability over the wire (ISSUE 7) ----------------------------------

// One remote job must leave a stitched server-side trace — queue, dispatch,
// kernel, journal_append, result_flush — all carrying the client-supplied
// trace id, fetchable over the wire as Chrome trace-event JSON.
TEST_F(NetServerTest, TraceDumpStitchesARemoteJobEndToEnd) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.enable(obs::TraceRecorder::kDefaultCapacity);
  recorder.clear();

  // A journal-backed service so the trace includes the journal_append span.
  service::ServiceConfig service_config;
  service_config.cache_path = (dir_ / "cache.qsnap").string();
  const auto endpoint =
      start("unix:" + (dir_ / "qross.sock").string(), service_config);

  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  RemoteJob job;
  job.solver = "da";
  job.model = test_model(31);
  job.num_replicas = 4;
  job.num_sweeps = 20;
  job.trace_id = 0xBEEFCAFE;
  const auto tag = client.submit(job, &error);
  ASSERT_TRUE(tag.has_value()) << error;
  ASSERT_EQ(client.wait(*tag).status, service::JobStatus::done);

  // The journal append trails completion; poll the wire dump until it lands.
  std::string json;
  ASSERT_TRUE(eventually([&] {
    const auto dump = client.trace_dump(&error);
    if (!dump.has_value()) return false;
    json = *dump;
    return json.find("\"name\":\"journal_append\"") != std::string::npos;
  })) << "journal_append span never appeared in the dump: " << error;

  for (const char* name :
       {"frame_decode", "submit", "queue", "dispatch", "kernel",
        "journal_append", "result_flush"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << "missing event " << name;
  }
  EXPECT_NE(json.find("\"trace\":3203386110"), std::string::npos)
      << "client trace id 0xBEEFCAFE missing from the server-side spans";
  recorder.disable();
  recorder.clear();
}

// A daemon that never enabled tracing still answers GetTrace — with an
// empty, valid Chrome JSON document, not an error.
TEST_F(NetServerTest, TraceDumpWithTracingOffIsEmptyButValid) {
  obs::TraceRecorder::instance().disable();
  obs::TraceRecorder::instance().clear();
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto dump = client.trace_dump(&error);
  ASSERT_TRUE(dump.has_value()) << error;
  EXPECT_NE(dump->find("\"traceEvents\":[]"), std::string::npos);
}

// The Prometheus exposition travels the wire and looks like Prometheus.
TEST_F(NetServerTest, PrometheusMetricsRoundTripOverTheWire) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  ASSERT_EQ(client.wait(*client.submit(quick_job(55))).status,
            service::JobStatus::done);

  const auto text = client.prometheus_metrics(&error);
  ASSERT_TRUE(text.has_value()) << error;
  EXPECT_NE(text->find("# TYPE qross_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text->find("# TYPE qross_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text->find("# TYPE qross_run_ms histogram"), std::string::npos);
  EXPECT_NE(text->find("qross_run_ms_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(text->find("qross_net_frames_received_total"), std::string::npos);
}

}  // namespace
}  // namespace qross::net
