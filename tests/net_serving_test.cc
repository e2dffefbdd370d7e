// Loopback contract of the socket front-end (src/net/): a HydraClient
// driving a HydraServer over 127.0.0.1 must be indistinguishable from
// an in-process ServingSession — bit-identical answers in submission
// order for every method × concurrency × topology, typed Status (with
// structured IoContext) surviving the wire, deadlines re-armed
// server-side, malformed frames costing one request (or one connection)
// but never the server, and an abruptly killed client leaking zero
// pinned pages while the server keeps serving. The server's one session
// bounds every connection together, results leave in completion order,
// and closed connections are reaped. The CI serving-stress
// lane re-runs this suite under TSan at HYDRA_CONCURRENCY=8; the chaos
// lane re-runs it with fault injection armed.
#include <gtest/gtest.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/generators.h"
#include "exec/query_scheduler.h"
#include "exec/thread_pool.h"
#include "index/factory.h"
#include "index/sharded/sharded_index.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "storage/buffer_manager.h"
#include "storage/fault_injector.h"
#include "storage/series_file.h"
#include "transform/znorm.h"

namespace hydra {
namespace {

struct Workload {
  Dataset data;
  Dataset queries;
  InMemoryProvider provider;

  explicit Workload(size_t n = 2000, size_t len = 64, size_t num_queries = 10)
      : data([&] {
          Rng rng(7);
          Dataset ds = MakeRandomWalk(n, len, rng);
          ZNormalizeDataset(ds);
          return ds;
        }()),
        queries([&] {
          Rng rng(1234);
          return MakeNoiseQueries(data, num_queries, 0.15, rng);
        }()),
        provider(&data) {}
};

struct DiskWorkload {
  Dataset data;
  Dataset queries;
  std::filesystem::path dir;
  std::unique_ptr<BufferManager> bm;

  explicit DiskWorkload(uint64_t capacity_pages = 16, size_t n = 2000,
                        size_t len = 64, size_t num_queries = 8)
      : data([&] {
          Rng rng(7);
          Dataset ds = MakeRandomWalk(n, len, rng);
          ZNormalizeDataset(ds);
          return ds;
        }()),
        queries([&] {
          Rng rng(1234);
          return MakeNoiseQueries(data, num_queries, 0.15, rng);
        }()) {
    static std::atomic<int> counter{0};
    dir = std::filesystem::temp_directory_path() /
          ("hydra_net_serving_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(dir);
    std::string path = (dir / "data.hsf").string();
    EXPECT_TRUE(WriteSeriesFile(path, data).ok());
    auto opened =
        BufferManager::Open(path, /*page_series=*/16, capacity_pages);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) bm = std::move(opened).value();
  }
  ~DiskWorkload() { std::filesystem::remove_all(dir); }
};

// Polls `done` every millisecond until it holds or `timeout` passes;
// returns whether it held.
template <typename Cond>
bool WaitUntil(Cond done, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

SearchParams Exact(size_t k = 10) {
  SearchParams p;
  p.mode = SearchMode::kExact;
  p.k = k;
  return p;
}

void ExpectIdentical(const KnnAnswer& expected, const KnnAnswer& got,
                     const std::string& what) {
  ASSERT_EQ(expected.ids, got.ids) << what;
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    // Bit-identical, not approximately equal: the wire moves bytes.
    EXPECT_EQ(expected.distances[i], got.distances[i]) << what << " @" << i;
  }
}

// Serial per-query reference answers.
std::vector<KnnAnswer> SerialReference(const Index& index,
                                       const Dataset& queries,
                                       const SearchParams& params) {
  std::vector<KnnAnswer> answers;
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryCounters counters;
    auto got = index.Search(queries.series(q), params, &counters);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    answers.push_back(got.ok() ? std::move(got).value() : KnnAnswer{});
  }
  return answers;
}

// Submits the whole workload through one remote client and drains the
// ordered completion stream, asserting every answer matches the serial
// reference bit for bit.
void DriveLoopback(uint16_t port, const Dataset& queries,
                   const SearchParams& params,
                   const std::vector<KnnAnswer>& reference,
                   const std::string& what) {
  auto connected = HydraClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<HydraClient> client = std::move(connected).value();
  EXPECT_EQ(client->negotiated_version(), kProtocolVersion);
  std::vector<QueryTicket> tickets;
  for (size_t q = 0; q < queries.size(); ++q) {
    tickets.push_back(client->Submit(queries.series(q), params));
    ASSERT_TRUE(tickets.back().valid()) << what;
  }
  client->Finish();
  size_t q = 0;
  while (std::optional<ServedQuery> served = client->Next()) {
    ASSERT_LT(q, queries.size()) << what;
    ASSERT_TRUE(served->answer.ok())
        << what << ": " << served->answer.status().ToString();
    ExpectIdentical(reference[q], served->answer.value(),
                    what + " query " + std::to_string(q));
    // The completion stream is submission-ordered, like in-process.
    EXPECT_EQ(served->ticket.id(), tickets[q].id()) << what;
    EXPECT_TRUE(served->ticket.done()) << what;
    ++q;
  }
  EXPECT_EQ(q, queries.size()) << what;
}

const char* kMethods[] = {"scan", "isax", "dstree", "vafile"};

TEST(NetServingTest, LoopbackEquivalenceInMemory) {
  Workload w;
  const SearchParams params = Exact();
  for (const char* method : kMethods) {
    BuildOptions build;
    build.method = method;
    auto built = BuildIndex(w.data, &w.provider, build);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    std::vector<KnnAnswer> reference =
        SerialReference(*built.value(), w.queries, params);
    for (size_t concurrency : {size_t{1}, size_t{4}, size_t{8}}) {
      ServerOptions options;
      options.serving.concurrency = concurrency;
      auto server =
          HydraServer::Start(*built.value(), &w.provider, options);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      DriveLoopback(server.value()->port(), w.queries, params, reference,
                    std::string(method) + " mem c" +
                        std::to_string(concurrency));
      server.value()->Stop();
    }
  }
}

TEST(NetServingTest, LoopbackEquivalenceOnDisk) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  const SearchParams params = Exact();
  for (const char* method : kMethods) {
    BuildOptions build;
    build.method = method;
    auto built = BuildIndex(w.data, w.bm.get(), build);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    std::vector<KnnAnswer> reference =
        SerialReference(*built.value(), w.queries, params);
    for (size_t concurrency : {size_t{1}, size_t{4}, size_t{8}}) {
      ServerOptions options;
      options.serving.concurrency = concurrency;
      auto server =
          HydraServer::Start(*built.value(), w.bm.get(), options);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      DriveLoopback(server.value()->port(), w.queries, params, reference,
                    std::string(method) + " disk c" +
                        std::to_string(concurrency));
      server.value()->Stop();
      // A readahead worker may still hold its loader pin.
      w.bm->DrainPrefetches();
      EXPECT_EQ(w.bm->PinnedPages(), 0u) << method;
    }
  }
}

TEST(NetServingTest, LoopbackEquivalenceSharded) {
  Workload w;
  const SearchParams params = Exact();
  for (size_t shards : {size_t{1}, size_t{4}}) {
    ShardedIndexOptions topo;
    topo.num_shards = shards;
    topo.build.method = "scan";
    auto built = ShardedIndex::Build(w.data, topo);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    std::vector<KnnAnswer> reference =
        SerialReference(*built.value(), w.queries, params);
    for (size_t concurrency : {size_t{1}, size_t{4}}) {
      ServerOptions options;
      options.serving.concurrency = concurrency;
      auto server = HydraServer::Start(*built.value(), nullptr, options);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      DriveLoopback(server.value()->port(), w.queries, params, reference,
                    "sharded x" + std::to_string(shards) + " c" +
                        std::to_string(concurrency));
      server.value()->Stop();
    }
  }
}

// Two clients on one server, interleaved: both submit into the server's
// one session, and each client's stream is its own submission order.
TEST(NetServingTest, TwoClientsIndependentStreams) {
  Workload w;
  const SearchParams params = Exact();
  BuildOptions build;
  build.method = "scan";
  auto built = BuildIndex(w.data, &w.provider, build);
  ASSERT_TRUE(built.ok());
  std::vector<KnnAnswer> reference =
      SerialReference(*built.value(), w.queries, params);
  ServerOptions options;
  options.serving.concurrency = 4;
  auto server = HydraServer::Start(*built.value(), &w.provider, options);
  ASSERT_TRUE(server.ok());
  std::thread second([&] {
    DriveLoopback(server.value()->port(), w.queries, params, reference,
                  "client-2");
  });
  DriveLoopback(server.value()->port(), w.queries, params, reference,
                "client-1");
  second.join();
  EXPECT_GE(server.value()->connections_accepted(), 2u);
}

// --- Raw-socket protocol policing ----------------------------------

Result<TcpSocket> HandshakeRaw(uint16_t port) {
  HYDRA_ASSIGN_OR_RETURN(TcpSocket socket,
                         TcpSocket::Connect("127.0.0.1", port));
  std::string hello;
  EncodeHello(HelloFrame{}, &hello);
  HYDRA_RETURN_IF_ERROR(socket.SendAll(hello.data(), hello.size()));
  FrameHeader header;
  std::string payload;
  HYDRA_RETURN_IF_ERROR(RecvFrame(socket, &header, &payload));
  if (header.kind != MessageKind::kHelloAck) {
    return Status::FailedPrecondition("handshake refused");
  }
  return socket;
}

struct ServerFixture {
  Workload w;
  std::unique_ptr<Index> index;
  std::unique_ptr<HydraServer> server;

  explicit ServerFixture(size_t concurrency = 4) {
    BuildOptions build;
    build.method = "scan";
    auto built = BuildIndex(w.data, &w.provider, build);
    EXPECT_TRUE(built.ok());
    index = std::move(built).value();
    ServerOptions options;
    options.serving.concurrency = concurrency;
    auto started = HydraServer::Start(*index, &w.provider, options);
    EXPECT_TRUE(started.ok());
    server = std::move(started).value();
  }
};

// A version range the server cannot satisfy gets a typed refusal frame:
// one above it, a version-1 client's {1, 1} and a version-2 client's
// {2, 2}.
TEST(NetServingTest, VersionNegotiationRefusesDisjointRange) {
  ServerFixture fx;
  EXPECT_EQ(kProtocolVersion, 3);
  for (const auto& [min_version, max_version] :
       {std::pair<int, int>{kProtocolVersion + 5, kProtocolVersion + 9},
        std::pair<int, int>{1, 1}, std::pair<int, int>{2, 2}}) {
    const std::string what = "hello {" + std::to_string(min_version) +
                             ", " + std::to_string(max_version) + "}";
    auto socket = TcpSocket::Connect("127.0.0.1", fx.server->port());
    ASSERT_TRUE(socket.ok()) << what;
    HelloFrame hello;
    hello.min_version = static_cast<uint16_t>(min_version);
    hello.max_version = static_cast<uint16_t>(max_version);
    std::string frame;
    EncodeHello(hello, &frame);
    ASSERT_TRUE(socket.value().SendAll(frame.data(), frame.size()).ok());
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(RecvFrame(socket.value(), &header, &payload).ok()) << what;
    ASSERT_EQ(header.kind, MessageKind::kStatus) << what;
    StatusFrame refused;
    ASSERT_TRUE(DecodeStatusFrame(
                    std::span<const char>(payload.data(), payload.size()),
                    &refused)
                    .ok());
    EXPECT_EQ(refused.request_id, 0u) << what;  // connection-level
    EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition)
        << what;
  }
  // And the full client path reports the same typed refusal... while a
  // well-versioned client still connects fine afterwards.
  auto ok_client = HydraClient::Connect("127.0.0.1", fx.server->port());
  EXPECT_TRUE(ok_client.ok());
}

// Garbage magic poisons the stream: typed error frame, then disconnect —
// and the server accepts the next connection as if nothing happened.
TEST(NetServingTest, BadMagicGetsTypedErrorAndDisconnect) {
  ServerFixture fx;
  auto socket = HandshakeRaw(fx.server->port());
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  std::string garbage(kFrameHeaderBytes, '\x5a');
  ASSERT_TRUE(socket.value().SendAll(garbage.data(), garbage.size()).ok());
  FrameHeader header;
  std::string payload;
  Status read = RecvFrame(socket.value(), &header, &payload);
  if (read.ok()) {
    EXPECT_EQ(header.kind, MessageKind::kStatus);
    // At most an end-of-stream kFinish may land before the hangup; after
    // that the server is gone for this connection.
    while ((read = RecvFrame(socket.value(), &header, &payload)).ok()) {
      EXPECT_EQ(header.kind, MessageKind::kFinish);
    }
  }
  EXPECT_GE(fx.server->frames_rejected(), 1u);
  // The server survived: a fresh client completes a full workload.
  std::vector<KnnAnswer> reference =
      SerialReference(*fx.index, fx.w.queries, Exact());
  DriveLoopback(fx.server->port(), fx.w.queries, Exact(), reference,
                "after bad magic");
}

// An oversized DECLARED length is rejected before any allocation.
TEST(NetServingTest, OversizedDeclaredLengthRejected) {
  ServerFixture fx;
  auto socket = HandshakeRaw(fx.server->port());
  ASSERT_TRUE(socket.ok());
  FrameHeader huge;
  huge.kind = MessageKind::kSubmit;
  huge.length = kMaxFramePayload + 1;
  std::string frame;
  EncodeFrameHeader(huge, &frame);
  ASSERT_TRUE(socket.value().SendAll(frame.data(), frame.size()).ok());
  FrameHeader header;
  std::string payload;
  Status read = RecvFrame(socket.value(), &header, &payload);
  if (read.ok()) {
    EXPECT_EQ(header.kind, MessageKind::kStatus);
  }
  EXPECT_GE(fx.server->frames_rejected(), 1u);
}

// A corrupt PAYLOAD costs that request only: typed kStatus response,
// and the same connection then serves a valid query.
TEST(NetServingTest, CorruptPayloadCostsOneRequestNotTheConnection) {
  ServerFixture fx;
  auto socket = HandshakeRaw(fx.server->port());
  ASSERT_TRUE(socket.ok());
  // A kSubmit frame whose payload is one garbage byte.
  FrameHeader bad;
  bad.kind = MessageKind::kSubmit;
  bad.length = 1;
  std::string frame;
  EncodeFrameHeader(bad, &frame);
  frame.push_back('\x42');
  ASSERT_TRUE(socket.value().SendAll(frame.data(), frame.size()).ok());
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(RecvFrame(socket.value(), &header, &payload).ok());
  EXPECT_EQ(header.kind, MessageKind::kStatus);
  StatusFrame rejected;
  ASSERT_TRUE(DecodeStatusFrame(
                  std::span<const char>(payload.data(), payload.size()),
                  &rejected)
                  .ok());
  EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument);

  // Same connection, valid submit: still served.
  SubmitFrame submit;
  submit.request_id = 1;
  submit.params = Exact();
  std::span<const float> q = fx.w.queries.series(0);
  submit.query.assign(q.begin(), q.end());
  std::string ok_frame;
  EncodeSubmit(submit, &ok_frame);
  ASSERT_TRUE(socket.value().SendAll(ok_frame.data(), ok_frame.size()).ok());
  ASSERT_TRUE(RecvFrame(socket.value(), &header, &payload).ok());
  ASSERT_EQ(header.kind, MessageKind::kResult);
  ResultFrame result;
  ASSERT_TRUE(DecodeResult(
                  std::span<const char>(payload.data(), payload.size()),
                  &result)
                  .ok());
  EXPECT_EQ(result.request_id, 1u);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
}

// An unknown message kind (future protocol chatter) is answered typed,
// not fatal.
TEST(NetServingTest, UnknownKindGetsTypedUnimplemented) {
  ServerFixture fx;
  auto socket = HandshakeRaw(fx.server->port());
  ASSERT_TRUE(socket.ok());
  FrameHeader unknown;
  unknown.kind = static_cast<MessageKind>(77);
  unknown.length = 0;
  std::string frame;
  EncodeFrameHeader(unknown, &frame);
  ASSERT_TRUE(socket.value().SendAll(frame.data(), frame.size()).ok());
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(RecvFrame(socket.value(), &header, &payload).ok());
  EXPECT_EQ(header.kind, MessageKind::kStatus);
  StatusFrame rejected;
  ASSERT_TRUE(DecodeStatusFrame(
                  std::span<const char>(payload.data(), payload.size()),
                  &rejected)
                  .ok());
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnimplemented);
}

// --- Disconnect and failure semantics ------------------------------

// A client killed mid-stream (socket closed abruptly, no Finish) leaks
// zero pins: the server cancels that connection's in-flight work and
// keeps serving other clients.
TEST(NetServingTest, ClientKillMidStreamLeaksNoPins) {
  DiskWorkload w(/*capacity_pages=*/16, /*n=*/4000, /*len=*/64,
                 /*num_queries=*/12);
  ASSERT_NE(w.bm, nullptr);
  BuildOptions build;
  build.method = "scan";
  auto built = BuildIndex(w.data, w.bm.get(), build);
  ASSERT_TRUE(built.ok());
  ServerOptions options;
  options.serving.concurrency = 4;
  auto server = HydraServer::Start(*built.value(), w.bm.get(), options);
  ASSERT_TRUE(server.ok());

  {
    auto socket = HandshakeRaw(server.value()->port());
    ASSERT_TRUE(socket.ok());
    for (uint64_t id = 1; id <= w.queries.size(); ++id) {
      SubmitFrame submit;
      submit.request_id = id;
      submit.params = Exact();
      std::span<const float> q =
          w.queries.series((id - 1) % w.queries.size());
      submit.query.assign(q.begin(), q.end());
      std::string frame;
      EncodeSubmit(submit, &frame);
      ASSERT_TRUE(socket.value().SendAll(frame.data(), frame.size()).ok());
    }
    // Read exactly one result, then die without Finish or drain.
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(RecvFrame(socket.value(), &header, &payload).ok());
    socket.value().Close();
  }

  // The disconnect cancels in-flight queries and releases every pin.
  // No pin is also what a running scan shows between two fetches, so
  // wait for what proves the dead connection's queries resolved: its
  // thread has returned (none of its frames is read again), then the
  // server's session has nothing in flight, and readahead is idle.
  ASSERT_TRUE(
      WaitUntil([&] { return server.value()->open_connections() == 0; },
                std::chrono::seconds(10)));
  {
    auto probe = HydraClient::Connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE(
        WaitUntil([&] { return probe.value()->stats().in_flight == 0; },
                  std::chrono::seconds(10)));
  }
  w.bm->DrainPrefetches();
  EXPECT_EQ(w.bm->PinnedPages(), 0u);

  // And the server still serves a full workload to a fresh client.
  std::vector<KnnAnswer> reference =
      SerialReference(*built.value(), w.queries, Exact());
  DriveLoopback(server.value()->port(), w.queries, Exact(), reference,
                "after client kill");
  server.value()->Stop();
  w.bm->DrainPrefetches();  // a readahead worker may hold its loader pin
  EXPECT_EQ(w.bm->PinnedPages(), 0u);
}

// Submit after Finish on the CLIENT returns an invalid ticket with the
// same typed kUnavailable the in-process scheduler uses — and never
// blocks (the satellite regression contract, remote flavor).
TEST(NetServingTest, ClientSubmitAfterFinishRefusedTyped) {
  ServerFixture fx;
  auto connected = HydraClient::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<HydraClient> client = std::move(connected).value();
  client->Finish();
  QueryTicket late = client->Submit(fx.w.queries.series(0), Exact());
  EXPECT_FALSE(late.valid());
  EXPECT_FALSE(late.done());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(client->Next().has_value());  // drains clean
}

// Per-query deadline travels in the frame and is re-armed server-side:
// slow storage + tiny budget = typed DeadlineExceeded over the wire,
// and a successful retry with no deadline proves the session survives.
TEST(NetServingTest, DeadlineTravelsAndFiresServerSide) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  BuildOptions build;
  build.method = "scan";
  auto built = BuildIndex(w.data, w.bm.get(), build);
  ASSERT_TRUE(built.ok());
  ServerOptions options;
  options.serving.concurrency = 2;
  auto server = HydraServer::Start(*built.value(), w.bm.get(), options);
  ASSERT_TRUE(server.ok());

  // Every page fetch sleeps 2ms; a 1ms budget cannot finish a scan.
  FaultConfig slow;
  slow.latency_rate = 1.0;
  slow.latency_us = 2000;
  w.bm->set_fault_config(slow);

  auto connected = HydraClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<HydraClient> client = std::move(connected).value();
  SearchParams rushed = Exact();
  rushed.deadline_ms = 1.0;
  QueryTicket ticket = client->Submit(w.queries.series(0), rushed);
  ASSERT_TRUE(ticket.valid());
  std::optional<ServedQuery> served = client->Next();
  ASSERT_TRUE(served.has_value());
  ASSERT_FALSE(served->answer.ok());
  EXPECT_TRUE(IsTimeout(served->answer.status().code()))
      << served->answer.status().ToString();
  EXPECT_TRUE(ticket.done());

  // Deadline off, storage healthy again: the same connection serves.
  w.bm->set_fault_config(FaultConfig{});
  QueryTicket retry = client->Submit(w.queries.series(0), Exact());
  ASSERT_TRUE(retry.valid());
  served = client->Next();
  ASSERT_TRUE(served.has_value());
  EXPECT_TRUE(served->answer.ok()) << served->answer.status().ToString();
  server.value()->Stop();
}

// A typed storage failure — injected permanent I/O error with its
// structured IoContext — crosses the wire losslessly.
TEST(NetServingTest, TypedStorageFailureRoundTripsWithIoContext) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  BuildOptions build;
  build.method = "scan";
  auto built = BuildIndex(w.data, w.bm.get(), build);
  ASSERT_TRUE(built.ok());
  ServerOptions options;
  auto server = HydraServer::Start(*built.value(), w.bm.get(), options);
  ASSERT_TRUE(server.ok());

  FaultConfig broken;
  broken.seed = 42;
  broken.permanent_rate = 1.0;
  w.bm->set_fault_config(broken);

  auto connected = HydraClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<HydraClient> client = std::move(connected).value();
  QueryTicket ticket = client->Submit(w.queries.series(0), Exact());
  ASSERT_TRUE(ticket.valid());
  std::optional<ServedQuery> served = client->Next();
  ASSERT_TRUE(served.has_value());
  ASSERT_FALSE(served->answer.ok());
  const Status& st = served->answer.status();
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_NE(st.message().find("injected permanent"), std::string::npos)
      << st.ToString();
  // The structured context attached at the storage layer survived two
  // codec hops (Status→frame on the server, frame→Status here).
  ASSERT_TRUE(st.has_io_context());
  EXPECT_FALSE(st.io_context().path.empty());
  w.bm->set_fault_config(FaultConfig{});
  server.value()->Stop();
}

// stats() round-trips the SERVER session's counters.
TEST(NetServingTest, StatsRoundTrip) {
  ServerFixture fx(/*concurrency=*/3);
  auto connected = HydraClient::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<HydraClient> client = std::move(connected).value();
  ServingStats stats = client->stats();
  EXPECT_EQ(stats.concurrency, 3u);
  EXPECT_GT(stats.queue_capacity, 0u);
  QueryTicket t = client->Submit(fx.w.queries.series(0), Exact());
  ASSERT_TRUE(t.valid());
  EXPECT_TRUE(client->Next().has_value());
  stats = client->stats();
  EXPECT_EQ(stats.concurrency, 3u);
}

// Duplicate request_id on one connection: typed rejection for the
// duplicate, the original still completes. Injected page latency keeps
// the original in flight until the duplicate has been policed.
TEST(NetServingTest, DuplicateRequestIdRejectedTyped) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  BuildOptions build;
  build.method = "scan";
  auto built = BuildIndex(w.data, w.bm.get(), build);
  ASSERT_TRUE(built.ok());
  ServerOptions options;
  options.serving.concurrency = 1;
  auto server = HydraServer::Start(*built.value(), w.bm.get(), options);
  ASSERT_TRUE(server.ok());
  FaultConfig slow;
  slow.latency_rate = 1.0;
  slow.latency_us = 1000;
  w.bm->set_fault_config(slow);

  auto socket = HandshakeRaw(server.value()->port());
  ASSERT_TRUE(socket.ok());
  SubmitFrame submit;
  submit.request_id = 7;
  submit.params = Exact();
  std::span<const float> q = w.queries.series(0);
  submit.query.assign(q.begin(), q.end());
  std::string frame;
  EncodeSubmit(submit, &frame);
  ASSERT_TRUE(socket.value().SendAll(frame.data(), frame.size()).ok());
  ASSERT_TRUE(socket.value().SendAll(frame.data(), frame.size()).ok());
  bool saw_result = false;
  bool saw_rejection = false;
  for (int i = 0; i < 2; ++i) {
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(RecvFrame(socket.value(), &header, &payload).ok());
    const std::span<const char> body(payload.data(), payload.size());
    if (header.kind == MessageKind::kResult) {
      ResultFrame result;
      ASSERT_TRUE(DecodeResult(body, &result).ok());
      EXPECT_EQ(result.request_id, 7u);
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      saw_result = true;
    } else if (header.kind == MessageKind::kStatus) {
      StatusFrame rejected;
      ASSERT_TRUE(DecodeStatusFrame(body, &rejected).ok());
      EXPECT_EQ(rejected.request_id, 7u);
      EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument);
      saw_rejection = true;
    }
  }
  EXPECT_TRUE(saw_result);
  EXPECT_TRUE(saw_rejection);
  w.bm->set_fault_config(FaultConfig{});
  server.value()->Stop();
}

// Concurrent submitters on one client: results still drain in ticket-id
// order with every answer right — the id-order-on-the-wire contract
// under real contention (the TSan lane's main course).
TEST(NetServingTest, ConcurrentSubmittersKeepIdOrder) {
  ServerFixture fx(/*concurrency=*/4);
  std::vector<KnnAnswer> reference =
      SerialReference(*fx.index, fx.w.queries, Exact());
  auto connected = HydraClient::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<HydraClient> client = std::move(connected).value();

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 6;
  std::vector<std::thread> submitters;
  std::mutex mu;
  std::vector<std::pair<uint64_t, size_t>> submitted;  // ticket id → query
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t q = (t * kPerThread + i) % fx.w.queries.size();
        QueryTicket ticket = client->Submit(fx.w.queries.series(q), Exact());
        ASSERT_TRUE(ticket.valid());
        std::lock_guard<std::mutex> lock(mu);
        submitted.emplace_back(ticket.id(), q);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  client->Finish();

  std::sort(submitted.begin(), submitted.end());
  size_t drained = 0;
  while (std::optional<ServedQuery> served = client->Next()) {
    ASSERT_LT(drained, submitted.size());
    EXPECT_EQ(served->ticket.id(), submitted[drained].first);
    ASSERT_TRUE(served->answer.ok());
    ExpectIdentical(reference[submitted[drained].second],
                    served->answer.value(),
                    "concurrent id " + std::to_string(submitted[drained].first));
    ++drained;
  }
  EXPECT_EQ(drained, kThreads * kPerThread);
}

// --- One session per server -------------------------------------------

// Wraps an index: each Search is held ~2 ms, and the wrapper records the
// most calls in flight at once. While gated, the Search of a query whose
// first sample is the gate value waits for Release() (at most 5 s).
class ProbeIndex : public Index {
 public:
  ProbeIndex(const Index& inner, bool concurrent)
      : inner_(inner), concurrent_(concurrent) {}

  std::string name() const override { return "probe"; }
  IndexCapabilities capabilities() const override {
    IndexCapabilities caps = inner_.capabilities();
    caps.concurrent_queries = concurrent_;
    caps.batched_queries = false;
    return caps;
  }
  size_t MemoryBytes() const override { return inner_.MemoryBytes(); }

  Result<KnnAnswer> Search(std::span<const float> query,
                           const SearchParams& params,
                           QueryCounters* counters) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      max_in_flight_ = std::max(max_in_flight_, ++in_flight_);
      if (gated_ && query[0] == gate_value_) {
        cv_.wait_for(lock, std::chrono::seconds(5), [this] { return !gated_; });
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Result<KnnAnswer> answer = inner_.Search(query, params, counters);
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    return answer;
  }

  void Gate(float value) {
    std::lock_guard<std::mutex> lock(mu_);
    gated_ = true;
    gate_value_ = value;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gated_ = false;
    }
    cv_.notify_all();
  }
  size_t max_in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_in_flight_;
  }

 private:
  const Index& inner_;
  const bool concurrent_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable size_t in_flight_ = 0;
  mutable size_t max_in_flight_ = 0;
  bool gated_ = false;
  float gate_value_ = 0;
};

// Runs `clients` HydraClients at once against one server, each
// submitting 12 queries, and returns the most Search calls that were in
// flight together. An explicit 8-worker pool keeps the host's core
// count out of the result.
size_t MaxSearchesInFlight(bool concurrent_queries, size_t concurrency,
                           size_t clients) {
  Workload w(/*n=*/2000, /*len=*/64, /*num_queries=*/12);
  BuildOptions build;
  build.method = "scan";
  auto built = BuildIndex(w.data, &w.provider, build);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return 0;
  const std::vector<KnnAnswer> reference =
      SerialReference(*built.value(), w.queries, Exact());
  ProbeIndex probe(*built.value(), concurrent_queries);
  ThreadPool pool(8);
  ServerOptions options;
  options.serving.concurrency = concurrency;
  options.serving.pool = &pool;
  auto server = HydraServer::Start(probe, &w.provider, options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  if (!server.ok()) return 0;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      DriveLoopback(server.value()->port(), w.queries, Exact(), reference,
                    "client " + std::to_string(c));
    });
  }
  for (std::thread& t : threads) t.join();
  server.value()->Stop();
  return probe.max_in_flight();
}

// An index whose queries must not overlap (ADS+ rewrites its tree) sees
// one Search at a time however many clients the server has.
TEST(NetServingTest, NonConcurrentIndexSeesOneSearchAcrossConnections) {
  EXPECT_EQ(MaxSearchesInFlight(/*concurrent_queries=*/false,
                                /*concurrency=*/4, /*clients=*/3),
            1u);
}

// The session's admission limit covers all connections together.
TEST(NetServingTest, ConcurrencyLimitCoversAllConnections) {
  EXPECT_LE(MaxSearchesInFlight(/*concurrent_queries=*/true,
                                /*concurrency=*/2, /*clients=*/4),
            2u);
}

// Results leave in completion order: a held query is overtaken on the
// wire by the three submitted after it. A HydraClient still hands the
// four out of Next() in ticket order.
TEST(NetServingTest, ResultsLeaveInCompletionOrderNextKeepsTicketOrder) {
  Workload w(/*n=*/2000, /*len=*/64, /*num_queries=*/4);
  BuildOptions build;
  build.method = "scan";
  auto built = BuildIndex(w.data, &w.provider, build);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::vector<KnnAnswer> reference =
      SerialReference(*built.value(), w.queries, Exact());
  ProbeIndex probe(*built.value(), /*concurrent=*/true);
  ThreadPool pool(8);
  ServerOptions options;
  options.serving.concurrency = 4;
  options.serving.pool = &pool;
  auto server = HydraServer::Start(probe, &w.provider, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const float gate = w.queries.series(0)[0];

  probe.Gate(gate);
  auto socket = HandshakeRaw(server.value()->port());
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  for (uint64_t id = 1; id <= 4; ++id) {
    SubmitFrame submit;
    submit.request_id = id;
    submit.params = Exact();
    std::span<const float> q = w.queries.series(id - 1);
    submit.query.assign(q.begin(), q.end());
    std::string frame;
    EncodeSubmit(submit, &frame);
    ASSERT_TRUE(socket.value().SendAll(frame.data(), frame.size()).ok());
  }
  std::vector<uint64_t> order;
  while (order.size() < 4) {
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(RecvFrame(socket.value(), &header, &payload).ok());
    ASSERT_EQ(header.kind, MessageKind::kResult);
    ResultFrame result;
    ASSERT_TRUE(DecodeResult(
                    std::span<const char>(payload.data(), payload.size()),
                    &result)
                    .ok());
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    order.push_back(result.request_id);
    if (order.size() == 3) probe.Release();
  }
  std::sort(order.begin(), order.begin() + 3);
  EXPECT_EQ(order, (std::vector<uint64_t>{2, 3, 4, 1}));

  probe.Gate(gate);
  auto connected = HydraClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<HydraClient> client = std::move(connected).value();
  std::vector<QueryTicket> tickets;
  for (size_t q = 0; q < 4; ++q) {
    tickets.push_back(client->Submit(w.queries.series(q), Exact()));
    ASSERT_TRUE(tickets.back().valid());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!(tickets[1].done() && tickets[2].done() && tickets[3].done()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(tickets[0].done());
  probe.Release();
  client->Finish();
  for (size_t q = 0; q < 4; ++q) {
    std::optional<ServedQuery> served = client->Next();
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->ticket.id(), tickets[q].id());
    ASSERT_TRUE(served->answer.ok()) << served->answer.status().ToString();
    ExpectIdentical(reference[q], served->answer.value(),
                    "query " + std::to_string(q));
  }
  EXPECT_FALSE(client->Next().has_value());
  server.value()->Stop();
}

// A client that submits queries with ~32 KB answers and never reads
// backs up far past the socket buffers, yet holds only its own
// connection: another client gets every answer, and Stop() returns.
TEST(NetServingTest, ClientThatStopsReadingDelaysNoOtherClient) {
  ServerFixture fx(/*concurrency=*/4);
  auto socket = HandshakeRaw(fx.server->port());
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  const int small = 4096;
  ASSERT_EQ(::setsockopt(socket.value().fd(), SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)),
            0);
  std::string flood;
  for (uint64_t id = 1; id <= 400; ++id) {
    SubmitFrame submit;
    submit.request_id = id;
    submit.params = Exact(/*k=*/2000);
    std::span<const float> q = fx.w.queries.series(id % fx.w.queries.size());
    submit.query.assign(q.begin(), q.end());
    EncodeSubmit(submit, &flood);
  }
  // The server reads nothing more from a client whose results back up,
  // so the flood may not fit the socket buffers: a thread of its own
  // sends it, and the shutdown below ends that send.
  std::thread flooder([&] {
    (void)socket.value().SendAll(flood.data(), flood.size());
  });
  // Results have started to back up before the second client connects.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int unread = 0;
  while (unread == 0 && std::chrono::steady_clock::now() < deadline) {
    ASSERT_EQ(::ioctl(socket.value().fd(), FIONREAD, &unread), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(unread, 0);
  std::vector<KnnAnswer> reference =
      SerialReference(*fx.index, fx.w.queries, Exact());
  DriveLoopback(fx.server->port(), fx.w.queries, Exact(), reference,
                "beside a client that stopped reading");
  fx.server->Stop();
  socket.value().ShutdownBoth();
  flooder.join();
}

// A client may stop reading while its own send is blocked: a replica
// set submits under the lock its receive thread takes. So the server
// keeps reading a client whose results wait to be sent; were it to stop,
// that client's blocked send would never finish. A flood of ~12 MB of
// submissions, far past the socket buffers, from a client that never
// reads goes through.
TEST(NetServingTest, ServerKeepsReadingWhileResultsWait) {
  Workload w(/*n=*/200, /*len=*/1024, /*num_queries=*/10);
  BuildOptions build;
  build.method = "scan";
  auto built = BuildIndex(w.data, &w.provider, build);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ServerOptions options;
  options.serving.concurrency = 4;
  auto server = HydraServer::Start(*built.value(), &w.provider, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto socket = HandshakeRaw(server.value()->port());
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  std::string flood;
  for (uint64_t id = 1; id <= 3000; ++id) {
    SubmitFrame submit;
    submit.request_id = id;
    submit.params = Exact(/*k=*/200);
    std::span<const float> q = w.queries.series(id % w.queries.size());
    submit.query.assign(q.begin(), q.end());
    EncodeSubmit(submit, &flood);
  }
  std::atomic<bool> sent{false};
  std::thread flooder([&] {
    EXPECT_TRUE(socket.value().SendAll(flood.data(), flood.size()).ok());
    sent.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!sent.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(sent.load()) << "the server stopped reading";
  socket.value().ShutdownBoth();  // ends a send left blocked
  flooder.join();
  server.value()->Stop();
}

// A closed connection's thread is joined and its descriptors closed when
// the server accepts a later one, so a long-running server does not run
// out of descriptors.
TEST(NetServingTest, ClosedConnectionsAreReaped) {
  ServerFixture fx;
  const auto open_fds = [] {
    size_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  const size_t before = open_fds();
  for (int i = 0; i < 200; ++i) {
    auto client = HydraClient::Connect("127.0.0.1", fx.server->port());
    ASSERT_TRUE(client.ok()) << i << ": " << client.status().ToString();
  }
  EXPECT_LE(open_fds(), before + 4);
}

}  // namespace
}  // namespace hydra
