// Loopback contract of the socket front-end (src/net/): a HydraClient
// driving a HydraServer over 127.0.0.1 must be indistinguishable from
// an in-process ServingSession — bit-identical answers in submission
// order for every method × concurrency × topology, typed Status (with
// structured IoContext) surviving the wire, deadlines re-armed
// server-side, malformed frames costing one request (or one connection)
// but never the server, and an abruptly killed client leaking zero
// pinned pages while the server keeps serving. The CI serving-stress
// lane re-runs this suite under TSan at HYDRA_CONCURRENCY=8; the chaos
// lane re-runs it with fault injection armed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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

// Two clients on one server, interleaved: each connection has its own
// session, so each client's stream is its own submission order.
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

Status ReadFrame(const TcpSocket& socket, FrameHeader* header,
                 std::string* payload) {
  char bytes[kFrameHeaderBytes];
  HYDRA_RETURN_IF_ERROR(socket.RecvAll(bytes, sizeof(bytes)));
  HYDRA_RETURN_IF_ERROR(DecodeFrameHeader(
      std::span<const char>(bytes, sizeof(bytes)), header));
  payload->resize(static_cast<size_t>(header->length));
  if (header->length > 0) {
    HYDRA_RETURN_IF_ERROR(socket.RecvAll(payload->data(), payload->size()));
  }
  return Status::OK();
}

Result<TcpSocket> HandshakeRaw(uint16_t port) {
  HYDRA_ASSIGN_OR_RETURN(TcpSocket socket,
                         TcpSocket::Connect("127.0.0.1", port));
  std::string hello;
  EncodeHello(HelloFrame{}, &hello);
  HYDRA_RETURN_IF_ERROR(socket.SendAll(hello.data(), hello.size()));
  FrameHeader header;
  std::string payload;
  HYDRA_RETURN_IF_ERROR(ReadFrame(socket, &header, &payload));
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
// one above it, and a version-1 client's {1, 1}.
TEST(NetServingTest, VersionNegotiationRefusesDisjointRange) {
  ServerFixture fx;
  EXPECT_EQ(kProtocolVersion, 2);
  for (const auto& [min_version, max_version] :
       {std::pair<int, int>{kProtocolVersion + 5, kProtocolVersion + 9},
        std::pair<int, int>{1, 1}}) {
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
    ASSERT_TRUE(ReadFrame(socket.value(), &header, &payload).ok()) << what;
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
  Status read = ReadFrame(socket.value(), &header, &payload);
  if (read.ok()) {
    EXPECT_EQ(header.kind, MessageKind::kStatus);
    // The pump's end-of-stream kFinish may land before the hangup; after
    // that the server is gone for this connection.
    while ((read = ReadFrame(socket.value(), &header, &payload)).ok()) {
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
  Status read = ReadFrame(socket.value(), &header, &payload);
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
  ASSERT_TRUE(ReadFrame(socket.value(), &header, &payload).ok());
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
  ASSERT_TRUE(ReadFrame(socket.value(), &header, &payload).ok());
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
  ASSERT_TRUE(ReadFrame(socket.value(), &header, &payload).ok());
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
    ASSERT_TRUE(ReadFrame(socket.value(), &header, &payload).ok());
    socket.value().Close();
  }

  // The disconnect cancels in-flight queries and releases every pin.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (w.bm->PinnedPages() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(w.bm->PinnedPages(), 0u);

  // And the server still serves a full workload to a fresh client.
  std::vector<KnnAnswer> reference =
      SerialReference(*built.value(), w.queries, Exact());
  DriveLoopback(server.value()->port(), w.queries, Exact(), reference,
                "after client kill");
  server.value()->Stop();
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
    ASSERT_TRUE(ReadFrame(socket.value(), &header, &payload).ok());
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

}  // namespace
}  // namespace hydra
