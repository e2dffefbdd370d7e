// Replicated serving contract (src/net/replica_set.h + conn_pool.h):
// a ReplicaSetBackend over N HydraServers must be indistinguishable
// from a single-server HydraClient when nothing fails — bit-identical
// answers in submission order — and must degrade to right-or-typed
// when replicas die: a killed server's in-flight queries fail over to
// a survivor (same answer, failovers counted), a query that can reach
// no live replica resolves typed instead of blocking the ordered
// stream, reconnects back off within bounds, a hedged race produces
// exactly one result per ticket, and no replica leaks a pinned page
// through any of it. The CI serving-stress and chaos lanes re-run this
// suite via `ctest -L replica`.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "core/generators.h"
#include "harness/experiment.h"
#include "index/factory.h"
#include "net/client.h"
#include "net/conn_pool.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "storage/buffer_manager.h"
#include "storage/fault_injector.h"
#include "storage/series_file.h"
#include "transform/znorm.h"

namespace hydra {
namespace {

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
    EXPECT_EQ(expected.distances[i], got.distances[i]) << what << " @" << i;
  }
}

std::vector<KnnAnswer> SerialReference(const Index& index,
                                       const Dataset& queries,
                                       const SearchParams& params) {
  std::vector<KnnAnswer> answers;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto got = index.Search(queries.series(q), params, nullptr);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    answers.push_back(got.ok() ? std::move(got).value() : KnnAnswer{});
  }
  return answers;
}

// Waits (bounded) for a buffer pool to release every pin — disconnect
// cancellation runs on server threads, so zero-leak is eventually, not
// instantly, true.
void ExpectPinsDrain(BufferManager* bm, const std::string& what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (bm->PinnedPages() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(bm->PinnedPages(), 0u) << what;
}

// N replicas of ONE logical collection: same generator seeds, so every
// replica serves identical data from its own storage and buffer pool —
// a failover may move a query between replicas but never change its
// answer.
struct ReplicaFixture {
  Dataset data;
  Dataset queries;
  std::filesystem::path dir;
  std::vector<std::unique_ptr<BufferManager>> pools;
  std::vector<std::unique_ptr<Index>> indexes;
  std::vector<std::unique_ptr<HydraServer>> servers;
  std::vector<Endpoint> endpoints;

  explicit ReplicaFixture(size_t replicas = 2, size_t concurrency = 4,
                          size_t n = 2000, size_t num_queries = 10)
      : data([&] {
          Rng rng(7);
          Dataset ds = MakeRandomWalk(n, /*len=*/64, rng);
          ZNormalizeDataset(ds);
          return ds;
        }()),
        queries([&] {
          Rng rng(1234);
          return MakeNoiseQueries(data, num_queries, 0.15, rng);
        }()) {
    static std::atomic<int> counter{0};
    dir = std::filesystem::temp_directory_path() /
          ("hydra_replica_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(dir);
    for (size_t r = 0; r < replicas; ++r) {
      std::string path = (dir / ("replica" + std::to_string(r) + ".hsf"))
                             .string();
      EXPECT_TRUE(WriteSeriesFile(path, data).ok());
      auto opened = BufferManager::Open(path, /*page_series=*/16,
                                        /*capacity_pages=*/16);
      if (!opened.ok()) {
        ADD_FAILURE() << opened.status().ToString();
        return;
      }
      pools.push_back(std::move(opened).value());
      BuildOptions build;
      build.method = "scan";
      auto built = BuildIndex(data, pools.back().get(), build);
      if (!built.ok()) {
        ADD_FAILURE() << built.status().ToString();
        return;
      }
      indexes.push_back(std::move(built).value());
      ServerOptions options;
      options.serving.concurrency = concurrency;
      auto server =
          HydraServer::Start(*indexes.back(), pools.back().get(), options);
      if (!server.ok()) {
        ADD_FAILURE() << server.status().ToString();
        return;
      }
      servers.push_back(std::move(server).value());
      endpoints.push_back(Endpoint{"127.0.0.1", servers.back()->port()});
    }
  }

  ~ReplicaFixture() {
    for (auto& server : servers) {
      if (server != nullptr) server->Stop();
    }
    servers.clear();
    indexes.clear();
    pools.clear();
    std::filesystem::remove_all(dir);
  }

  // Kills replica r and restarts it on the SAME port (SO_REUSEADDR in
  // the listener makes the rebind immediate).
  void Restart(size_t r) {
    const uint16_t port = servers[r]->port();
    servers[r]->Stop();
    ServerOptions options;
    options.port = port;
    options.serving.concurrency = 4;
    auto server = HydraServer::Start(*indexes[r], pools[r].get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    servers[r] = std::move(server).value();
  }
};

ReplicaSetOptions FastProbe(ReplicaPolicy policy) {
  ReplicaSetOptions options;
  options.policy = policy;
  options.pool.probe_ms = 20;
  options.pool.backoff_base_us = 1000;
  options.pool.backoff_cap_us = 20000;
  return options;
}

// --- Endpoint parsing ----------------------------------------------

TEST(ReplicaTest, ParseEndpointsRoundTrips) {
  auto parsed = ParseEndpoints("127.0.0.1:7001,localhost:7002");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].host, "127.0.0.1");
  EXPECT_EQ(parsed.value()[0].port, 7001);
  EXPECT_EQ(parsed.value()[1].host, "localhost");
  EXPECT_EQ(parsed.value()[1].port, 7002);
  EXPECT_EQ(EndpointToString(parsed.value()[0]), "127.0.0.1:7001");
  EXPECT_FALSE(ParseEndpoints("").ok());
  EXPECT_FALSE(ParseEndpoints("no-port").ok());
  EXPECT_FALSE(ParseEndpoints("host:notanumber").ok());
  EXPECT_FALSE(ParseEndpoints("host:70000").ok());
}

// --- Equivalence: the acceptance baseline --------------------------

// A single-replica set is bit-identical to the plain HydraClient path
// (which is itself bit-identical to in-process serving): the fan-out
// layer adds no observable behavior when nothing fails.
TEST(ReplicaTest, SingleReplicaBitIdenticalToDirectClient) {
  ReplicaFixture fx(/*replicas=*/1);
  std::vector<KnnAnswer> reference =
      SerialReference(*fx.indexes[0], fx.queries, Exact());

  auto connected =
      ReplicaSetBackend::Connect(fx.endpoints,
                                 FastProbe(ReplicaPolicy::kPrimaryFailover));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<ReplicaSetBackend> backend = std::move(connected).value();
  ASSERT_TRUE(backend->WaitAnyHealthy(std::chrono::seconds(5)));

  std::vector<QueryTicket> tickets;
  for (size_t q = 0; q < fx.queries.size(); ++q) {
    tickets.push_back(backend->Submit(fx.queries.series(q), Exact()));
    ASSERT_TRUE(tickets.back().valid());
  }
  backend->Finish();
  size_t q = 0;
  while (std::optional<ServedQuery> served = backend->Next()) {
    ASSERT_LT(q, fx.queries.size());
    ASSERT_TRUE(served->answer.ok()) << served->answer.status().ToString();
    ExpectIdentical(reference[q], served->answer.value(),
                    "single-replica query " + std::to_string(q));
    EXPECT_EQ(served->ticket.id(), tickets[q].id());
    EXPECT_TRUE(served->ticket.done());
    ++q;
  }
  EXPECT_EQ(q, fx.queries.size());
  EXPECT_EQ(backend->retries(), 0u);
  EXPECT_EQ(backend->failovers(), 0u);
  EXPECT_EQ(backend->hedges(), 0u);
  ExpectPinsDrain(fx.pools[0].get(), "single replica");
}

// Round-robin spreads first attempts but the ordered stream and the
// answers are unchanged — routing must be invisible in the results.
TEST(ReplicaTest, RoundRobinAnswersIdenticalAcrossReplicas) {
  ReplicaFixture fx(/*replicas=*/3);
  std::vector<KnnAnswer> reference =
      SerialReference(*fx.indexes[0], fx.queries, Exact());
  auto connected = ReplicaSetBackend::Connect(
      fx.endpoints, FastProbe(ReplicaPolicy::kRoundRobin));
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<ReplicaSetBackend> backend = std::move(connected).value();
  ASSERT_TRUE(backend->WaitAnyHealthy(std::chrono::seconds(5)));
  for (size_t q = 0; q < fx.queries.size(); ++q) {
    ASSERT_TRUE(backend->Submit(fx.queries.series(q), Exact()).valid());
  }
  backend->Finish();
  size_t q = 0;
  while (std::optional<ServedQuery> served = backend->Next()) {
    ASSERT_TRUE(served->answer.ok()) << served->answer.status().ToString();
    ExpectIdentical(reference[q], served->answer.value(),
                    "round-robin query " + std::to_string(q));
    ++q;
  }
  EXPECT_EQ(q, fx.queries.size());
}

// --- Failover: kill a server mid-query -----------------------------

// The headline robustness contract at every concurrency the TSan lane
// cares about: kill the primary while its queries are in flight. Every
// query must still resolve right-or-typed — and with a live survivor
// and a retry budget, "right" means OK answers identical to the serial
// reference, with the failovers counter recording the rescue. Zero
// pins leak on either replica, and the killed server restarts on the
// same port and serves again.
TEST(ReplicaTest, KillPrimaryMidQueryFailsOverRightOrTyped) {
  for (size_t concurrency : {size_t{1}, size_t{4}, size_t{8}}) {
    ReplicaFixture fx(/*replicas=*/2, concurrency, /*n=*/4000,
                      /*num_queries=*/12);
    std::vector<KnnAnswer> reference =
        SerialReference(*fx.indexes[0], fx.queries, Exact());
    // Slow the primary's storage a little so the kill lands while work
    // is genuinely in flight.
    FaultConfig slow;
    slow.latency_rate = 1.0;
    slow.latency_us = 2000;
    fx.pools[0]->set_fault_config(slow);

    auto connected = ReplicaSetBackend::Connect(
        fx.endpoints, FastProbe(ReplicaPolicy::kPrimaryFailover));
    ASSERT_TRUE(connected.ok());
    std::unique_ptr<ReplicaSetBackend> backend = std::move(connected).value();
    ASSERT_TRUE(backend->WaitHealthy(0, std::chrono::seconds(5)));
    ASSERT_TRUE(backend->WaitHealthy(1, std::chrono::seconds(5)));

    const std::string what = "kill c" + std::to_string(concurrency);
    for (size_t q = 0; q < fx.queries.size(); ++q) {
      ASSERT_TRUE(backend->Submit(fx.queries.series(q), Exact()).valid())
          << what;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fx.servers[0]->Stop();  // in-flight attempts die typed, then retry

    size_t ok = 0;
    size_t typed = 0;
    for (size_t q = 0; q < fx.queries.size(); ++q) {
      std::optional<ServedQuery> served = backend->Next();
      ASSERT_TRUE(served.has_value()) << what;
      if (served->answer.ok()) {
        ExpectIdentical(reference[q], served->answer.value(),
                        what + " query " + std::to_string(q));
        ++ok;
      } else {
        // Budget exhausted in a pathological schedule is legal, but it
        // must be typed — never a hang, never a wrong answer.
        EXPECT_FALSE(served->answer.status().message().empty()) << what;
        ++typed;
      }
    }
    // Replica 1 was healthy throughout and one retry covers one kill:
    // everything the primary dropped must have been rescued.
    EXPECT_EQ(ok, fx.queries.size()) << what << " (" << typed << " typed)";
    EXPECT_GT(backend->failovers(), 0u) << what;
    ExpectPinsDrain(fx.pools[1].get(), what + " survivor");
    ExpectPinsDrain(fx.pools[0].get(), what + " victim");

    // The victim comes back on the same port and the same backend uses
    // it again — the pool reconnects underneath, no new Connect().
    fx.Restart(0);
    ASSERT_TRUE(backend->WaitHealthy(0, std::chrono::seconds(10))) << what;
    ASSERT_TRUE(backend->Submit(fx.queries.series(0), Exact()).valid());
    backend->Finish();
    std::optional<ServedQuery> after = backend->Next();
    ASSERT_TRUE(after.has_value()) << what;
    ASSERT_TRUE(after->answer.ok()) << after->answer.status().ToString();
    ExpectIdentical(reference[0], after->answer.value(), what + " restarted");
    EXPECT_FALSE(backend->Next().has_value()) << what;
  }
}

// --- No live replica: typed, never a hang --------------------------

TEST(ReplicaTest, NoLiveReplicaResolvesTypedOrParksUntilDeadline) {
  // A dead port: start a server only to learn a bindable port, then
  // stop it before the backend ever connects.
  ReplicaFixture fx(/*replicas=*/1);
  std::vector<KnnAnswer> reference =
      SerialReference(*fx.indexes[0], fx.queries, Exact());
  const uint16_t port = fx.servers[0]->port();
  fx.servers[0]->Stop();

  auto connected = ReplicaSetBackend::Connect(
      {Endpoint{"127.0.0.1", port}},
      FastProbe(ReplicaPolicy::kPrimaryFailover));
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<ReplicaSetBackend> backend = std::move(connected).value();

  // Without a deadline there is nothing to park against: typed now.
  QueryTicket eager = backend->Submit(fx.queries.series(0), Exact());
  ASSERT_TRUE(eager.valid());
  std::optional<ServedQuery> served = backend->Next();
  ASSERT_TRUE(served.has_value());
  ASSERT_FALSE(served->answer.ok());
  EXPECT_EQ(served->answer.status().code(), StatusCode::kUnavailable)
      << served->answer.status().ToString();
  EXPECT_TRUE(eager.done());

  // With a deadline the query parks — and expires typed when no
  // replica appears in time.
  SearchParams brief = Exact();
  brief.deadline_ms = 150;
  ASSERT_TRUE(backend->Submit(fx.queries.series(0), brief).valid());
  served = backend->Next();
  ASSERT_TRUE(served.has_value());
  ASSERT_FALSE(served->answer.ok());
  EXPECT_EQ(served->answer.status().code(), StatusCode::kDeadlineExceeded)
      << served->answer.status().ToString();

  // And when the replica DOES come up inside the budget, the parked
  // query dispatches and completes with the right answer.
  SearchParams patient = Exact();
  patient.deadline_ms = 10000;
  ASSERT_TRUE(backend->Submit(fx.queries.series(1), patient).valid());
  fx.Restart(0);
  backend->Finish();
  served = backend->Next();
  ASSERT_TRUE(served.has_value());
  ASSERT_TRUE(served->answer.ok()) << served->answer.status().ToString();
  ExpectIdentical(reference[1], served->answer.value(), "parked dispatch");
  EXPECT_FALSE(backend->Next().has_value());
}

// --- Reconnect backoff ---------------------------------------------

// Against a refusing endpoint the pool must retry on the configured
// capped-exponential schedule: enough attempts to recover fast, few
// enough to prove it is not hot-looping. Then the server appears and
// the same pool goes healthy without intervention.
TEST(ReplicaTest, ReconnectBackoffStaysWithinBounds) {
  ReplicaFixture fx(/*replicas=*/1);
  const uint16_t port = fx.servers[0]->port();
  fx.servers[0]->Stop();

  ConnPoolOptions options;
  options.probe_ms = 50;
  options.backoff_base_us = 2000;
  options.backoff_cap_us = 16000;
  ConnectionPool pool({Endpoint{"127.0.0.1", port}}, options,
                      [](size_t, ServedQuery) {});
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const EndpointStatus refused = pool.endpoint_status(0);
  EXPECT_TRUE(refused.health == EndpointHealth::kDown ||
              refused.health == EndpointHealth::kProbing)
      << EndpointHealthName(refused.health);
  EXPECT_EQ(pool.Lease(0), nullptr);
  EXPECT_EQ(refused.generation, 0u);
  // 600ms over delays 2,4,8,16,16,... (+ jitter ≤ delay/2): a hot loop
  // would log thousands of attempts, a stuck schedule near zero.
  EXPECT_GE(refused.reconnect_attempts, 5u);
  EXPECT_LE(refused.reconnect_attempts, 120u);
  EXPECT_FALSE(pool.WaitHealthy(0, std::chrono::milliseconds(50)));

  fx.Restart(0);
  EXPECT_TRUE(pool.WaitHealthy(0, std::chrono::seconds(10)));
  const EndpointStatus recovered = pool.endpoint_status(0);
  EXPECT_EQ(recovered.health, EndpointHealth::kHealthy);
  EXPECT_GE(recovered.generation, 1u);
  ASSERT_NE(pool.Lease(0), nullptr);
  EXPECT_TRUE(pool.Lease(0)->Ping().ok());
  pool.Stop();
}

// --- Hedging -------------------------------------------------------

// One replica slowed two orders of magnitude: the hedger launches a
// backup attempt after hedge_ms, the fast replica wins, the loser is
// cancelled over the wire — and exactly one result per ticket reaches
// the ordered stream, every OK answer still bit-identical.
TEST(ReplicaTest, HedgedRequestCancelsLoserExactlyOneResult) {
  ReplicaFixture fx(/*replicas=*/2, /*concurrency=*/4, /*n=*/4000,
                    /*num_queries=*/8);
  std::vector<KnnAnswer> reference =
      SerialReference(*fx.indexes[0], fx.queries, Exact());
  // Replica 1 answers, but slowly: ~3ms per page fetch.
  FaultConfig slow;
  slow.latency_rate = 1.0;
  slow.latency_us = 3000;
  fx.pools[1]->set_fault_config(slow);

  ReplicaSetOptions options = FastProbe(ReplicaPolicy::kHedged);
  options.hedge_ms = 10;
  auto connected = ReplicaSetBackend::Connect(fx.endpoints, options);
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<ReplicaSetBackend> backend = std::move(connected).value();
  ASSERT_TRUE(backend->WaitHealthy(0, std::chrono::seconds(5)));
  ASSERT_TRUE(backend->WaitHealthy(1, std::chrono::seconds(5)));

  for (size_t q = 0; q < fx.queries.size(); ++q) {
    ASSERT_TRUE(backend->Submit(fx.queries.series(q), Exact()).valid());
  }
  backend->Finish();
  size_t drained = 0;
  while (std::optional<ServedQuery> served = backend->Next()) {
    ASSERT_LT(drained, fx.queries.size());
    ASSERT_TRUE(served->answer.ok()) << served->answer.status().ToString();
    ExpectIdentical(reference[drained], served->answer.value(),
                    "hedged query " + std::to_string(drained));
    ++drained;
  }
  // Exactly one result per ticket: a loser delivering a duplicate
  // would overshoot, a lost cancellation response can never stall the
  // drain (the stream closed above).
  EXPECT_EQ(drained, fx.queries.size());
  // Round-robin parks half the first attempts on the slow replica;
  // each of those waits out hedge_ms and launches a backup.
  EXPECT_GT(backend->hedges(), 0u);
  fx.pools[1]->set_fault_config(FaultConfig{});
  ExpectPinsDrain(fx.pools[0].get(), "hedge fast");
  ExpectPinsDrain(fx.pools[1].get(), "hedge slow");
}

// --- Client shutdown (satellite: drain-or-resolve) ------------------

// Destroying a HydraClient with results never drained must still
// resolve every ticket — done() flips with OK-or-typed status, nothing
// blocks, nothing leaks server-side.
TEST(ReplicaTest, ClientDestructionResolvesEveryTicket) {
  ReplicaFixture fx(/*replicas=*/1);
  std::vector<QueryTicket> tickets;
  {
    auto connected =
        HydraClient::Connect("127.0.0.1", fx.servers[0]->port());
    ASSERT_TRUE(connected.ok());
    std::unique_ptr<HydraClient> client = std::move(connected).value();
    for (size_t q = 0; q < fx.queries.size(); ++q) {
      tickets.push_back(client->Submit(fx.queries.series(q), Exact()));
      ASSERT_TRUE(tickets.back().valid());
    }
    // No Next(), no Finish() — the destructor owns the drain.
  }
  for (size_t q = 0; q < tickets.size(); ++q) {
    EXPECT_TRUE(tickets[q].done()) << "ticket " << q;
  }
  ExpectPinsDrain(fx.pools[0].get(), "client dtor");
}

// Same contract one layer up: a ReplicaSetBackend destroyed with
// queries in flight resolves every ticket on the way down.
TEST(ReplicaTest, BackendDestructionResolvesEveryTicket) {
  ReplicaFixture fx(/*replicas=*/2);
  std::vector<QueryTicket> tickets;
  {
    auto connected = ReplicaSetBackend::Connect(
        fx.endpoints, FastProbe(ReplicaPolicy::kRoundRobin));
    ASSERT_TRUE(connected.ok());
    std::unique_ptr<ReplicaSetBackend> backend = std::move(connected).value();
    ASSERT_TRUE(backend->WaitAnyHealthy(std::chrono::seconds(5)));
    for (size_t q = 0; q < fx.queries.size(); ++q) {
      tickets.push_back(backend->Submit(fx.queries.series(q), Exact()));
      ASSERT_TRUE(tickets.back().valid());
    }
  }
  for (size_t q = 0; q < tickets.size(); ++q) {
    EXPECT_TRUE(tickets[q].done()) << "ticket " << q;
  }
  ExpectPinsDrain(fx.pools[0].get(), "backend dtor r0");
  ExpectPinsDrain(fx.pools[1].get(), "backend dtor r1");
}

// Destroying a replica set right after Connect races its managers'
// in-flight connects: a client published after Stop() looked must still
// be finished, or its manager waits in Next() forever and the
// destructor never returns. 200 connect/destroy cycles under a
// watchdog; a hang fails the suite at once instead of timing it out.
TEST(ReplicaTest, ImmediateDestructionNeverHangs) {
  ReplicaFixture fx(/*replicas=*/2);
  std::atomic<int> cycles{0};
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread worker([&] {
    for (int i = 0; i < 200; ++i) {
      auto connected = ReplicaSetBackend::Connect(
          fx.endpoints, FastProbe(ReplicaPolicy::kRoundRobin));
      EXPECT_TRUE(connected.ok());
      cycles.fetch_add(1);
    }
    done.set_value();
  });
  if (finished.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "replica set teardown hung after %d cycles\n",
                 cycles.load());
    std::_Exit(1);
  }
  worker.join();
  EXPECT_EQ(cycles.load(), 200);
}

// --- Delivery order and re-entrancy --------------------------------

// A connection that dies with queries in flight hands every one of
// them to on_result — served or typed — before the endpoint's next
// client is published: each delivery sees generation 1, and the restart
// brings generation 2 only after all twelve.
TEST(ReplicaTest, DyingConnectionDeliversEveryResultBeforeReconnect) {
  ReplicaFixture fx(/*replicas=*/1, /*concurrency=*/4, /*n=*/4000,
                    /*num_queries=*/12);
  FaultConfig slow;
  slow.latency_rate = 1.0;
  slow.latency_us = 2000;
  fx.pools[0]->set_fault_config(slow);

  std::mutex mu;
  std::vector<uint64_t> seen;  // the endpoint's generation per delivery
  std::atomic<ConnectionPool*> pool_ptr{nullptr};
  ConnPoolOptions options;
  options.probe_ms = 20;
  options.backoff_base_us = 1000;
  options.backoff_cap_us = 20000;
  ConnectionPool pool(fx.endpoints, options, [&](size_t, ServedQuery) {
    const uint64_t generation = pool_ptr.load()->endpoint_status(0).generation;
    // A slow consumer: a reconnect that did not wait for the deliveries
    // would overtake them.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(generation);
  });
  pool_ptr.store(&pool);
  ASSERT_TRUE(pool.WaitHealthy(0, std::chrono::seconds(5)));
  // Held across the restart, as a replica set's attempts hold theirs.
  std::shared_ptr<HydraClient> client = pool.Lease(0);
  ASSERT_NE(client, nullptr);
  for (size_t q = 0; q < fx.queries.size(); ++q) {
    ASSERT_TRUE(client->Submit(fx.queries.series(q), Exact()).valid());
  }
  fx.Restart(0);  // in-flight queries die typed with the connection

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.endpoint_status(0).generation < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pool.endpoint_status(0).generation, 2u);
  pool.Stop();
  client.reset();
  fx.pools[0]->set_fault_config(FaultConfig{});
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(seen.size(), fx.queries.size());
  for (size_t d = 0; d < seen.size(); ++d) {
    EXPECT_EQ(seen[d], 1u) << "delivery " << d;
  }
  ExpectPinsDrain(fx.pools[0].get(), "dying connection");
}

// With one replica, a retry-safe failure is re-submitted to the very
// connection that delivered it — from inside its delivery — while
// another thread keeps round-tripping stats() on that connection. The
// query exhausts its budget typed (two retries, no failover) instead of
// deadlocking, and the connection serves the next query right.
TEST(ReplicaTest, LoneReplicaRetryResubmitsOnTheDeliveringConnection) {
  ReplicaFixture fx(/*replicas=*/1);
  std::vector<KnnAnswer> reference =
      SerialReference(*fx.indexes[0], fx.queries, Exact());
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread worker([&] {
    auto connected = ReplicaSetBackend::Connect(
        fx.endpoints, FastProbe(ReplicaPolicy::kPrimaryFailover));
    EXPECT_TRUE(connected.ok());
    if (connected.ok()) {
      std::unique_ptr<ReplicaSetBackend> backend =
          std::move(connected).value();
      EXPECT_TRUE(backend->WaitHealthy(0, std::chrono::seconds(5)));
      std::atomic<bool> stop{false};
      std::thread poller([&] {
        while (!stop.load()) (void)backend->stats();
      });
      FaultConfig broken;
      broken.seed = 42;
      broken.permanent_rate = 1.0;
      fx.pools[0]->set_fault_config(broken);
      EXPECT_TRUE(backend->Submit(fx.queries.series(0), Exact()).valid());
      std::optional<ServedQuery> failed = backend->Next();
      EXPECT_TRUE(failed.has_value());
      if (failed.has_value()) {
        EXPECT_FALSE(failed->answer.ok());
        if (!failed->answer.ok()) {
          EXPECT_EQ(failed->answer.status().code(), StatusCode::kIoError)
              << failed->answer.status().ToString();
        }
      }
      EXPECT_EQ(backend->retries(), 2u);
      EXPECT_EQ(backend->failovers(), 0u);

      fx.pools[0]->set_fault_config(FaultConfig{});
      EXPECT_TRUE(backend->Submit(fx.queries.series(1), Exact()).valid());
      std::optional<ServedQuery> served = backend->Next();
      EXPECT_TRUE(served.has_value());
      if (served.has_value()) {
        EXPECT_TRUE(served->answer.ok()) << served->answer.status().ToString();
        if (served->answer.ok()) {
          ExpectIdentical(reference[1], served->answer.value(),
                          "after lone-replica retries");
        }
      }
      stop.store(true);
      poller.join();
    }
    done.set_value();
  });
  if (finished.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "lone-replica retry hung\n");
    std::_Exit(1);
  }
  worker.join();
  ExpectPinsDrain(fx.pools[0].get(), "lone replica");
}

// --- Stats surfacing (satellite) -----------------------------------

// The server-side acceptor counters now cross the wire in StatsReply.
TEST(ReplicaTest, StatsReplySurfacesAcceptorCounters) {
  ReplicaFixture fx(/*replicas=*/1);
  auto connected = HydraClient::Connect("127.0.0.1", fx.servers[0]->port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<HydraClient> client = std::move(connected).value();
  Result<ServingStats> stats = client->TryStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().connections_accepted, 1u);
  EXPECT_EQ(stats.value().frames_rejected, 0u);

  // And the replica set merges its own routing counters into stats().
  auto set = ReplicaSetBackend::Connect(
      fx.endpoints, FastProbe(ReplicaPolicy::kPrimaryFailover));
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(set.value()->WaitAnyHealthy(std::chrono::seconds(5)));
  ServingStats merged = set.value()->stats();
  EXPECT_GE(merged.connections_accepted, 2u);  // direct client + pool
  EXPECT_EQ(merged.retries, 0u);
  EXPECT_EQ(merged.failovers, 0u);
}

// --- The acceptance chaos sweep ------------------------------------

// The ISSUE's replica-kill availability criterion, harness edition:
// two replicas under open-loop load, one killed and restarted
// mid-stream. Every query right-or-typed (completions == n), at least
// 95% answered OK within a generous deadline, OK answers bit-identical
// to the serial reference, zero leaked pins. HYDRA_FAULT_SEED (the
// chaos lane's variable) seeds extra storage faults on the victim.
TEST(ReplicaTest, ReplicaKillAvailabilitySweep) {
  ReplicaFixture fx(/*replicas=*/2, /*concurrency=*/4, /*n=*/4000,
                    /*num_queries=*/10);
  std::vector<KnnAnswer> reference =
      SerialReference(*fx.indexes[0], fx.queries, Exact());
  // The chaos lane arms extra faults on the victim's storage only —
  // retry-safe typed failures the failover path must also absorb.
  if (EnvOrU64("HYDRA_FAULT_SEED", 0) != 0) {
    FaultConfig faults;
    faults.seed = EnvOrU64("HYDRA_FAULT_SEED", 0);
    faults.transient_rate = EnvOrRate("HYDRA_FAULT_TRANSIENT_RATE", 0.05);
    fx.pools[0]->set_fault_config(faults);
  }

  ServingBackendFactory factory = [&](const ServingOptions&)
      -> std::unique_ptr<ServingBackend> {
    auto connected = ReplicaSetBackend::Connect(
        fx.endpoints, FastProbe(ReplicaPolicy::kPrimaryFailover));
    EXPECT_TRUE(connected.ok());
    std::unique_ptr<ReplicaSetBackend> backend = std::move(connected).value();
    EXPECT_TRUE(backend->WaitAnyHealthy(std::chrono::seconds(5)));
    return backend;
  };

  SearchParams base = Exact();
  base.deadline_ms = 5000;
  const size_t total = 40;
  const double rate = 50.0;
  std::function<void()> chaos = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    fx.Restart(0);
  };
  Load load{.concurrency = 4, .rate = rate, .total = total, .chaos = chaos};
  LoadResult point =
      RunLoad(factory, fx.queries, /*ground_truth=*/{}, base, reference, load);

  EXPECT_EQ(point.completions, total);  // right-or-typed, no hangs
  EXPECT_TRUE(point.matches_serial);    // failover never changes answers
  EXPECT_GE(point.availability, 0.95);
  ExpectPinsDrain(fx.pools[0].get(), "availability victim");
  ExpectPinsDrain(fx.pools[1].get(), "availability survivor");
}

}  // namespace
}  // namespace hydra
