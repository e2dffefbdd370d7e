// Serving throughput/latency report for the concurrent query engine
// (exec/query_scheduler.h): sweeps the inter-query concurrency level ×
// buffer-pool capacity for the disk-resident methods the paper leans on
// (DSTree, iSAX2+, VA+file), all serving from ONE page-pinning pool —
// the regime where admission control and the per-query pin-budget split
// actually matter. Every row comes from the served runner
// (harness/experiment.h: RunLoad → LoadTable) and reports wall-clock
// QPS, p50/p95/p99 serving latency, the speedup over its baseline row,
// the pool hit rate (per-query attribution summed), and a match_serial
// column that must read "yes" everywhere: answers are identical to the
// one-query-at-a-time protocol at every load. Like bench_thread_scaling
// this is a plain binary — the harness IS the measurement protocol.
//
// Usage: bench_serving [--smoke]
//   --smoke: tiny configuration for CI (the bench-smoke lane uploads its
//   tables as a build artifact). It also emulates a disk: unless the
//   caller exported its own HYDRA_FAULT_LATENCY_RATE /
//   HYDRA_FAULT_LATENCY_US, every page read sleeps 150us (the fault
//   injector's latency channel, storage/fault_injector.h), so page
//   fetches have a visible cost for batching to amortize even on a fast
//   CI disk.
//
// The sizes are fixed (kFull / kSmoke). HYDRA_PREFETCH (the
// engine's default readahead depth) still applies: the serving session
// splits the pool's prefetch budget across in-flight queries, and the
// prefetch_hit column reports the pool-wide readahead usefulness. The
// smoke workload tiles 4 distinct queries up to 16, modeling the
// duplicate-heavy streams (dashboards, repeated template queries) that
// batching amortizes best; the full workload is all distinct.
//
// Throughput context: whole queries are independent units, so on >= N
// idle cores the speedup column should approach the concurrency level
// until the pool (capacity sweep) or the disk becomes the bottleneck; on
// a loaded or small machine the answer columns still prove determinism.
//
// Five sections per run:
//   1. closed-loop concurrency x pool-capacity sweep, with every build
//      routed through the Index factory (index/factory.h). Rows with
//      setting "concurrency=C;window=4" re-serve level C with the
//      coalescing window armed; their speedup is against the unbatched
//      row at the same level (the batching gain);
//   2. an OPEN-LOOP offered-load sweep: a fixed arrival schedule drives
//      each method at rates below/at/above its measured capacity, and
//      the table reports tail latency vs offered load with latencies
//      charged from each query's SCHEDULED arrival (coordinated
//      omission included, the honest open-loop number);
//   3. a LOOPBACK open-loop sweep: the same generator driving a
//      HydraClient against a HydraServer on 127.0.0.1 (src/net/) — the
//      identical measurement code via the ServingBackend seam, so the
//      delta against section 2 is the wire cost (framing + TCP + one
//      extra thread hop), tail latencies included;
//   4. a sharded scatter-gather sweep (index/sharded/sharded_index.h):
//      the same workload against S disk-resident shards, whose answers
//      must stay bit-identical to the unsharded serial protocol at
//      every shard count x concurrency;
//   5. a REPLICATED availability sweep: two servers over the same
//      collection (each with its own index, buffer pool and worker
//      pool) behind a ReplicaSetBackend. Three scenarios — healthy baseline, one
//      replica's storage slowed to 5 ms per read (hedging masks the slow
//      replica), and a replica killed + restarted mid-load (failover
//      masks the dead one) — reporting the answered-OK-within-deadline
//      fraction and tail latency, with every OK answer still
//      bit-identical to the serial reference.
//
// Exit status 1 when any match_serial is NO, any row outside section 5
// has avg_recall below 1 (all search here is exact), any row resolved
// fewer queries than it submitted (done != n), or the degraded replica
// of section 5 saw no read attempt.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "exec/thread_pool.h"
#include "harness/experiment.h"
#include "index/factory.h"
#include "index/sharded/sharded_index.h"
#include "net/client.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"
#include "transform/znorm.h"

namespace {

using hydra::LoadResult;

// One configuration of the bench: the full run or the CI smoke run.
struct Sizes {
  size_t n;
  size_t len;
  size_t queries;
  size_t distinct;                 // distinct queries tiled up to `queries`
  std::vector<size_t> levels;      // closed-loop concurrency levels
  std::vector<size_t> capacities;  // pool pages
  std::vector<size_t> shards;      // shard counts of section 4
};

const Sizes kFull{50000, 128, 40, 40, {1, 2, 4, 8}, {64, 512}, {1, 2, 4, 8}};
const Sizes kSmoke{3000, 64, 16, 4, {1, 4}, {64}, {1, 4}};
constexpr size_t kK = 10;
constexpr size_t kPageSeries = 16;
constexpr size_t kBatchWindow = 4;
constexpr size_t kReplicas = 2;

// Prints one section and its CSV form; false when a row breaks the
// contract (see the header comment). Availability rows may fail queries
// typed, so their recall is not gated.
bool Report(const std::string& heading, const std::string& method,
            std::vector<LoadResult> rows, bool failures_allowed = false) {
  for (LoadResult& r : rows) r.method = method;
  hydra::Table table = hydra::LoadTable(rows);
  std::printf("\n## %s\n%s\n", heading.c_str(),
              table.ToAlignedText().c_str());
  std::printf("# csv\n%s", table.ToCsv().c_str());
  bool ok = true;
  for (const LoadResult& r : rows) {
    if (!r.matches_serial || r.completions != r.num_queries ||
        (!failures_allowed && r.accuracy.avg_recall < 1.0)) {
      std::fprintf(stderr,
                   "VIOLATION: %s %s: match=%d done=%zu/%zu recall=%.4f\n",
                   heading.c_str(), r.setting.c_str(),
                   r.matches_serial ? 1 : 0, r.completions, r.num_queries,
                   r.accuracy.avg_recall);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // Smoke runs on CI machines whose page cache makes real reads nearly
  // free; emulate a disk so the batched-vs-unbatched comparison measures
  // fetch amortization, not memcpy. Read at every pool open, so every
  // pool below is delayed. Overridable, never overwritten.
  if (smoke) {
    ::setenv("HYDRA_FAULT_LATENCY_RATE", "1", /*overwrite=*/0);
    ::setenv("HYDRA_FAULT_LATENCY_US", "150", /*overwrite=*/0);
  }
  const Sizes& size = smoke ? kSmoke : kFull;

  std::printf("# serving sweep: n=%zu len=%zu queries=%zu distinct=%zu "
              "k=%zu num_threads=1 page_series=%zu batch_window=%zu%s\n",
              size.n, size.len, size.queries, size.distinct, kK,
              kPageSeries, kBatchWindow, smoke ? " (smoke)" : "");

  hydra::Rng rng(20260730);
  hydra::Dataset data = hydra::MakeRandomWalk(size.n, size.len, rng);
  hydra::ZNormalizeDataset(data);
  // Duplicate-heavy workload: `distinct` noise queries tiled round-robin
  // up to the workload size. Repeats visit the same leaves/pages, which
  // is exactly the locality a coalescing window turns into shared
  // fetches and multi-query kernel passes.
  hydra::Dataset distinct_queries =
      hydra::MakeNoiseQueries(data, size.distinct, 0.1, rng);
  hydra::Dataset queries(size.queries, size.len);
  for (size_t q = 0; q < size.queries; ++q) {
    std::span<const float> src = distinct_queries.series(q % size.distinct);
    std::span<float> dst = queries.mutable_series(q);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  const std::vector<hydra::KnnAnswer> truth =
      hydra::ExactKnnWorkload(data, queries, kK);

  hydra::SearchParams params;
  params.mode = hydra::SearchMode::kExact;
  params.k = kK;

  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hydra_bench_serving";
  fs::create_directories(dir);
  std::string path = (dir / "data.hsf").string();
  if (!hydra::WriteSeriesFile(path, data).ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }

  // Every method build goes through the ONE factory the serving stack
  // uses (index/factory.h): same knobs, no per-method special-casing.
  // The sequential scan is where shared page passes pay off most — every
  // query touches every page, so a batch of Q turns Q full sweeps into
  // one; it is the batching headline row.
  const std::vector<std::string> methods = {"scan", "dstree", "isax",
                                            "vafile"};
  hydra::BuildOptions build_base;
  build_base.leaf_capacity = 256;
  build_base.histogram_pairs = 2000;
  auto build = [&](const std::string& method, hydra::BufferManager* pool) {
    hydra::BuildOptions options = build_base;
    options.method = method;
    auto built = hydra::BuildIndex(data, pool, options);
    if (!built.ok()) {
      std::fprintf(stderr, "%s: build failed: %s\n", method.c_str(),
                   built.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(built).value();
  };
  auto open_pool = [&](size_t capacity) {
    auto bm = hydra::BufferManager::Open(path, kPageSeries, capacity);
    if (!bm.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   bm.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(bm).value();
  };

  // Closed-loop rows of one index: one untimed serial pass (the warm-up,
  // so every row measures steady-state serving from a comparably warmed
  // pool, and the reference answers), the concurrency-1 baseline, each
  // level against it, and — where the index batches — each level again
  // with the coalescing window, against the unbatched row of its level.
  // `capacity_qps` keeps the best unbatched QPS, `best_gain` the best
  // batching gain.
  auto closed_loop = [&](const hydra::Index& index,
                         hydra::SeriesProvider* provider,
                         double* capacity_qps, double* best_gain) {
    const hydra::ServingBackendFactory factory =
        hydra::LocalBackendFactory(index, provider);
    const std::vector<hydra::KnnAnswer> reference =
        hydra::SerialAnswers(index, queries, params);
    const bool batching = index.capabilities().batched_queries &&
                          index.capabilities().concurrent_queries;
    const LoadResult base =
        hydra::RunLoad(factory, queries, truth, params, reference, {});
    std::vector<LoadResult> rows;
    for (size_t level : size.levels) {
      rows.push_back(level == 1 ? base
                                : hydra::RunLoad(factory, queries, truth,
                                                 params, reference,
                                                 {.concurrency = level}));
      hydra::CompareToBaseline(base, &rows.back());
      *capacity_qps = std::max(*capacity_qps, rows.back().qps);
      if (!batching) continue;
      LoadResult batched = hydra::RunLoad(
          factory, queries, truth, params, reference,
          {.concurrency = level, .batch_window = kBatchWindow});
      hydra::CompareToBaseline(rows.back(), &batched);
      *best_gain = std::max(*best_gain, batched.speedup);
      rows.push_back(std::move(batched));
    }
    return rows;
  };

  bool ok = true;
  // Closed-loop QPS at the best level, per method — the measured
  // capacity the open-loop sections offer load against.
  std::vector<double> capacity_qps(methods.size(), 0.0);
  for (size_t capacity : size.capacities) {
    for (size_t mi = 0; mi < methods.size(); ++mi) {
      std::unique_ptr<hydra::BufferManager> bm = open_pool(capacity);
      std::unique_ptr<hydra::Index> index = build(methods[mi], bm.get());
      double best_gain = 0.0;
      std::vector<LoadResult> rows =
          closed_loop(*index, bm.get(), &capacity_qps[mi], &best_gain);
      ok &= Report(methods[mi] + ", pool " + std::to_string(capacity) +
                       " pages x " + std::to_string(kPageSeries) + " series",
                   index->name(), std::move(rows));
      // The batching headline per method: best coalescing QPS gain
      // across the concurrency levels (duplicate-heavy workloads over a
      // slow disk should clear 1.3x on the scan row).
      std::printf("# batched_gain %s capacity=%zu window=%zu best=%.2fx\n",
                  methods[mi].c_str(), capacity, kBatchWindow, best_gain);
    }
  }

  // ---- Open-loop offered-load sweeps, in process and over loopback ----
  // A fixed arrival schedule (query i due at t0 + i/rate) drives each
  // method at rates bracketing its measured closed-loop capacity. The
  // p50/p95/p99 columns are charged from the SCHEDULED arrival, so the
  // knee past capacity shows up as unbounded queueing delay — the
  // classic open-loop hockey stick a closed loop can never exhibit. The
  // loopback rows put a HydraServer on 127.0.0.1 behind the same seam:
  // same schedule, same determinism column (answers are moved, never
  // recomputed, so they must match the serial reference bit for bit);
  // the latency columns then include framing, TCP, and the server's
  // connection thread and the workers that send results.
  const size_t open_concurrency = size.levels.back();
  const size_t open_capacity = size.capacities.back();
  for (bool loopback : {false, true}) {
    for (size_t mi = 0; mi < methods.size(); ++mi) {
      const std::string& method = methods[mi];
      if (capacity_qps[mi] <= 0.0) continue;
      std::unique_ptr<hydra::BufferManager> bm = open_pool(open_capacity);
      std::unique_ptr<hydra::Index> index = build(method, bm.get());
      const std::vector<hydra::KnnAnswer> reference =
          hydra::SerialAnswers(*index, queries, params);
      hydra::ServingBackendFactory factory =
          hydra::LocalBackendFactory(*index, bm.get());
      std::unique_ptr<hydra::HydraServer> server;
      if (loopback) {
        hydra::ServerOptions server_options;
        // The server's session shape is fixed at Start, so it is
        // configured here to what the runner will ask for (the factory's
        // options cannot reach across the wire).
        server_options.serving.concurrency = open_concurrency;
        server_options.serving.queue_capacity =
            size.queries + open_concurrency;
        auto started =
            hydra::HydraServer::Start(*index, bm.get(), server_options);
        if (!started.ok()) {
          std::fprintf(stderr, "server start failed: %s\n",
                       started.status().ToString().c_str());
          return 1;
        }
        server = std::move(started).value();
        factory = [port = server->port()](const hydra::ServingOptions&)
            -> std::unique_ptr<hydra::ServingBackend> {
          auto client = hydra::HydraClient::Connect("127.0.0.1", port);
          if (!client.ok()) return nullptr;
          return std::move(client).value();
        };
      }
      std::vector<LoadResult> rows;
      for (double f : {0.5, 0.8, 1.0, 1.2}) {
        rows.push_back(hydra::RunLoad(
            factory, queries, truth, params, reference,
            {.concurrency = open_concurrency, .rate = f * capacity_qps[mi]}));
      }
      ok &= Report(std::string(loopback ? "loopback " : "") + "open-loop " +
                       method + ", concurrency " +
                       std::to_string(open_concurrency) + ", pool " +
                       std::to_string(open_capacity) + " pages",
                   loopback ? method + "@loopback" : method, std::move(rows));
      if (server != nullptr) server->Stop();
    }
  }

  // ---- Sharded scatter-gather serving -----------------------------
  // The same workload against S disk-resident shards (each with its own
  // file + pool), merged answers checked against the SAME unsharded
  // ground truth: the match_serial/recall columns prove the scatter-
  // gather merge is bit-identical to one index at every topology.
  for (size_t shards : size.shards) {
    hydra::ShardedIndexOptions topo;
    topo.num_shards = shards;
    topo.build = build_base;
    topo.build.method = "scan";
    topo.build.page_series = kPageSeries;
    topo.storage_dir = (dir / ("shards-" + std::to_string(shards))).string();
    fs::create_directories(topo.storage_dir);
    auto sharded = hydra::ShardedIndex::Build(data, topo);
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharded build failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    double capacity = 0.0, gain = 0.0;
    const std::string name = sharded.value()->name();
    ok &= Report(name + " (disk shards)", name,
                 closed_loop(*sharded.value(), nullptr, &capacity, &gain));
  }

  // ---- Replicated availability sweep ------------------------------
  // Two servers over the same collection, each with its own index over
  // its own buffer pool and its own worker pool, behind a
  // ReplicaSetBackend. Three scenarios at one below-saturation
  // rate: healthy baseline, one replica's storage degraded (latency
  // faults on that replica's pool only — hedging masks the slow
  // replica), and one replica killed + restarted mid-load (failover +
  // reconnect mask the dead one). The headline is the answered-OK-
  // within-deadline fraction; determinism still holds: whichever replica
  // answers, the bytes must match the serial reference.
  {
    const size_t concurrency = size.levels.back();
    const size_t capacity = size.capacities.back();
    const std::string method = "dstree";
    double cap = 0.0;
    for (size_t mi = 0; mi < methods.size(); ++mi) {
      if (methods[mi] == method) cap = capacity_qps[mi];
    }
    const double rate = std::min(cap > 0.0 ? 0.6 * cap : 50.0, 200.0);
    // Long enough for a kill + restart to land mid-run.
    const size_t total = std::max<size_t>(
        32, std::min<size_t>(400, static_cast<size_t>(rate * 2.0)));
    const double run_seconds = static_cast<double>(total) / rate;

    // A replica is its own index over its own pool, served by its own
    // workers: a degraded replica's slow reads then sleep in its own
    // threads, and its healthy peer's hedges never queue behind them.
    std::vector<std::unique_ptr<hydra::BufferManager>> pools;
    std::vector<std::unique_ptr<hydra::Index>> indexes;
    std::vector<std::unique_ptr<hydra::ThreadPool>> workers;
    std::vector<hydra::ServerOptions> server_options(kReplicas);
    for (size_t r = 0; r < kReplicas; ++r) {
      pools.push_back(open_pool(capacity));
      indexes.push_back(build(method, pools.back().get()));
      workers.push_back(std::make_unique<hydra::ThreadPool>(concurrency));
      server_options[r].serving.concurrency = concurrency;
      server_options[r].serving.queue_capacity = total + concurrency;
      server_options[r].serving.pool = workers.back().get();
    }
    hydra::SearchParams avail_params = params;
    avail_params.deadline_ms = 2000.0;
    const std::vector<hydra::KnnAnswer> reference =
        hydra::SerialAnswers(*indexes[0], queries, avail_params);

    std::vector<std::unique_ptr<hydra::HydraServer>> servers;
    std::vector<hydra::Endpoint> endpoints;
    for (size_t r = 0; r < kReplicas; ++r) {
      auto server = hydra::HydraServer::Start(*indexes[r], pools[r].get(),
                                              server_options[r]);
      if (!server.ok()) {
        std::fprintf(stderr, "replica start failed: %s\n",
                     server.status().ToString().c_str());
        return 1;
      }
      servers.push_back(std::move(server).value());
      endpoints.push_back(
          hydra::Endpoint{"127.0.0.1", servers.back()->port()});
    }

    auto factory = [&endpoints](hydra::ReplicaPolicy policy, double hedge_ms)
        -> hydra::ServingBackendFactory {
      return [&endpoints, policy,
              hedge_ms](const hydra::ServingOptions&)
                 -> std::unique_ptr<hydra::ServingBackend> {
        hydra::ReplicaSetOptions options;
        options.policy = policy;
        options.hedge_ms = hedge_ms;
        auto set = hydra::ReplicaSetBackend::Connect(endpoints, options);
        if (!set.ok()) return nullptr;
        if (!set.value()->WaitAnyHealthy(std::chrono::milliseconds(5000))) {
          return nullptr;
        }
        return std::move(set).value();
      };
    };
    auto scenario = [&](const char* name, hydra::ReplicaPolicy policy,
                        double hedge_ms, std::function<void()> chaos) {
      hydra::Load load;
      load.concurrency = concurrency;
      load.rate = rate;
      load.total = total;
      load.chaos = std::move(chaos);
      LoadResult row = hydra::RunLoad(factory(policy, hedge_ms), queries,
                                      truth, avail_params, reference, load);
      row.setting = name;
      ok &= Report("replica availability (" + std::to_string(kReplicas) +
                       " replicas): " + name,
                   method, {row}, /*failures_allowed=*/true);
    };

    scenario("healthy", hydra::ReplicaPolicy::kRoundRobin, 0, nullptr);

    // One replica degraded: latency faults on ITS pool only. The hedged
    // policy races a backup on the healthy replica after hedge_ms. The
    // restore keeps any emulated disk latency the environment arms.
    hydra::FaultConfig slow;
    slow.latency_rate = 1.0;
    slow.latency_us = 5000;
    pools[1]->set_fault_config(slow);
    scenario("degraded-hedged", hydra::ReplicaPolicy::kHedged,
             smoke ? 10.0 : 25.0, nullptr);
    // A degraded replica that read nothing degraded nothing: the row
    // would measure two healthy replicas.
    const uint64_t slow_reads =
        pools[1]->reader().fault_injector().attempts();
    std::printf("# degraded replica read attempts: %llu\n",
                static_cast<unsigned long long>(slow_reads));
    if (slow_reads == 0) {
      std::fprintf(stderr, "VIOLATION: the degraded replica's pool saw no "
                           "read attempt\n");
      ok = false;
    }
    pools[1]->set_fault_config(hydra::FaultConfig::FromEnv());

    // Kill replica 1 a quarter into the run, restart it (same port)
    // after another third: in-flight queries fail over, the pool
    // reconnects, and the tail of the run is two-replica again.
    const uint16_t victim_port = servers[1]->port();
    scenario("replica-kill", hydra::ReplicaPolicy::kPrimaryFailover, 0, [&] {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(run_seconds * 0.25));
      servers[1]->Stop();
      std::this_thread::sleep_for(
          std::chrono::duration<double>(run_seconds * 0.35));
      hydra::ServerOptions restart = server_options[1];
      restart.port = victim_port;
      auto restarted =
          hydra::HydraServer::Start(*indexes[1], pools[1].get(), restart);
      if (restarted.ok()) servers[1] = std::move(restarted).value();
    });

    for (auto& server : servers) server->Stop();
  }

  fs::remove_all(dir);
  return ok ? 0 : 1;
}
