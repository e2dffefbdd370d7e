// hydra — command-line front end to the library, mirroring the workflow
// of the original research tools: generate datasets, build and persist
// indexes, and answer query workloads with any accuracy contract.
//
// Usage:
//   hydra generate --kind rand --n 10000 --len 256 --seed 1 --out d.hsf
//   hydra build    --method dstree --data d.hsf --out d.idx
//   hydra query    --method dstree --data d.hsf --index d.idx \
//                  --queries q.hsf --k 10 --mode de --epsilon 1 --delta 1
//   hydra query    --method hnsw --data d.hsf --queries q.hsf --k 10 \
//                  --mode ng --nprobe 64
//   hydra query    --method scan --data d.hsf --queries q.hsf --k 10 \
//                  --threads 8
//   hydra query    --method scan --data d.hsf --queries q.hsf --k 10 \
//                  --shards 4 --partition rr
//   hydra serve    --method dstree --data d.hsf --port 7700 \
//                  --concurrency 8
//   hydra remote-query --host 127.0.0.1 --port 7700 --queries q.hsf \
//                  --k 10 --deadline-ms 500
//   hydra remote-query --endpoints 127.0.0.1:7700,127.0.0.1:7701 \
//                  --queries q.hsf --k 10 --hedge-ms 5 --retries 2
//   hydra knobs    # the HYDRA_* environment-knob table, as markdown
//
// `query` prints one line per query (ids + distances) and a summary with
// throughput and, when --ground-truth is on, accuracy metrics. With
// --shards S > 1 the query is served by a scatter-gather ShardedIndex
// (--partition rr|range picks the id mapping; --shard-dir makes the
// shards disk-resident with per-shard files and pools). All builds are
// routed through the one Index factory (index/factory.h) — the CLI holds
// no per-method construction ladder.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "common/options.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "core/metrics.h"
#include "core/workload.h"
#include "index/dstree/dstree.h"
#include "index/factory.h"
#include "index/isax/isax_index.h"
#include "index/sharded/sharded_index.h"
#include "net/client.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"

namespace hydra::cli {
namespace {

using Flags = std::map<std::string, std::string>;

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    flags[key] = argv[i + 1];
  }
  return flags;
}

std::string Get(const Flags& flags, const std::string& key,
                const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

uint64_t GetU64(const Flags& flags, const std::string& key,
                uint64_t fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stoull(it->second);
}

double GetDouble(const Flags& flags, const std::string& key,
                 double fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stod(it->second);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int CmdGenerate(const Flags& flags) {
  std::string kind = Get(flags, "kind", "rand");
  size_t n = GetU64(flags, "n", 10000);
  size_t len = GetU64(flags, "len", 256);
  Rng rng(GetU64(flags, "seed", 1));
  std::string out = Get(flags, "out", "");
  if (out.empty()) return Fail("--out is required");

  Dataset data;
  if (kind == "rand") {
    data = MakeRandomWalk(n, len, rng);
  } else if (kind == "sift") {
    data = MakeSiftAnalog(n, len, rng);
  } else if (kind == "deep") {
    data = MakeDeepAnalog(n, len, rng);
  } else if (kind == "seismic") {
    data = MakeSeismicAnalog(n, len, rng);
  } else if (kind == "sald") {
    data = MakeSaldAnalog(n, len, rng);
  } else if (kind == "queries") {
    std::string base_path = Get(flags, "base", "");
    if (base_path.empty()) return Fail("--base is required for queries");
    auto reader = SeriesFileReader::Open(base_path);
    if (!reader.ok()) return Fail(reader.status().ToString());
    auto base = reader.value()->ReadAll(nullptr);
    if (!base.ok()) return Fail(base.status().ToString());
    data = MakeNoiseQueries(base.value(), n,
                            GetDouble(flags, "noise", 0.2), rng);
  } else {
    return Fail("unknown --kind: " + kind);
  }
  Status st = WriteSeriesFile(out, data);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("wrote %zu series of length %zu to %s\n", data.size(),
              data.length(), out.c_str());
  return 0;
}

// Flag spelling -> factory knobs. The CLI's historical per-method flag
// names (--leaf, --segments, --M, ...) keep working; the factory decides
// which knobs a method consumes, and an unset flag (0) keeps the method's
// own default. --leaf alone has a CLI default: 100 series per leaf, while
// M-tree nodes keep theirs.
BuildOptions BuildOptionsFromFlags(const std::string& method,
                                   const Flags& flags) {
  BuildOptions o;
  o.method = method;
  o.leaf_capacity = GetU64(flags, "leaf", method == "mtree" ? 0 : 100);
  o.segments = GetU64(flags, "segments", 0);
  o.num_features = GetU64(flags, "features", 0);
  o.hnsw_m = GetU64(flags, "M", 0);
  o.hnsw_ef_construction = GetU64(flags, "efc", 0);
  o.imi_coarse_k = GetU64(flags, "coarse-k", 0);
  o.srs_projections = GetU64(flags, "projections", 0);
  o.qalsh_hashes = GetU64(flags, "hashes", 0);
  return o;
}

Result<std::unique_ptr<Index>> MakeIndex(const std::string& method,
                                         const Dataset& data,
                                         SeriesProvider* provider,
                                         const Flags& flags) {
  // Sharded topology: S > 1 builds a scatter-gather fleet instead of one
  // index; --shard-dir makes the shards disk-resident (per-shard files
  // and pools sized by --page-series/--buffer-pages).
  const size_t shards = GetU64(flags, "shards", 1);
  if (shards > 1) {
    ShardedIndexOptions topo;
    topo.num_shards = shards;
    topo.scheme = Get(flags, "partition", "rr") == "range"
                      ? PartitionScheme::kRange
                      : PartitionScheme::kRoundRobin;
    topo.build = BuildOptionsFromFlags(method, flags);
    topo.storage_dir = Get(flags, "shard-dir", "");
    if (!topo.storage_dir.empty()) {
      std::filesystem::create_directories(topo.storage_dir);
      topo.build.page_series = GetU64(flags, "page-series", 0);
      topo.build.capacity_pages = GetU64(flags, "buffer-pages", 0);
    }
    HYDRA_ASSIGN_OR_RETURN(auto sharded, ShardedIndex::Build(data, topo));
    return std::unique_ptr<Index>(std::move(sharded));
  }

  // Saved-index reload is the one path the factory does not cover.
  std::string index_path = Get(flags, "index", "");
  if (!index_path.empty() && Get(flags, "cmd", "") == "query") {
    if (method == "dstree") {
      HYDRA_ASSIGN_OR_RETURN(auto loaded,
                             DSTreeIndex::Load(index_path, provider));
      return std::unique_ptr<Index>(std::move(loaded));
    }
    if (method == "isax") {
      HYDRA_ASSIGN_OR_RETURN(auto loaded,
                             IsaxIndex::Load(index_path, provider));
      return std::unique_ptr<Index>(std::move(loaded));
    }
  }
  return BuildIndex(data, provider, BuildOptionsFromFlags(method, flags));
}

// What `build`, `query` and `serve` answer from: the --data file read
// into memory, the provider raw series are read from (a buffer pool over
// the file when --buffer-pages is set), and the index over both.
struct Stack {
  Dataset data;
  std::unique_ptr<SeriesProvider> provider;
  std::unique_ptr<Index> index;
  double build_seconds = 0.0;  // build or load
};

Result<std::unique_ptr<Stack>> OpenStack(const std::string& method,
                                         const Flags& flags) {
  const std::string data_path = Get(flags, "data", "");
  auto stack = std::make_unique<Stack>();
  HYDRA_ASSIGN_OR_RETURN(auto reader, SeriesFileReader::Open(data_path));
  HYDRA_ASSIGN_OR_RETURN(stack->data, reader->ReadAll(nullptr));
  const uint64_t budget_pages = GetU64(flags, "buffer-pages", 0);
  if (budget_pages > 0) {
    HYDRA_ASSIGN_OR_RETURN(
        stack->provider,
        BufferManager::Open(data_path, GetU64(flags, "page-series", 64),
                            budget_pages));
  } else {
    stack->provider = std::make_unique<InMemoryProvider>(&stack->data);
  }
  Timer t;
  HYDRA_ASSIGN_OR_RETURN(
      stack->index,
      MakeIndex(method, stack->data, stack->provider.get(), flags));
  stack->build_seconds = t.ElapsedSeconds();
  return stack;
}

int CmdBuild(Flags flags) {
  flags["cmd"] = "build";
  std::string method = Get(flags, "method", "dstree");
  std::string out = Get(flags, "out", "");
  if (Get(flags, "data", "").empty()) return Fail("--data is required");

  auto stack = OpenStack(method, flags);
  if (!stack.ok()) return Fail(stack.status().ToString());
  const Stack& built = *stack.value();
  std::printf("built %s over %zu series in %.3fs (%.2f MB resident)\n",
              method.c_str(), built.data.size(), built.build_seconds,
              static_cast<double>(built.index->MemoryBytes()) /
                  (1024.0 * 1024.0));

  if (!out.empty()) {
    // A sharded fleet is neither, whatever its method.
    Status st = Status::Unimplemented(
        "persistence supported for unsharded dstree/isax");
    if (auto* dstree = dynamic_cast<const DSTreeIndex*>(built.index.get())) {
      st = dstree->Save(out);
    } else if (auto* isax = dynamic_cast<const IsaxIndex*>(built.index.get())) {
      st = isax->Save(out);
    }
    if (!st.ok()) return Fail(st.ToString());
    std::printf("saved index to %s\n", out.c_str());
  }
  return 0;
}

// --k/--threads/--mode/--nprobe/--efs/--epsilon/--delta/--deadline-ms →
// SearchParams, shared by the local and the remote query paths. Returns
// false on an unknown --mode.
bool SearchParamsFromFlags(const Flags& flags, SearchParams* params) {
  params->k = GetU64(flags, "k", 10);
  // Intra-query parallelism (src/exec/); answers are identical at any
  // value for exact search, so the knob is orthogonal to --mode.
  params->num_threads = GetU64(flags, "threads", 1);
  params->deadline_ms = GetDouble(flags, "deadline-ms", 0.0);
  std::string mode = Get(flags, "mode", "exact");
  if (mode == "exact") {
    params->mode = SearchMode::kExact;
  } else if (mode == "ng") {
    params->mode = SearchMode::kNgApproximate;
    params->nprobe = GetU64(flags, "nprobe", 10);
    params->efs = GetU64(flags, "efs", params->nprobe);
  } else if (mode == "de") {
    params->mode = SearchMode::kDeltaEpsilon;
    params->epsilon = GetDouble(flags, "epsilon", 0.0);
    params->delta = GetDouble(flags, "delta", 1.0);
  } else {
    return false;
  }
  return true;
}

int CmdQuery(Flags flags) {
  flags["cmd"] = "query";
  std::string queries_path = Get(flags, "queries", "");
  std::string method = Get(flags, "method", "dstree");
  if (Get(flags, "data", "").empty() || queries_path.empty()) {
    return Fail("--data and --queries are required");
  }

  auto query_reader = SeriesFileReader::Open(queries_path);
  if (!query_reader.ok()) return Fail(query_reader.status().ToString());
  auto queries = query_reader.value()->ReadAll(nullptr);
  if (!queries.ok()) return Fail(queries.status().ToString());
  auto stack = OpenStack(method, flags);
  if (!stack.ok()) return Fail(stack.status().ToString());
  const Dataset& data = stack.value()->data;
  const Index& index = *stack.value()->index;

  SearchParams params;
  if (!SearchParamsFromFlags(flags, &params)) {
    return Fail("unknown --mode (exact|ng|de): " + Get(flags, "mode", ""));
  }

  bool ground_truth = Get(flags, "ground-truth", "on") != "off";
  std::vector<KnnAnswer> truth;
  if (ground_truth) {
    truth = ExactKnnWorkload(data, queries.value(), params.k);
  }

  std::vector<KnnAnswer> answers;
  std::vector<double> seconds;
  QueryCounters total;
  for (size_t q = 0; q < queries.value().size(); ++q) {
    QueryCounters counters;
    Timer t;
    auto ans = index.Search(queries.value().series(q), params, &counters);
    seconds.push_back(t.ElapsedSeconds());
    total += counters;
    if (!ans.ok()) return Fail(ans.status().ToString());
    std::printf("query %zu:", q);
    for (size_t r = 0; r < ans.value().size(); ++r) {
      std::printf(" %lld(%.3f)",
                  static_cast<long long>(ans.value().ids[r]),
                  ans.value().distances[r]);
    }
    std::printf("\n");
    answers.push_back(std::move(ans).value());
  }

  WorkloadTiming timing = SummarizeWorkload(seconds);
  std::printf("\n%zu queries in %.3fs (%.1f queries/min)\n",
              queries.value().size(), timing.total_seconds,
              timing.throughput_per_min);
  std::printf("raw series accessed per query: %.1f; random I/O per query: "
              "%.1f\n",
              static_cast<double>(total.series_accessed) /
                  static_cast<double>(queries.value().size()),
              static_cast<double>(total.random_ios) /
                  static_cast<double>(queries.value().size()));
  if (ground_truth) {
    WorkloadAccuracy acc = AggregateAccuracy(truth, answers, params.k);
    std::printf("avg recall %.3f, MAP %.3f, MRE %.4f\n", acc.avg_recall,
                acc.map, acc.mre);
  }
  return 0;
}

// Builds the index exactly like `query` would, then serves it over the
// versioned wire protocol (src/net/) until stdin closes. Port 0 asks the
// kernel for an ephemeral port; the chosen one is printed either way, so
// scripts can scrape it.
int CmdServe(Flags flags) {
  flags["cmd"] = "query";  // reuse the saved-index reload path
  std::string method = Get(flags, "method", "dstree");
  if (Get(flags, "data", "").empty()) return Fail("--data is required");

  auto stack = OpenStack(method, flags);
  if (!stack.ok()) return Fail(stack.status().ToString());

  ServerOptions options;
  options.port = static_cast<uint16_t>(GetU64(flags, "port", 0));
  options.serving.concurrency = GetU64(flags, "concurrency", 4);
  options.serving.batch_window = GetU64(flags, "batch-window", 1);
  uint64_t queue = GetU64(flags, "queue", 0);
  if (queue > 0) options.serving.queue_capacity = queue;

  auto server = HydraServer::Start(*stack.value()->index,
                                   stack.value()->provider.get(), options);
  if (!server.ok()) return Fail(server.status().ToString());
  std::printf("serving %s over %zu series on 127.0.0.1:%u "
              "(concurrency %zu); close stdin to stop\n",
              method.c_str(), stack.value()->data.size(),
              server.value()->port(), options.serving.concurrency);
  std::fflush(stdout);
  while (std::getchar() != EOF) {
  }
  server.value()->Stop();
  std::printf("served %llu connections, rejected %llu malformed frames\n",
              static_cast<unsigned long long>(
                  server.value()->connections_accepted()),
              static_cast<unsigned long long>(
                  server.value()->frames_rejected()));
  return 0;
}

// Speaks to a running `hydra serve` over TCP: submits the workload
// through a HydraClient — the same ServingBackend surface the local
// serving session implements — and prints answers in submission order.
// With --endpoints host:port[,host:port...] the workload goes through a
// ReplicaSetBackend instead: one connection pool per endpoint, typed
// failures retried on another replica, and (with --hedge-ms) a hedged
// backup attempt against tail latency.
int CmdRemoteQuery(Flags flags) {
  std::string queries_path = Get(flags, "queries", "");
  if (queries_path.empty()) return Fail("--queries is required");
  const std::string endpoints_csv = Get(flags, "endpoints", "");

  auto query_reader = SeriesFileReader::Open(queries_path);
  if (!query_reader.ok()) return Fail(query_reader.status().ToString());
  auto queries = query_reader.value()->ReadAll(nullptr);
  if (!queries.ok()) return Fail(queries.status().ToString());

  SearchParams params;
  if (!SearchParamsFromFlags(flags, &params)) {
    return Fail("unknown --mode (exact|ng|de): " + Get(flags, "mode", ""));
  }

  std::unique_ptr<HydraClient> client;
  std::unique_ptr<ReplicaSetBackend> replica_set;
  ServingBackend* backend = nullptr;
  if (!endpoints_csv.empty()) {
    auto endpoints = ParseEndpoints(endpoints_csv);
    if (!endpoints.ok()) return Fail(endpoints.status().ToString());
    ReplicaSetOptions options;
    const double hedge_ms = GetDouble(flags, "hedge-ms", 0.0);
    if (hedge_ms > 0) {
      options.policy = ReplicaPolicy::kHedged;
      options.hedge_ms = hedge_ms;
    }
    const std::string policy = Get(flags, "policy", "");
    if (policy == "round-robin") options.policy = ReplicaPolicy::kRoundRobin;
    options.retry_budget = GetU64(flags, "retries", 0);
    auto connected =
        ReplicaSetBackend::Connect(std::move(endpoints).value(), options);
    if (!connected.ok()) return Fail(connected.status().ToString());
    replica_set = std::move(connected).value();
    if (!replica_set->WaitAnyHealthy(std::chrono::milliseconds(5000))) {
      return Fail("no replica reachable within 5s: " + endpoints_csv);
    }
    std::printf("replica set of %zu (%s policy): %s\n",
                replica_set->replicas(), ReplicaPolicyName(options.policy),
                endpoints_csv.c_str());
    backend = replica_set.get();
  } else {
    std::string host = Get(flags, "host", "127.0.0.1");
    uint16_t port = static_cast<uint16_t>(GetU64(flags, "port", 0));
    if (port == 0) return Fail("--port or --endpoints is required");
    auto connected = HydraClient::Connect(host, port);
    if (!connected.ok()) return Fail(connected.status().ToString());
    client = std::move(connected).value();
    std::printf("connected to %s:%u (protocol v%u)\n", host.c_str(), port,
                client->negotiated_version());
    backend = client.get();
  }

  Timer wall;
  for (size_t q = 0; q < queries.value().size(); ++q) {
    backend->Submit(queries.value().series(q), params);
  }
  backend->Finish();
  size_t q = 0;
  size_t failures = 0;
  while (std::optional<ServedQuery> served = backend->Next()) {
    if (served->answer.ok()) {
      const KnnAnswer& ans = served->answer.value();
      std::printf("query %zu:", q);
      for (size_t r = 0; r < ans.size(); ++r) {
        std::printf(" %lld(%.3f)", static_cast<long long>(ans.ids[r]),
                    ans.distances[r]);
      }
      std::printf("\n");
    } else {
      // Typed failure, canonical rendering: code name + message (+ the
      // structured I/O context when the server attached one).
      ++failures;
      std::printf("query %zu: FAILED %s\n", q,
                  served->answer.status().ToString().c_str());
    }
    ++q;
  }
  const double seconds = wall.ElapsedSeconds();
  std::printf("\n%zu queries in %.3fs (%.1f queries/min), %zu failed\n", q,
              seconds, seconds > 0.0 ? 60.0 * static_cast<double>(q) / seconds
                                     : 0.0,
              failures);
  if (replica_set != nullptr) {
    std::printf("replica routing: %llu retries, %llu failovers, %llu hedges\n",
                static_cast<unsigned long long>(replica_set->retries()),
                static_cast<unsigned long long>(replica_set->failovers()),
                static_cast<unsigned long long>(replica_set->hedges()));
  }
  return failures == 0 && q == queries.value().size() ? 0 : 1;
}

// Prints the generated HYDRA_* knob table (common/options.h): the one
// source of truth the README table is regenerated from.
int CmdKnobs() {
  std::fputs(KnobTableMarkdown().c_str(), stdout);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: hydra <generate|build|query|serve|remote-query|"
                 "knobs> [--flag value]...\n");
    return 1;
  }
  std::string cmd = argv[1];
  Flags flags = ParseFlags(argc, argv, 2);
  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "build") return CmdBuild(flags);
  if (cmd == "query") return CmdQuery(flags);
  if (cmd == "serve") return CmdServe(flags);
  if (cmd == "remote-query") return CmdRemoteQuery(flags);
  if (cmd == "knobs") return CmdKnobs();
  return Fail("unknown command: " + cmd);
}

}  // namespace
}  // namespace hydra::cli

int main(int argc, char** argv) { return hydra::cli::Main(argc, argv); }
