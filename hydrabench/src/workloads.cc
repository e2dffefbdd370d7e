#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/crc32.h"
#include "core/dataset.h"
#include "distance/simd_dispatch.h"
#include "exec/query_scheduler.h"
#include "index/factory.h"
#include "inputs.h"
#include "net/client.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "net/wire.h"
#include "stats.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"
#include "trace.h"

namespace hydrabench {
namespace {

enum class Kind { kExactMem, kNgDisk, kNgReplica };

// Queries in flight on the serving workloads. Two keep the numbers a
// measure of the program rather than of the scheduler of a small shared
// host: on a 4-vCPU KVM guest, four in flight over loopback swung
// between 3k and 26k q/s.
constexpr size_t kDepth = 2;
constexpr size_t kReplicas = 2;

constexpr size_t kLength = 256;  // points per series
constexpr size_t kNeighbors = 10;
constexpr size_t kPageSeries = 16;  // ng-disk: series per pool page
constexpr size_t kWarmQueries = 200;
// Untraced runs set up this many times; setup_s is the median.
constexpr size_t kSetups = 3;
// A measured phase is this many rounds; timings are their medians.
constexpr size_t kRounds = 3;
// Each round also runs until this many answers, so that its p99 has at
// least ten samples beyond it.
constexpr size_t kMinSamples = 1000;
// Spans a traced run keeps in memory; later ones are counted, not kept.
constexpr size_t kSpanCapacity = 500000;

// exact-mem distances must agree with the benchmark's double-precision
// reference to this relative error. The kernels accumulate in double
// (distance/simd_dispatch.h), so correct answers differ from the
// reference only in summation order, a few ULPs; a float accumulation
// or a wrong candidate is off by 1e-7 or more.
constexpr double kDistanceTolerance = 1e-12;

// Progress on stderr; stdout carries only the result lines.
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::fputs("hydrabench: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

template <typename T>
T Take(hydra::Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(result).value();
}

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

Kind ParseKind(const std::string& name) {
  if (name == "exact-mem") return Kind::kExactMem;
  if (name == "ng-disk") return Kind::kNgDisk;
  if (name == "ng-replica") return Kind::kNgReplica;
  throw std::invalid_argument("unknown workload: " + name);
}

// ng-disk's buffer pool: 1/16 of the file's pages, rounded up to a
// multiple of 16 pages (400 of the 6,250 pages of 100,000 series).
size_t PoolPages(size_t series) {
  const size_t pages = (series + kPageSeries - 1) / kPageSeries;
  return ((pages + 15) / 16 + 15) / 16 * 16;
}

hydra::SearchParams ParamsFor(Kind kind) {
  hydra::SearchParams params;
  params.k = kNeighbors;
  if (kind != Kind::kExactMem) {
    params.mode = hydra::SearchMode::kNgApproximate;
    params.nprobe = kind == Kind::kNgDisk ? 4 : 1;
  }
  return params;
}

struct Inputs {
  hydra::Dataset collection;  // the benchmark's own copy
  std::vector<float> queries;
  std::vector<Neighbors> reference;

  size_t num_queries() const { return queries.size() / kLength; }
  std::span<const float> query(size_t q) const {
    return {queries.data() + q * kLength, kLength};
  }
};

// What one set-up assembles, in the order Index::Open assembles it:
// series file -> verified read -> provider -> BuildIndex (-> servers).
// Members are destroyed in reverse order, servers first.
struct Stack {
  std::unique_ptr<hydra::Dataset> data;
  std::unique_ptr<hydra::InMemoryProvider> memory;
  std::unique_ptr<hydra::BufferManager> pool;
  std::unique_ptr<TracingProvider> traced_provider;
  hydra::SeriesProvider* provider = nullptr;  // what the index reads
  std::unique_ptr<hydra::Index> index;
  std::unique_ptr<TracingIndex> traced_index;
  const hydra::Index* serving = nullptr;  // what callers query
  std::vector<std::unique_ptr<hydra::HydraServer>> servers;
  std::unique_ptr<hydra::ReplicaSetBackend> replicas;
};

struct SetupTimes {
  double write_s = 0.0;
  double load_s = 0.0;
  double build_s = 0.0;
  double total_s = 0.0;
};

// One set-up. With a tracer, the provider decorator goes between the
// provider (step 3) and BuildIndex (step 4), and the index decorator
// over the built index; nothing else changes.
std::unique_ptr<Stack> Setup(Kind kind, const Config& config,
                             const Inputs& in, const std::string& path,
                             Tracer* tracer, const QueryLookup* lookup,
                             SetupTimes* times) {
  auto stack = std::make_unique<Stack>();
  const uint32_t root = tracer != nullptr ? tracer->NewId() : 0;
  auto record = [&](SpanKind span_kind, uint64_t start, uint64_t end) {
    if (tracer == nullptr) return;
    Span span;
    span.kind = span_kind;
    span.start_ns = start;
    span.end_ns = end;
    span.id = span_kind == SpanKind::kSetup ? root : 0;
    span.parent = span_kind == SpanKind::kSetup ? 0 : root;
    span.query = kNoQuery;
    tracer->Record(span);
  };

  const uint64_t t_write = NowNs();
  const hydra::Status written = hydra::WriteSeriesFile(path, in.collection);
  if (!written.ok()) Fail("WriteSeriesFile: " + written.ToString());
  const uint64_t t_load = NowNs();
  {
    auto reader = Take(hydra::SeriesFileReader::Open(path),
                       "SeriesFileReader::Open");
    stack->data = std::make_unique<hydra::Dataset>(
        Take(reader->ReadAll(nullptr), "SeriesFileReader::ReadAll"));
  }
  const uint64_t t_provider = NowNs();
  if (kind == Kind::kNgDisk) {
    stack->pool = Take(hydra::BufferManager::Open(path, kPageSeries,
                                                  PoolPages(config.series)),
                       "BufferManager::Open");
    stack->provider = stack->pool.get();
  } else {
    stack->memory = std::make_unique<hydra::InMemoryProvider>(
        stack->data.get());
    stack->provider = stack->memory.get();
  }
  if (tracer != nullptr) {
    stack->traced_provider =
        std::make_unique<TracingProvider>(stack->provider, tracer);
    stack->provider = stack->traced_provider.get();
  }
  const uint64_t t_build = NowNs();
  hydra::BuildOptions options;
  options.method = "dstree";
  stack->index = Take(hydra::BuildIndex(*stack->data, stack->provider,
                                        options),
                      "BuildIndex");
  const uint64_t t_built = NowNs();
  stack->serving = stack->index.get();
  if (tracer != nullptr) {
    stack->traced_index =
        std::make_unique<TracingIndex>(stack->index.get(), tracer, lookup);
    stack->serving = stack->traced_index.get();
  }
  uint64_t t_done = t_built;
  if (kind == Kind::kNgReplica) {
    std::vector<hydra::Endpoint> endpoints;
    for (size_t r = 0; r < kReplicas; ++r) {
      hydra::ServerOptions server_options;
      server_options.serving.concurrency = kDepth;
      stack->servers.push_back(Take(
          hydra::HydraServer::Start(*stack->serving, stack->provider,
                                    server_options),
          "HydraServer::Start"));
      endpoints.push_back({"127.0.0.1", stack->servers.back()->port()});
    }
    hydra::ReplicaSetOptions replica_options;
    replica_options.policy = hydra::ReplicaPolicy::kRoundRobin;
    stack->replicas = Take(
        hydra::ReplicaSetBackend::Connect(endpoints, replica_options),
        "ReplicaSetBackend::Connect");
    for (size_t r = 0; r < kReplicas; ++r) {
      if (!stack->replicas->WaitHealthy(r, std::chrono::seconds(10))) {
        Fail("replica " + std::to_string(r) + " did not become healthy");
      }
    }
    t_done = NowNs();
    record(SpanKind::kServe, t_built, t_done);
  }
  record(SpanKind::kWrite, t_write, t_load);
  record(SpanKind::kLoad, t_load, t_provider);
  record(SpanKind::kBuild, t_build, t_built);
  record(SpanKind::kSetup, t_write, t_done);
  times->write_s = Seconds(t_write, t_load);
  times->load_s = Seconds(t_load, t_provider);
  times->build_s = Seconds(t_build, t_built);
  times->total_s = Seconds(t_write, t_done);
  return stack;
}

std::string Describe(const std::vector<int64_t>& ids,
                     const std::vector<double>& distances, size_t rank) {
  if (rank >= ids.size() || rank >= distances.size()) return "nothing";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "id %lld at %.17g",
                static_cast<long long>(ids[rank]), distances[rank]);
  return buf;
}

// Empty when `got` is a correct exact k-NN answer: the reference's
// distances rank by rank, and ids that are the reference's ids or
// genuine ties with them.
std::string CheckExact(const Inputs& in, size_t q,
                       const hydra::KnnAnswer& got) {
  const Neighbors& want = in.reference[q];
  if (got.size() != want.ids.size() ||
      got.distances.size() != got.ids.size()) {
    return "returned " + std::to_string(got.size()) + " neighbours, want " +
           std::to_string(want.ids.size());
  }
  auto close = [](double a, double b) {
    return std::fabs(a - b) <= kDistanceTolerance * std::max(1.0, b);
  };
  for (size_t r = 0; r < got.size(); ++r) {
    const int64_t id = got.ids[r];
    bool ok = close(got.distances[r], want.distances[r]);
    if (ok && id != want.ids[r]) {
      ok = id >= 0 && static_cast<size_t>(id) < in.collection.size() &&
           std::count(got.ids.begin(), got.ids.end(), id) == 1 &&
           close(std::sqrt(ReferenceSquaredDistance(
                     in.query(q).data(),
                     in.collection.series(static_cast<size_t>(id)).data(),
                     kLength)),
                 want.distances[r]);
    }
    if (!ok) {
      return "rank " + std::to_string(r) + " is " +
             Describe(got.ids, got.distances, r) + ", reference has " +
             Describe(want.ids, want.distances, r);
    }
  }
  return "";
}

// Empty when `got` is bit-identical to `want`.
std::string CheckSame(const hydra::KnnAnswer& want,
                      const hydra::KnnAnswer& got) {
  if (want.ids == got.ids && want.distances.size() == got.distances.size() &&
      std::memcmp(want.distances.data(), got.distances.data(),
                  want.distances.size() * sizeof(double)) == 0) {
    return "";
  }
  size_t r = 0;
  while (r < want.size() && r < got.size() && want.ids[r] == got.ids[r] &&
         std::memcmp(&want.distances[r], &got.distances[r],
                     sizeof(double)) == 0) {
    ++r;
  }
  return "rank " + std::to_string(r) + " is " +
         Describe(got.ids, got.distances, r) + ", serial Search gave " +
         Describe(want.ids, want.distances, r);
}

// A phase ends after `queries` attempts when that is set. A measured
// phase instead runs `rounds` consecutive rounds, each lasting at least
// seconds / rounds and holding at least `min_samples` answers (so that
// its p99 has ten samples beyond it). Timings are medians over the
// rounds: a stretch of noise from the host's other tenants that spoils
// one round does not move them. A hard cap ends a phase that cannot
// finish its rounds.
struct PhaseSpec {
  size_t queries = 0;
  double seconds = 0.0;
  size_t rounds = 0;
  size_t min_samples = 0;
};

struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // typed failures and refused submissions
  uint64_t answered = 0;
  std::vector<double> latency_ms;  // one per answered query, in order
  std::vector<size_t> round_end;   // latency_ms index after each round
  std::vector<double> round_s;     // length of each round
  std::vector<double> served_ms;   // ServedQuery::seconds, serving only
  hydra::QueryCounters counters;  // summed over answered queries
  std::string mismatch;           // set: the run stops, incorrect

  size_t RoundBegin(size_t r) const { return r == 0 ? 0 : round_end[r - 1]; }
  std::vector<double> RoundLatencies(size_t r) const {
    return {latency_ms.begin() + RoundBegin(r),
            latency_ms.begin() + round_end[r]};
  }
  double RoundQps(size_t r) const {
    return static_cast<double>(round_end[r] - RoundBegin(r)) / round_s[r];
  }

  // Answers per second, the median over the rounds.
  double qps() const {
    std::vector<double> rates;
    for (size_t r = 0; r < round_end.size(); ++r) rates.push_back(RoundQps(r));
    return Median(rates);
  }

  // The median over the rounds of each round's latency percentile.
  std::optional<double> LatencyPercentile(double p) const {
    std::vector<double> per_round;
    for (size_t r = 0; r < round_end.size(); ++r) {
      std::vector<double> round = RoundLatencies(r);
      const std::optional<double> value = Percentile(round, p);
      if (!value.has_value()) return std::nullopt;
      per_round.push_back(*value);
    }
    if (per_round.empty()) return std::nullopt;
    return Median(per_round);
  }
};

// One stderr line per round, so a reader can tell a slow run from a
// slow stretch of one.
void LogPhase(const char* name, const Phase& phase) {
  for (size_t r = 0; r < phase.round_end.size(); ++r) {
    std::vector<double> round = phase.RoundLatencies(r);
    Log("%s round %zu: %zu answers in %.2f s, %.1f q/s, p50 %.4f ms, "
        "p99 %.4f ms",
        name, r + 1, round.size(), phase.round_s[r], phase.RoundQps(r),
        Percentile(round, 0.50).value_or(0.0),
        Percentile(round, 0.99).value_or(0.0));
  }
}

class PhaseClock {
 public:
  explicit PhaseClock(const PhaseSpec& spec)
      : spec_(spec), start_(NowNs()), round_start_(start_) {}

  // Closes the current round once it is both long and full enough.
  void OnAnswer(uint64_t now, Phase* phase) {
    if (spec_.rounds == 0) return;
    const size_t begin =
        phase->round_end.empty() ? 0 : phase->round_end.back();
    const double round_s = Seconds(round_start_, now);
    if (round_s >= spec_.seconds / static_cast<double>(spec_.rounds) &&
        phase->latency_ms.size() - begin >= spec_.min_samples) {
      phase->round_end.push_back(phase->latency_ms.size());
      phase->round_s.push_back(round_s);
      round_start_ = now;
    }
  }

  bool Done(const Phase& phase) const {
    if (!phase.mismatch.empty()) return true;
    if (spec_.queries > 0) return phase.attempted >= spec_.queries;
    return phase.round_end.size() >= spec_.rounds ||
           Elapsed() >= 4.0 * spec_.seconds + 20.0;
  }
  double Elapsed() const { return Seconds(start_, NowNs()); }

 private:
  PhaseSpec spec_;
  uint64_t start_;
  uint64_t round_start_;
};

// The answer every answer to a query is held to, bit for bit: on the ng
// workloads the serial Index::Search answer, set before any phase; on
// exact-mem the query's first answer, which must match the reference.
// Used from the caller's thread only.
class Expect {
 public:
  Expect(const std::string& workload, const Inputs& in)
      : workload_(workload),
        in_(in),
        answers_(in.num_queries()),
        recall_(in.num_queries(), 0.0),
        known_(in.num_queries(), false) {}

  const Inputs& in() const { return in_; }
  const std::string& workload() const { return workload_; }

  void Set(size_t q, hydra::KnnAnswer answer) {
    recall_[q] = RecallAt(in_.reference[q].ids, answer.ids, kNeighbors);
    answers_[q] = std::move(answer);
    known_[q] = true;
  }
  const hydra::KnnAnswer& answer(size_t q) const { return answers_[q]; }

  // Mean recall@10 over the queries with a known answer; every answer to
  // a query repeats it, so each query counts once.
  double MeanRecall() const {
    double sum = 0.0;
    size_t known = 0;
    for (size_t q = 0; q < known_.size(); ++q) {
      if (!known_[q]) continue;
      sum += recall_[q];
      ++known;
    }
    return known > 0 ? sum / static_cast<double>(known) : 0.0;
  }

  // Empty when `got` passes; otherwise names the workload, the query and
  // the first differing rank.
  std::string Check(size_t q, const hydra::KnnAnswer& got) {
    std::string diff;
    if (known_[q]) {
      diff = CheckSame(answers_[q], got);
    } else {
      diff = CheckExact(in_, q, got);
      if (diff.empty()) Set(q, got);
    }
    return diff.empty() ? diff
                        : workload_ + ": query " + std::to_string(q) + ": " +
                              diff;
  }

 private:
  const std::string& workload_;
  const Inputs& in_;
  std::vector<hydra::KnnAnswer> answers_;
  std::vector<double> recall_;
  std::vector<bool> known_;
};

void Account(Expect* expect, size_t q,
             const hydra::Result<hydra::KnnAnswer>& answer,
             const hydra::QueryCounters& counters, uint64_t sent_ns,
             uint64_t done_ns, Phase* phase) {
  if (!answer.ok()) {
    ++phase->failed;
    return;
  }
  phase->mismatch = expect->Check(q, answer.value());
  if (!phase->mismatch.empty()) return;
  ++phase->answered;
  phase->latency_ms.push_back(Seconds(sent_ns, done_ns) * 1e3);
  phase->counters += counters;
}

// exact-mem: one caller, each query a direct Index::Search.
Phase RunDirect(const hydra::Index& index, const hydra::SearchParams& params,
                Expect* expect, const PhaseSpec& spec) {
  Phase phase;
  PhaseClock clock(spec);
  const size_t nq = expect->in().num_queries();
  size_t cursor = 0;
  while (!clock.Done(phase)) {
    const size_t q = cursor++ % nq;
    hydra::QueryCounters counters;
    const uint64_t t0 = NowNs();
    hydra::Result<hydra::KnnAnswer> answer =
        index.Search(expect->in().query(q), params, &counters);
    const uint64_t t1 = NowNs();
    ++phase.attempted;
    Account(expect, q, answer, counters, t0, t1, &phase);
    clock.OnAnswer(t1, &phase);
  }
  return phase;
}

// ng-disk and ng-replica: a closed loop keeping `depth` queries
// outstanding, submitted to `backends` in turn and taken back in
// submission order; latency runs from Submit to the answer leaving
// Next(), as the caller sees it.
Phase RunServing(const std::vector<hydra::ServingBackend*>& backends,
                 size_t depth, const hydra::SearchParams& params,
                 Expect* expect, const PhaseSpec& spec, Tracer* tracer) {
  struct Pending {
    size_t query;
    hydra::ServingBackend* backend;
    uint64_t ticket;
    uint64_t submitted_ns;
    uint32_t span;
  };
  Phase phase;
  PhaseClock clock(spec);
  const size_t nq = expect->in().num_queries();
  size_t cursor = 0;
  std::deque<Pending> pending;
  auto submit = [&] {
    const size_t q = cursor % nq;
    Pending p{q, backends[cursor % backends.size()], 0, 0, 0};
    ++cursor;
    if (tracer != nullptr) {
      p.span = tracer->NewId();
      tracer->SetRequest(static_cast<uint32_t>(q), p.span);
    }
    p.submitted_ns = NowNs();
    hydra::QueryTicket ticket =
        p.backend->Submit(expect->in().query(q), params);
    ++phase.attempted;
    if (!ticket.valid()) {
      ++phase.failed;
      return false;
    }
    p.ticket = ticket.id();
    pending.push_back(p);
    return true;
  };
  while (pending.size() < depth && !clock.Done(phase) && submit()) {
  }
  while (!pending.empty()) {
    std::optional<hydra::ServedQuery> served = pending.front().backend->Next();
    const uint64_t now = NowNs();
    if (!served.has_value()) {
      // The stream closed under us: every outstanding query is lost.
      phase.failed += pending.size();
      pending.clear();
      break;
    }
    const Pending p = pending.front();
    pending.pop_front();
    if (served->ticket.id() != p.ticket) {
      phase.mismatch = expect->workload() + ": answer for ticket " +
                       std::to_string(served->ticket.id()) +
                       " arrived in place of ticket " +
                       std::to_string(p.ticket);
      break;
    }
    if (tracer != nullptr) {
      Span span;
      span.kind = SpanKind::kRequest;
      span.start_ns = p.submitted_ns;
      span.end_ns = now;
      span.id = p.span;
      span.query = static_cast<uint32_t>(p.query);
      tracer->Record(span);
    }
    if (served->answer.ok()) phase.served_ms.push_back(served->seconds * 1e3);
    Account(expect, p.query, served->answer, served->counters,
            p.submitted_ns, now, &phase);
    if (!phase.mismatch.empty()) break;
    clock.OnAnswer(now, &phase);
    while (pending.size() < depth && !clock.Done(phase) && submit()) {
    }
  }
  // Drain whatever a stopped phase left in flight so the backends idle.
  for (const Pending& p : pending) p.backend->Next();
  return phase;
}

// Serial Index::Search of every query, one at a time on the calling
// thread: on the ng workloads, the answers every served answer must
// repeat bit for bit. A traced run's serial pass must instead repeat the
// untraced one (`repeat`); the first difference is returned.
std::string SerialPass(const hydra::Index& index,
                       const hydra::SearchParams& params, bool repeat,
                       Expect* expect) {
  const Inputs& in = expect->in();
  for (size_t q = 0; q < in.num_queries(); ++q) {
    hydra::Result<hydra::KnnAnswer> answer =
        index.Search(in.query(q), params, nullptr);
    if (!answer.ok()) {
      Fail(expect->workload() + ": serial Search of query " +
           std::to_string(q) + " failed: " + answer.status().ToString());
    }
    if (!repeat) {
      expect->Set(q, std::move(answer).value());
      continue;
    }
    const std::string diff = expect->Check(q, answer.value());
    if (!diff.empty()) return diff;
  }
  return "";
}

// Warms caches, connections and pool threads with up to kWarmQueries
// checked queries, then measures one phase of `rounds` rounds.
Phase WarmAndMeasure(Kind kind, Stack& stack, const hydra::SearchParams& params,
                     Expect* expect, double seconds, size_t rounds,
                     Tracer* tracer) {
  PhaseSpec warm;
  warm.queries = std::min(kWarmQueries, expect->in().num_queries());
  PhaseSpec measure;
  measure.seconds = seconds;
  measure.rounds = rounds;
  measure.min_samples = kMinSamples;
  auto run = [&](const PhaseSpec& spec) {
    if (kind == Kind::kExactMem) {
      return RunDirect(*stack.serving, params, expect, spec);
    }
    if (kind == Kind::kNgReplica) {
      return RunServing({stack.replicas.get()}, kDepth, params, expect, spec,
                        tracer);
    }
    hydra::ServingOptions options;
    options.concurrency = kDepth;
    hydra::ServingSession session(*stack.serving, stack.provider, options);
    Phase phase =
        RunServing({&session}, kDepth, params, expect, spec, tracer);
    session.Finish();
    return phase;
  };
  Phase warmed = run(warm);
  if (!warmed.mismatch.empty()) return warmed;
  if (tracer != nullptr) tracer->ResetAggregates();
  Phase measured = run(measure);
  measured.attempted += warmed.attempted;
  measured.failed += warmed.failed;
  return measured;
}

// Binds the calling thread, and so every thread the program starts from
// it later, to the highest-numbered CPU this process may use. Thread
// hand-offs then cost a context switch instead of a cross-CPU wake-up,
// whose latency on a shared virtual machine follows the host's load: on
// a 4-vCPU KVM guest, unpinned ng-replica swung between 5.7k and 14.7k
// q/s from one second to the next, and unpinned ng-disk's p99 between
// 14 and 25 ms from one run to the next; on one CPU ng-replica held
// 11.0k-12.7k q/s and ng-disk's p99 stayed within 1.4-1.5x its p50.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    Fail(std::string("sched_getaffinity: ") + std::strerror(errno));
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      Fail(std::string("sched_setaffinity: ") + std::strerror(errno));
    }
    return cpu;
  }
  Fail("no CPU to run on");
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Resets VmHWM to the current RSS, so the peak measures set-up and
// serving rather than input preparation.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5\n";
}

std::optional<double> PercentileOf(std::vector<double> samples, double p) {
  return Percentile(samples, p);
}

double Require(std::optional<double> value, const std::string& what) {
  if (!value.has_value()) {
    Fail(what + ": too few samples beyond the percentile");
  }
  return *value;
}

// Median over `reps` timings of `body`, each repeated until it has run
// for at least `min_s`; returns seconds per call of `body`.
template <typename Body>
double TimePerCall(Body&& body, int reps = 5, double min_s = 0.05) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    uint64_t calls = 0;
    const uint64_t start = NowNs();
    uint64_t now = start;
    do {
      body();
      ++calls;
      now = NowNs();
    } while (Seconds(start, now) < min_s);
    per_call.push_back(Seconds(start, now) / static_cast<double>(calls));
  }
  return Median(per_call);
}

volatile uint32_t crc_sink = 0;

// Layer microbenchmarks of the traced run: each calls one public
// function of one layer on this workload's own data.
void MeasureLayers(const Config& config, const Inputs& in,
                   const std::string& path, const hydra::SearchParams& params,
                   const Expect& expect, std::vector<Metric>* metrics) {
  // distance: the dispatched batch kernel over contiguous candidates,
  // threshold +inf so nothing abandons.
  {
    const size_t count = std::min<size_t>(1024, in.collection.size());
    std::vector<double> out(count);
    const hydra::DistanceKernels& kernels = hydra::ActiveKernels();
    double sink = 0.0;
    const double per_call = TimePerCall([&] {
      kernels.squared_euclidean_batch(
          in.query(0).data(), kLength, in.collection.data(), count, kLength,
          std::numeric_limits<double>::infinity(), out.data());
      sink += out[count - 1];
    });
    if (!(sink > 0.0)) Fail("distance kernel returned no distance");
    metrics->push_back({"distance.ns_per_series",
                        per_call * 1e9 / static_cast<double>(count), "ns"});
  }
  // storage: one page read (seek + read + CRC verification), and the
  // CRC alone over one page of bytes.
  {
    auto reader = Take(hydra::SeriesFileReader::Open(path),
                       "SeriesFileReader::Open");
    const uint64_t pages =
        std::max<uint64_t>(1, reader->num_series() / kPageSeries);
    std::vector<float> page(kPageSeries * kLength);
    Rng rng(config.seed, 3);
    const double read_s = TimePerCall([&] {
      const uint64_t first = (rng.Next() % pages) * kPageSeries;
      const hydra::Status st =
          reader->ReadSeries(first, kPageSeries, page.data(), nullptr);
      if (!st.ok()) Fail("ReadSeries: " + st.ToString());
    });
    metrics->push_back({"storage.read_page_us", read_s * 1e6, "us"});
    // Each call extends the previous checksum, so the last value depends
    // on every call and none can be optimised away.
    uint32_t crc = 0;
    const size_t bytes = page.size() * sizeof(float);
    const double crc_s = TimePerCall(
        [&] { crc = hydra::Crc32c(page.data(), bytes, crc); });
    crc_sink = crc;
    metrics->push_back({"storage.crc_ns_per_byte",
                        crc_s * 1e9 / static_cast<double>(bytes), "ns/B"});
  }
  // net: the four codec calls one query costs, on this workload's own
  // queries and answers.
  {
    const size_t nq = in.num_queries();
    std::vector<hydra::SubmitFrame> submits(nq);
    std::vector<hydra::ResultFrame> results(nq);
    for (size_t q = 0; q < nq; ++q) {
      submits[q].request_id = results[q].request_id = q + 1;
      submits[q].params = params;
      submits[q].query.assign(in.query(q).begin(), in.query(q).end());
      results[q].answer = expect.answer(q);
    }
    std::string submit_frame;
    std::string result_frame;
    auto payload = [](const std::string& frame) {
      return std::span<const char>(frame).subspan(hydra::kFrameHeaderBytes);
    };
    auto round_trip = [&](size_t q) {
      submit_frame.clear();
      hydra::EncodeSubmit(submits[q], &submit_frame);
      hydra::SubmitFrame submit_back;
      hydra::Status st = hydra::DecodeSubmit(payload(submit_frame),
                                             &submit_back);
      result_frame.clear();
      hydra::EncodeResult(results[q], &result_frame);
      hydra::ResultFrame result_back;
      if (st.ok()) {
        st = hydra::DecodeResult(payload(result_frame), &result_back);
      }
      if (!st.ok()) Fail("wire codec: " + st.ToString());
    };
    double frame_bytes = 0.0;
    for (size_t q = 0; q < nq; ++q) {
      round_trip(q);
      frame_bytes +=
          static_cast<double>(submit_frame.size() + result_frame.size());
    }
    metrics->push_back({"net.bytes_per_query",
                        frame_bytes / static_cast<double>(nq), "bytes"});
    size_t cursor = 0;
    const double codec_s = TimePerCall([&] { round_trip(cursor++ % nq); });
    metrics->push_back({"net.codec_us_per_query", codec_s * 1e6, "us"});
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"exact-mem", "ng-disk",
                                                  "ng-replica"};
  return kNames;
}

RunResult RunWorkload(const Config& config) {
  const Kind kind = ParseKind(config.workload);
  if (config.series < kNeighbors) {
    throw std::invalid_argument("need at least " +
                                std::to_string(kNeighbors) + " series");
  }
  // Recall@10 varies from query to query, so a seed's mean recall is
  // steady only over thousands of queries: over ten seeds its spread
  // (IQR / median) was 0.085-0.095 with 200 queries, 0.031-0.081 with
  // 1,000 and 0.011-0.019 with 4,000. exact-mem and ng-replica draw
  // 4,000. ng-disk draws 2,000, because each query it serves first
  // needs a serial Search over a cold pool, about 10 ms.
  const size_t queries = config.queries != 0     ? config.queries
                         : kind == Kind::kNgDisk ? 2000
                                                 : 4000;
  const hydra::SearchParams params = ParamsFor(kind);
  std::filesystem::create_directories(config.work_dir);
  const std::string path = config.work_dir + "/" + config.workload + ".hsf";

  const uint64_t t_inputs = NowNs();
  Inputs in;
  in.queries = RandomWalks(queries, kLength, config.seed, 2);
  {
    std::vector<float> values =
        RandomWalks(config.series, kLength, config.seed, 1);
    in.reference = CachedReferenceKnn(values, in.queries, kLength,
                                      kNeighbors, config.seed,
                                      config.work_dir + "/reference");
    in.collection = Take(hydra::Dataset::FromValues(
                             config.series, kLength, std::move(values)),
                         "Dataset::FromValues");
  }
  ResetPeakRss();
  // The serving workloads hand each query across threads; exact-mem runs
  // on one thread and was steadier left to the scheduler.
  if (kind != Kind::kExactMem) Log("pinned to CPU %d", PinToOneCpu());
  Log("%s seed %llu: inputs and reference in %.2f s", config.workload.c_str(),
      static_cast<unsigned long long>(config.seed),
      Seconds(t_inputs, NowNs()));

  RunResult result;
  auto incorrect = [&](const std::string& why) {
    result.correct = false;
    result.failure = why;
    result.metrics.clear();
    return result;
  };

  // Set up kSetups times (once when traced) and keep the last stack.
  std::vector<double> setup_s;
  SetupTimes times;
  std::unique_ptr<Stack> stack;
  const size_t setups = config.trace ? 1 : kSetups;
  for (size_t i = 0; i < setups; ++i) {
    stack.reset();
    stack = Setup(kind, config, in, path, nullptr, nullptr, &times);
    setup_s.push_back(times.total_s);
    Log("set-up %zu: %.3f s (write %.3f, load %.3f, build %.3f)", i + 1,
        times.total_s, times.write_s, times.load_s, times.build_s);
  }

  Expect expect(config.workload, in);
  // exact-mem holds each query to its first answer, checked against the
  // reference as it arrives; the ng workloads to a serial Search.
  if (kind != Kind::kExactMem) {
    SerialPass(*stack->index, params, /*repeat=*/false, &expect);
  }

  // A traced run measures one round per phase: its untraced phase is
  // only the baseline of trace.overhead.
  const size_t rounds = config.trace ? 1 : kRounds;
  Phase plain = WarmAndMeasure(kind, *stack, params, &expect, config.seconds,
                               rounds, nullptr);
  result.attempted = plain.attempted;
  result.failed = plain.failed;
  LogPhase("measured", plain);
  if (!plain.mismatch.empty()) return incorrect(plain.mismatch);

  if (!config.trace) {
    result.metrics = {
        {"qps", plain.qps(), "1/s"},
        {"p50_ms", Require(plain.LatencyPercentile(0.50), "p50_ms"), "ms"},
        {"p99_ms", Require(plain.LatencyPercentile(0.99), "p99_ms"), "ms"},
        {"recall", expect.MeanRecall(), "fraction"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"ok_rate",
         plain.attempted > 0
             ? static_cast<double>(plain.attempted - plain.failed) /
                   static_cast<double>(plain.attempted)
             : 0.0,
         "fraction"},
    };
    stack.reset();
    std::filesystem::remove(path);
    return result;
  }

  // Traced run: the same set-up with both decorators, the same phases,
  // the same answers required.
  stack.reset();
  QueryLookup lookup(in.queries, kLength);
  Tracer tracer(kSpanCapacity, in.num_queries());
  stack = Setup(kind, config, in, path, &tracer, &lookup, &times);
  if (kind != Kind::kExactMem) {
    const std::string diff =
        SerialPass(*stack->serving, params, /*repeat=*/true, &expect);
    if (!diff.empty()) return incorrect("traced serial pass: " + diff);
  }
  Phase traced = WarmAndMeasure(kind, *stack, params, &expect,
                                config.seconds, rounds, &tracer);
  result.attempted += traced.attempted;
  result.failed += traced.failed;
  LogPhase("traced", traced);
  if (!traced.mismatch.empty()) return incorrect(traced.mismatch);
  const std::vector<SearchRecord> searches = tracer.searches();
  const LogHistogram fetches = tracer.fetch_histogram();

  // What the replica set's caller cannot see: it reports its own
  // latency in ServedQuery::seconds, replacing the server-side seconds
  // of the result frame. So one HydraClient per replica, submitted to in
  // turn with one query in flight on each -- the traced phase's load on
  // every server, on the same CPU -- reads the server-side seconds and
  // the Search spans behind them.
  double server_ms = 0.0;
  double probe_search_ms = 0.0;
  if (kind == Kind::kNgReplica) {
    std::vector<std::unique_ptr<hydra::HydraClient>> clients;
    std::vector<hydra::ServingBackend*> backends;
    for (const auto& server : stack->servers) {
      clients.push_back(Take(
          hydra::HydraClient::Connect("127.0.0.1", server->port()),
          "HydraClient::Connect"));
      backends.push_back(clients.back().get());
    }
    PhaseSpec probe_spec;
    probe_spec.seconds = std::max(0.5, config.seconds / 4.0);
    probe_spec.rounds = 1;
    probe_spec.min_samples = kMinSamples;
    Phase probe = RunServing(backends, backends.size(), params, &expect,
                             probe_spec, &tracer);
    for (const auto& client : clients) client->Finish();
    Log("probe: %zu answers, client latency %.4f ms, server-side %.4f ms",
        probe.latency_ms.size(), Mean(probe.latency_ms),
        Mean(probe.served_ms));
    result.attempted += probe.attempted;
    result.failed += probe.failed;
    if (!probe.mismatch.empty()) return incorrect(probe.mismatch);
    server_ms = Mean(probe.served_ms);
    const std::vector<SearchRecord> all = tracer.searches();
    std::vector<double> probe_searches;
    for (size_t i = searches.size(); i < all.size(); ++i) {
      probe_searches.push_back(static_cast<double>(all[i].ns) * 1e-6);
    }
    probe_search_ms = Mean(probe_searches);
  }

  const double n = std::max<double>(1.0, static_cast<double>(traced.answered));
  const hydra::QueryCounters& c = traced.counters;
  const double evals =
      static_cast<double>(c.full_distances + c.abandoned_distances);
  std::vector<double> search_ms;
  double search_ns = 0.0;
  double fetch_ns = 0.0;
  double self_ms = 0.0;
  double fetch_count = 0.0;
  for (const SearchRecord& s : searches) {
    search_ms.push_back(static_cast<double>(s.ns) * 1e-6);
    search_ns += static_cast<double>(s.ns);
    fetch_ns += static_cast<double>(s.fetch_ns);
    fetch_count += static_cast<double>(s.fetches);
    self_ms += static_cast<double>(s.ns - std::min(s.ns, s.fetch_ns)) * 1e-6;
  }
  const double searches_n =
      std::max<double>(1.0, static_cast<double>(searches.size()));
  const double mean_search_ms = Mean(search_ms);
  const double pool_accesses =
      static_cast<double>(c.cache_hits + c.cache_misses);

  double exec_overhead_ms = 0.0;
  double transport_ms = 0.0;
  double rerouted = 0.0;
  if (kind == Kind::kNgDisk) {
    exec_overhead_ms = Mean(traced.served_ms) - mean_search_ms;
  } else if (kind == Kind::kNgReplica) {
    exec_overhead_ms = server_ms - probe_search_ms;
    transport_ms = Mean(traced.latency_ms) - server_ms;
    const hydra::ServingStats stats = stack->replicas->stats();
    rerouted = static_cast<double>(stats.retries + stats.failovers +
                                   stats.hedges);
  }

  std::vector<Metric>& m = result.metrics;
  m.push_back({"distance.evals_per_query", evals / n, "count"});
  m.push_back({"distance.abandon_rate",
               evals > 0 ? static_cast<double>(c.abandoned_distances) / evals
                         : 0.0,
               "fraction"});
  m.push_back({"index.lb_per_query",
               static_cast<double>(c.lb_distances) / n, "count"});
  m.push_back({"index.leaves_per_query",
               static_cast<double>(c.leaves_visited) / n, "count"});
  m.push_back({"index.search_ms_p50",
               Require(PercentileOf(search_ms, 0.50), "index.search_ms_p50"),
               "ms"});
  m.push_back({"index.search_ms_p99",
               Require(PercentileOf(search_ms, 0.99), "index.search_ms_p99"),
               "ms"});
  m.push_back({"index.self_ms_mean", self_ms / searches_n, "ms"});
  m.push_back({"index.build_s", times.build_s, "s"});
  m.push_back({"index.memory_mb",
               static_cast<double>(stack->index->MemoryBytes()) /
                   (1024.0 * 1024.0),
               "MB"});
  m.push_back({"storage.fetches_per_query", fetch_count / searches_n,
               "count"});
  m.push_back({"storage.misses_per_query",
               static_cast<double>(c.cache_misses) / n, "count"});
  m.push_back({"storage.miss_rate",
               pool_accesses > 0
                   ? static_cast<double>(c.cache_misses) / pool_accesses
                   : 0.0,
               "fraction"});
  m.push_back({"storage.bytes_per_query",
               static_cast<double>(c.bytes_read) / n, "bytes"});
  m.push_back({"storage.fetch_us_mean",
               fetch_count > 0 ? fetch_ns / fetch_count * 1e-3 : 0.0, "us"});
  m.push_back({"storage.fetch_us_p99",
               fetches.count() == 0
                   ? 0.0
                   : Require(fetches.Quantile(0.99), "storage.fetch_us_p99") *
                         1e-3,
               "us"});
  m.push_back({"storage.share", search_ns > 0 ? fetch_ns / search_ns : 0.0,
               "fraction"});
  m.push_back({"storage.write_s", times.write_s, "s"});
  m.push_back({"storage.load_s", times.load_s, "s"});
  m.push_back({"storage.io_retries",
               static_cast<double>(c.io_retries + c.io_giveups), "count"});
  m.push_back({"exec.overhead_ms_mean", exec_overhead_ms, "ms"});
  m.push_back({"net.transport_ms_mean", transport_ms, "ms"});
  m.push_back({"net.rerouted", rerouted, "count"});
  m.push_back({"trace.overhead",
               plain.qps() > 0 ? 1.0 - traced.qps() / plain.qps() : 0.0,
               "fraction"});
  MeasureLayers(config, in, path, params, expect, &m);

  stack.reset();
  std::filesystem::remove(path);
  if (!tracer.WriteTsv(config.work_dir + "/" + config.workload +
                       ".spans.tsv")) {
    Fail("cannot write the span file under " + config.work_dir);
  }
  return result;
}

}  // namespace hydrabench
