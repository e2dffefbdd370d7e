#include "harness/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/timer.h"
#include "exec/query_scheduler.h"
#include "storage/buffer_manager.h"

namespace hydra {
namespace {

// Nearest-rank percentile over latencies (sorted copy): the smallest
// value with at least pct of the sample at or below it, i.e. index
// ceil(pct * N) - 1.
double PercentileMs(std::vector<double> seconds, double pct) {
  if (seconds.empty()) return 0.0;
  std::sort(seconds.begin(), seconds.end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct * static_cast<double>(seconds.size())));
  if (rank > 0) --rank;
  if (rank >= seconds.size()) rank = seconds.size() - 1;
  return seconds[rank] * 1000.0;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// Same ids and bit-identical distances. Pairs with a failure (an empty
// answer) on either side are excluded: the contract is "every
// SUCCESSFUL answer is exactly right", failures are accounted apart.
bool AnswersIdentical(const KnnAnswer& a, const KnnAnswer& b) {
  if (a.ids.empty() || b.ids.empty()) return true;
  return a.ids == b.ids && a.distances == b.distances;
}

// Every answer against the reference answer of its query; `reference`
// is cycled for runs that submit the workload more than once.
bool MatchesReference(const std::vector<KnnAnswer>& answers,
                      const std::vector<KnnAnswer>& reference) {
  if (reference.empty()) return true;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!AnswersIdentical(answers[i], reference[i % reference.size()])) {
      return false;
    }
  }
  return true;
}

double HitRate(const QueryCounters& c) {
  return Ratio(static_cast<double>(c.cache_hits),
               static_cast<double>(c.cache_hits + c.cache_misses));
}

double PrefetchHitRate(const QueryCounters& c) {
  return Ratio(static_cast<double>(c.prefetch_useful),
               static_cast<double>(c.prefetch_issued));
}

}  // namespace

double RunResult::DataAccessedFraction(size_t collection_size) const {
  if (collection_size == 0 || num_queries == 0) return 0.0;
  double per_query = static_cast<double>(counters.series_accessed) /
                     static_cast<double>(num_queries);
  return per_query / static_cast<double>(collection_size);
}

double RunResult::RandomIosPerQuery() const {
  if (num_queries == 0) return 0.0;
  return static_cast<double>(counters.random_ios) /
         static_cast<double>(num_queries);
}

double RunResult::AbandonRate() const {
  return Ratio(static_cast<double>(counters.abandoned_distances),
               static_cast<double>(counters.full_distances +
                                   counters.abandoned_distances));
}

RunResult RunWorkload(const Index& index, const Dataset& queries,
                      const std::vector<KnnAnswer>& ground_truth,
                      const SearchParams& params, const std::string& setting,
                      BufferManager* drop_before_each) {
  RunResult result;
  result.method = index.name();
  result.setting = setting;
  result.index_bytes = index.MemoryBytes();

  std::vector<double> per_query_seconds;
  per_query_seconds.reserve(queries.size());
  result.answers.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    if (drop_before_each != nullptr) drop_before_each->DropCache();
    QueryCounters counters;
    Timer timer;
    Result<KnnAnswer> ans = index.Search(queries.series(q), params, &counters);
    per_query_seconds.push_back(timer.ElapsedSeconds());
    result.answers.push_back(ans.ok() ? std::move(ans).value() : KnnAnswer{});
    result.counters += counters;
  }
  result.timing = SummarizeWorkload(per_query_seconds);
  result.accuracy = AggregateAccuracy(ground_truth, result.answers, params.k);
  result.num_queries = queries.size();
  return result;
}

std::vector<RunResult> RunSweep(const Index& index, const Dataset& queries,
                                const std::vector<KnnAnswer>& ground_truth,
                                const std::vector<SweepPoint>& points,
                                BufferManager* drop_before_each) {
  std::vector<RunResult> results;
  results.reserve(points.size());
  for (const SweepPoint& p : points) {
    results.push_back(RunWorkload(index, queries, ground_truth, p.params,
                                  p.setting, drop_before_each));
    CompareToBaseline(results.front(), &results.back());
  }
  return results;
}

std::vector<SweepPoint> NgSweep(size_t k, const std::vector<size_t>& nprobes) {
  std::vector<SweepPoint> out;
  for (size_t np : nprobes) {
    SweepPoint p;
    p.params.mode = SearchMode::kNgApproximate;
    p.params.k = k;
    p.params.nprobe = np;
    p.params.efs = np;  // HNSW interprets the knob as efs
    p.setting = "nprobe=" + std::to_string(np);
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<SweepPoint> EpsilonSweep(size_t k,
                                     const std::vector<double>& epsilons,
                                     double delta) {
  std::vector<SweepPoint> out;
  for (double eps : epsilons) {
    SweepPoint p;
    p.params.mode = SearchMode::kDeltaEpsilon;
    p.params.k = k;
    p.params.epsilon = eps;
    p.params.delta = delta;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "eps=%.2f,delta=%.2f", eps, delta);
    p.setting = buf;
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<SweepPoint> ThreadSweep(const SearchParams& base,
                                    const std::vector<size_t>& counts) {
  std::vector<SweepPoint> out;
  for (size_t threads : counts) {
    SweepPoint p{base, "threads=" + std::to_string(threads)};
    p.params.num_threads = std::max<size_t>(threads, 1);
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<SweepPoint> DepthSweep(const SearchParams& base,
                                   const std::vector<size_t>& depths) {
  std::vector<SweepPoint> out;
  for (size_t depth : depths) {
    SweepPoint p{base, "depth=" + std::to_string(depth)};
    p.params.prefetch_depth = depth == 0 ? SearchParams::kPrefetchOff : depth;
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<KnnAnswer> SerialAnswers(const Index& index,
                                     const Dataset& queries,
                                     const SearchParams& params) {
  std::vector<KnnAnswer> answers;
  answers.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryCounters scratch;
    Result<KnnAnswer> ans = index.Search(queries.series(q), params, &scratch);
    answers.push_back(ans.ok() ? std::move(ans).value() : KnnAnswer{});
  }
  return answers;
}

Table SerialTable(const std::vector<RunResult>& rows,
                  size_t collection_size) {
  Table table({"method", "setting", "total_s", "avg_query_ms",
               "queries_per_min", "speedup", "avg_recall", "abandon_rate",
               "prefetch_hit", "hit_rate", "pct_data", "match_serial"});
  for (const RunResult& r : rows) {
    const double avg_ms =
        Ratio(r.timing.total_seconds * 1000.0,
              static_cast<double>(r.num_queries));
    table.AddRow({r.method, r.setting, FormatDouble(r.timing.total_seconds, 4),
                  FormatDouble(avg_ms, 3),
                  FormatDouble(r.timing.throughput_per_min, 1),
                  FormatDouble(r.speedup, 2),
                  FormatDouble(r.accuracy.avg_recall, 4),
                  FormatDouble(r.AbandonRate(), 4),
                  FormatDouble(PrefetchHitRate(r.counters), 4),
                  FormatDouble(HitRate(r.counters), 4),
                  FormatDouble(
                      r.DataAccessedFraction(collection_size) * 100.0, 2),
                  r.matches_serial ? "yes" : "NO"});
  }
  return table;
}

ServingBackendFactory LocalBackendFactory(const Index& index,
                                          SeriesProvider* provider) {
  return [&index, provider](const ServingOptions& options) {
    return std::make_unique<ServingSession>(index, provider, options);
  };
}

LoadResult RunLoad(const ServingBackendFactory& factory,
                   const Dataset& queries,
                   const std::vector<KnnAnswer>& ground_truth,
                   const SearchParams& params,
                   const std::vector<KnnAnswer>& reference,
                   const Load& load) {
  using Clock = std::chrono::steady_clock;
  const size_t total = load.total == 0 ? queries.size() : load.total;
  const bool open_loop = load.rate > 0.0;
  LoadResult result;
  result.setting = "concurrency=" + std::to_string(load.concurrency);
  if (load.batch_window > 1) {
    result.setting += ";window=" + std::to_string(load.batch_window);
  }
  result.offered_qps = load.rate;
  result.num_queries = total;

  ServingOptions options;
  options.concurrency = load.concurrency;
  options.batch_window = load.batch_window;
  // An open loop must never block on backpressure (that would close the
  // loop again), and coalescing feeds on queue depth.
  if (open_loop) {
    options.queue_capacity = total + load.concurrency;
  } else if (load.batch_window > 1) {
    options.queue_capacity = std::max<size_t>(total, 1);
  }
  std::unique_ptr<ServingBackend> backend = factory(options);
  if (backend == nullptr) {
    result.errors = total;
    result.matches_serial = false;
    return result;
  }

  std::thread chaos;
  if (load.chaos) chaos = std::thread(load.chaos);
  // The open-loop schedule is anchored shortly ahead, so query 0's
  // arrival is not already past by the time the submitter is up.
  const Clock::time_point t0 =
      Clock::now() + (open_loop ? std::chrono::milliseconds(5)
                                : std::chrono::milliseconds(0));
  const double interval_s = open_loop ? 1.0 / load.rate : 0.0;
  auto due = [&](size_t i) {
    const double offset_s = interval_s * static_cast<double>(i);
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s));
  };
  std::thread submitter([&] {
    for (size_t i = 0; i < total; ++i) {
      if (open_loop) std::this_thread::sleep_until(due(i));
      backend->Submit(queries.series(i % queries.size()), params);
    }
    // A closed loop closes the stream once everything is submitted, so a
    // dropped submission ends the drain instead of stalling it.
    if (!open_loop) backend->Finish();
  });

  // Drain in ticket (= submission) order. An open-loop query stuck
  // behind a backlog is charged its whole queueing delay, measured from
  // its own scheduled arrival even though it was submitted late.
  std::vector<double> latencies;
  latencies.reserve(total);
  result.answers.reserve(total);
  Clock::time_point last_done = t0;
  for (size_t i = 0; i < total; ++i) {
    std::optional<ServedQuery> served = backend->Next();
    if (!served.has_value()) break;  // the stream ended early
    last_done = Clock::now();
    ++result.completions;
    const double latency_s =
        open_loop ? std::chrono::duration<double>(last_done - due(i)).count()
                  : served->seconds;
    latencies.push_back(latency_s);
    result.counters += served->counters;
    if (served->answer.ok()) {
      ++result.ok;
      if (params.deadline_ms <= 0 || latency_s * 1000.0 <= params.deadline_ms) {
        ++result.ok_within_deadline;
      }
      result.answers.push_back(std::move(served->answer).value());
    } else {
      if (IsTimeout(served->answer.status().code())) {
        ++result.timeouts;
      } else {
        ++result.errors;
      }
      result.answers.push_back(KnnAnswer{});
    }
  }
  // Only a coalescing run issues batches; the stats call is skipped
  // otherwise so remote backends pay no extra round trip.
  if (load.batch_window > 1) result.batches = backend->stats().batches_served;
  submitter.join();
  backend->Finish();
  if (chaos.joinable()) chaos.join();

  result.wall_seconds = std::chrono::duration<double>(last_done - t0).count();
  result.qps = Ratio(static_cast<double>(total), result.wall_seconds);
  result.availability = Ratio(static_cast<double>(result.ok_within_deadline),
                              static_cast<double>(total));
  result.p50_ms = PercentileMs(latencies, 0.50);
  result.p95_ms = PercentileMs(latencies, 0.95);
  result.p99_ms = PercentileMs(latencies, 0.99);
  double sum = 0.0;
  for (double s : latencies) sum += s;
  result.mean_ms = Ratio(sum * 1000.0, static_cast<double>(latencies.size()));
  if (!ground_truth.empty()) {
    std::vector<KnnAnswer> expected;
    expected.reserve(result.answers.size());
    for (size_t i = 0; i < result.answers.size(); ++i) {
      expected.push_back(ground_truth[i % ground_truth.size()]);
    }
    result.accuracy = AggregateAccuracy(expected, result.answers, params.k);
  }
  result.matches_serial = MatchesReference(result.answers, reference);
  return result;
}

Table LoadTable(const std::vector<LoadResult>& rows) {
  Table table({"method", "setting", "offered_qps", "n", "done", "ok",
               "ok_in_ddl", "avail", "wall_s", "qps", "p50_ms", "p95_ms",
               "p99_ms", "mean_ms", "speedup", "batches", "avg_recall",
               "hit_rate", "prefetch_hit", "errors", "timeouts", "io_retries",
               "match_serial"});
  for (const LoadResult& r : rows) {
    table.AddRow(
        {r.method, r.setting, FormatDouble(r.offered_qps, 1),
         std::to_string(r.num_queries), std::to_string(r.completions),
         std::to_string(r.ok), std::to_string(r.ok_within_deadline),
         FormatDouble(r.availability, 4), FormatDouble(r.wall_seconds, 4),
         FormatDouble(r.qps, 1), FormatDouble(r.p50_ms, 3),
         FormatDouble(r.p95_ms, 3), FormatDouble(r.p99_ms, 3),
         FormatDouble(r.mean_ms, 3), FormatDouble(r.speedup, 2),
         std::to_string(r.batches), FormatDouble(r.accuracy.avg_recall, 4),
         FormatDouble(HitRate(r.counters), 4),
         FormatDouble(PrefetchHitRate(r.counters), 4),
         std::to_string(r.errors), std::to_string(r.timeouts),
         std::to_string(r.counters.io_retries),
         r.matches_serial ? "yes" : "NO"});
  }
  return table;
}

void CompareToBaseline(const RunResult& baseline, RunResult* row) {
  row->speedup =
      Ratio(baseline.timing.total_seconds, row->timing.total_seconds);
  row->matches_serial =
      row->matches_serial && MatchesReference(row->answers, baseline.answers);
}

void CompareToBaseline(const LoadResult& baseline, LoadResult* row) {
  row->speedup = Ratio(baseline.wall_seconds, row->wall_seconds);
  row->matches_serial =
      row->matches_serial && MatchesReference(row->answers, baseline.answers);
}

}  // namespace hydra
