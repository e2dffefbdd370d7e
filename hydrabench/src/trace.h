#ifndef HYDRABENCH_TRACE_H_
#define HYDRABENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/index.h"
#include "stats.h"
#include "storage/buffer_manager.h"

namespace hydrabench {

// Spans recorded around calls into the program's public functions, from
// the benchmark's side of each call. The program itself is not
// instrumented: the two decorators below are handed to it in place of
// the real index and the real series provider.

enum class SpanKind : uint8_t {
  kSetup,    // one whole set-up: the four storage/index steps (+ servers)
  kWrite,    // WriteSeriesFile
  kLoad,     // SeriesFileReader::Open + ReadAll
  kBuild,    // BuildIndex
  kServe,    // starting the servers and waiting for a healthy replica set
  kRequest,  // one query as the caller sees it: submit to answer
  kSearch,   // one Index::Search
  kFetch,    // one SeriesProvider fetch (Get*/Pin*)
};
const char* SpanName(SpanKind kind);

// steady_clock in nanoseconds.
uint64_t NowNs();

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t id = 0;      // 0 for fetch spans, which have no children
  uint32_t parent = 0;  // 0 = root
  uint32_t query = 0;   // index in the workload's query set
  SpanKind kind = SpanKind::kSetup;
};

// One Index::Search call as the Index decorator saw it.
struct SearchRecord {
  uint32_t query = 0;
  uint64_t ns = 0;        // Search span
  uint64_t fetch_ns = 0;  // fetch spans nested inside it
  uint64_t fetches = 0;
};

inline constexpr uint32_t kNoQuery = UINT32_MAX;

// Maps a query's values back to its index in the workload's query set,
// so a Search span reached through a scheduler or a socket still names
// its query.
class QueryLookup {
 public:
  QueryLookup(const std::vector<float>& queries, size_t length);
  uint32_t Find(std::span<const float> query) const;  // kNoQuery if absent

 private:
  std::unordered_multimap<size_t, uint32_t> by_hash_;
  const std::vector<float>& queries_;
  size_t length_;
};

// Collects spans in memory (up to `capacity` of them; later spans still
// feed the aggregates but are only counted) and writes them out when the
// run ends. Thread-safe. A Search span and the fetch spans nested inside
// it are handed over together when the Search returns, so the hot path
// of a fetch touches only thread-local state.
class Tracer {
 public:
  Tracer(size_t capacity, size_t num_queries);

  uint32_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);

  // The caller's request span for a query now in flight, so the Search
  // span that serves it (on whichever thread) nests under it.
  void SetRequest(uint32_t query, uint32_t span_id);

  // Starts a fresh measurement phase: clears the per-Search records, the
  // fetch histogram and the stored query spans (set-up spans are kept).
  void ResetAggregates();
  std::vector<SearchRecord> searches() const;
  LogHistogram fetch_histogram() const;

  // Writes every stored span, one per line:
  //   name start_ns end_ns id parent query
  // after a '#' header line with the stored and dropped counts.
  bool WriteTsv(const std::string& path) const;

 private:
  friend class SearchScope;

  void StoreLocked(const Span& span);
  uint32_t RequestOf(uint32_t query) const;

  const size_t capacity_;
  std::atomic<uint32_t> next_id_{0};
  std::unique_ptr<std::atomic<uint32_t>[]> request_of_;
  const size_t num_queries_;

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t dropped_ = 0;
  std::vector<SearchRecord> searches_;
  LogHistogram fetch_hist_;
};

// SeriesProvider decorator: forwards every virtual function to the real
// provider and records a span around each fetch.
class TracingProvider final : public hydra::SeriesProvider {
 public:
  TracingProvider(hydra::SeriesProvider* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  uint64_t num_series() const override { return inner_->num_series(); }
  uint64_t series_length() const override { return inner_->series_length(); }
  std::span<const float> GetSeries(uint64_t i,
                                   hydra::QueryCounters* counters) override;
  std::span<const float> GetSeriesRun(uint64_t first, uint64_t max_count,
                                      hydra::QueryCounters* counters) override;
  hydra::PinnedRun PinSeries(uint64_t i,
                             hydra::QueryCounters* counters) override;
  hydra::PinnedRun PinRun(uint64_t first, uint64_t max_count,
                          hydra::QueryCounters* counters) override;
  hydra::Result<hydra::PinnedRun> PinSeriesChecked(
      uint64_t i, hydra::QueryCounters* counters) override;
  hydra::Result<hydra::PinnedRun> PinRunChecked(
      uint64_t first, uint64_t max_count,
      hydra::QueryCounters* counters) override;
  uint64_t MaxConcurrentPins() const override {
    return inner_->MaxConcurrentPins();
  }
  void Prefetch(
      uint64_t first, uint64_t count, hydra::QueryCounters* counters,
      std::shared_ptr<hydra::CancellationToken> cancel = nullptr) override {
    inner_->Prefetch(first, count, counters, std::move(cancel));
  }
  uint64_t SeriesPerPage() const override { return inner_->SeriesPerPage(); }
  uint64_t MaxPrefetchPages() const override {
    return inner_->MaxPrefetchPages();
  }
  bool SupportsConcurrentReads() const override {
    return inner_->SupportsConcurrentReads();
  }

 private:
  hydra::SeriesProvider* inner_;
  Tracer* tracer_;
};

// Index decorator: forwards every virtual function to the real index and
// records a span around each Search. While a Search runs, its span is the
// thread's current parent, so the fetch spans it causes nest under it.
// BatchSearch is forwarded untraced: no workload coalesces queries (the
// serving batch window stays at its default of 1).
class TracingIndex final : public hydra::Index {
 public:
  TracingIndex(const hydra::Index* inner, Tracer* tracer,
               const QueryLookup* lookup)
      : inner_(inner), tracer_(tracer), lookup_(lookup) {}

  std::string name() const override { return inner_->name(); }
  hydra::IndexCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  hydra::Result<hydra::KnnAnswer> Search(
      std::span<const float> query, const hydra::SearchParams& params,
      hydra::QueryCounters* counters) const override;
  std::vector<hydra::Result<hydra::KnnAnswer>> BatchSearch(
      std::span<const hydra::BatchQuery> batch) const override {
    return inner_->BatchSearch(batch);
  }

 private:
  const hydra::Index* inner_;
  Tracer* tracer_;
  const QueryLookup* lookup_;
};

}  // namespace hydrabench

#endif  // HYDRABENCH_TRACE_H_
