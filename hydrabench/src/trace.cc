#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string_view>

namespace hydrabench {
namespace {

// The Search in progress on this thread, if any. Fetch spans collect
// here and move to the tracer when the Search returns.
struct ThreadSearch {
  Tracer* tracer = nullptr;  // null = no Search in progress
  Span search;
  uint64_t fetch_ns = 0;
  std::vector<Span> fetches;
};
thread_local ThreadSearch tls_search;

size_t HashQuery(std::span<const float> query) {
  return std::hash<std::string_view>()(std::string_view(
      reinterpret_cast<const char*>(query.data()), query.size_bytes()));
}

// Runs on the fetching thread: inside a Search the span joins that
// Search's batch; outside one (index construction) it is stored now.
void RecordFetch(Tracer* tracer, uint64_t start, uint64_t end) {
  ThreadSearch& ts = tls_search;
  Span span;
  span.start_ns = start;
  span.end_ns = end;
  span.kind = SpanKind::kFetch;
  if (ts.tracer == tracer) {
    span.parent = ts.search.id;
    span.query = ts.search.query;
    ts.fetch_ns += end - start;
    ts.fetches.push_back(span);
    return;
  }
  span.query = kNoQuery;
  tracer->Record(span);
}

template <typename Fetch>
auto TimedFetch(Tracer* tracer, Fetch&& fetch) {
  const uint64_t start = NowNs();
  auto result = fetch();
  RecordFetch(tracer, start, NowNs());
  return result;
}

}  // namespace

// Brackets one Search on the calling thread.
class SearchScope {
 public:
  SearchScope(Tracer* tracer, uint32_t query) : tracer_(tracer) {
    ThreadSearch& ts = tls_search;
    ts.tracer = tracer;
    ts.search = Span{};
    ts.search.kind = SpanKind::kSearch;
    ts.search.id = tracer->NewId();
    ts.search.query = query;
    ts.search.parent = tracer->RequestOf(query);
    ts.fetch_ns = 0;
    ts.fetches.clear();
    ts.search.start_ns = NowNs();
  }
  ~SearchScope() {
    ThreadSearch& ts = tls_search;
    ts.search.end_ns = NowNs();
    ts.tracer = nullptr;
    SearchRecord record;
    record.query = ts.search.query;
    record.ns = ts.search.end_ns - ts.search.start_ns;
    record.fetch_ns = ts.fetch_ns;
    record.fetches = ts.fetches.size();
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    tracer_->StoreLocked(ts.search);
    for (const Span& fetch : ts.fetches) {
      tracer_->fetch_hist_.Add(fetch.end_ns - fetch.start_ns);
      tracer_->StoreLocked(fetch);
    }
    tracer_->searches_.push_back(record);
  }
  SearchScope(const SearchScope&) = delete;
  SearchScope& operator=(const SearchScope&) = delete;

 private:
  Tracer* tracer_;
};

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetup: return "setup";
    case SpanKind::kWrite: return "storage.write";
    case SpanKind::kLoad: return "storage.load";
    case SpanKind::kBuild: return "index.build";
    case SpanKind::kServe: return "net.start";
    case SpanKind::kRequest: return "request";
    case SpanKind::kSearch: return "index.search";
    case SpanKind::kFetch: return "storage.fetch";
  }
  return "?";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

QueryLookup::QueryLookup(const std::vector<float>& queries, size_t length)
    : queries_(queries), length_(length) {
  const size_t n = queries.size() / length;
  for (size_t q = 0; q < n; ++q) {
    by_hash_.emplace(HashQuery({queries.data() + q * length, length}),
                     static_cast<uint32_t>(q));
  }
}

uint32_t QueryLookup::Find(std::span<const float> query) const {
  if (query.size() != length_) return kNoQuery;
  auto [first, last] = by_hash_.equal_range(HashQuery(query));
  for (auto it = first; it != last; ++it) {
    const float* mine = queries_.data() + size_t{it->second} * length_;
    if (std::equal(query.begin(), query.end(), mine)) return it->second;
  }
  return kNoQuery;
}

Tracer::Tracer(size_t capacity, size_t num_queries)
    : capacity_(capacity),
      request_of_(new std::atomic<uint32_t>[num_queries]),
      num_queries_(num_queries) {
  for (size_t q = 0; q < num_queries; ++q) request_of_[q].store(0);
  spans_.reserve(capacity);
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  StoreLocked(span);
}

void Tracer::StoreLocked(const Span& span) {
  if (spans_.size() < capacity_) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

void Tracer::SetRequest(uint32_t query, uint32_t span_id) {
  if (query < num_queries_) request_of_[query].store(span_id);
}

uint32_t Tracer::RequestOf(uint32_t query) const {
  return query < num_queries_ ? request_of_[query].load() : 0;
}

void Tracer::ResetAggregates() {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(spans_, [](const Span& s) {
    return s.kind == SpanKind::kRequest || s.kind == SpanKind::kSearch ||
           s.kind == SpanKind::kFetch;
  });
  dropped_ = 0;
  searches_.clear();
  fetch_hist_ = LogHistogram();
}

std::vector<SearchRecord> Tracer::searches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return searches_;
}

LogHistogram Tracer::fetch_histogram() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fetch_hist_;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# name start_ns end_ns id parent query; stored=%zu "
               "dropped=%llu\n",
               spans_.size(), static_cast<unsigned long long>(dropped_));
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%llu\t%llu\t%u\t%u\t%ld\n", SpanName(s.kind),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.id, s.parent,
                 s.query == kNoQuery ? -1L : static_cast<long>(s.query));
  }
  return std::fclose(f) == 0;
}

std::span<const float> TracingProvider::GetSeries(
    uint64_t i, hydra::QueryCounters* counters) {
  return TimedFetch(tracer_, [&] { return inner_->GetSeries(i, counters); });
}

std::span<const float> TracingProvider::GetSeriesRun(
    uint64_t first, uint64_t max_count, hydra::QueryCounters* counters) {
  return TimedFetch(tracer_, [&] {
    return inner_->GetSeriesRun(first, max_count, counters);
  });
}

hydra::PinnedRun TracingProvider::PinSeries(uint64_t i,
                                            hydra::QueryCounters* counters) {
  return TimedFetch(tracer_, [&] { return inner_->PinSeries(i, counters); });
}

hydra::PinnedRun TracingProvider::PinRun(uint64_t first, uint64_t max_count,
                                         hydra::QueryCounters* counters) {
  return TimedFetch(tracer_,
                    [&] { return inner_->PinRun(first, max_count, counters); });
}

hydra::Result<hydra::PinnedRun> TracingProvider::PinSeriesChecked(
    uint64_t i, hydra::QueryCounters* counters) {
  return TimedFetch(tracer_,
                    [&] { return inner_->PinSeriesChecked(i, counters); });
}

hydra::Result<hydra::PinnedRun> TracingProvider::PinRunChecked(
    uint64_t first, uint64_t max_count, hydra::QueryCounters* counters) {
  return TimedFetch(tracer_, [&] {
    return inner_->PinRunChecked(first, max_count, counters);
  });
}

hydra::Result<hydra::KnnAnswer> TracingIndex::Search(
    std::span<const float> query, const hydra::SearchParams& params,
    hydra::QueryCounters* counters) const {
  SearchScope scope(tracer_, lookup_->Find(query));
  return inner_->Search(query, params, counters);
}

}  // namespace hydrabench
