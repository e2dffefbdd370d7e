#ifndef HYDRA_HARNESS_EXPERIMENT_H_
#define HYDRA_HARNESS_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "core/dataset.h"
#include "core/metrics.h"
#include "core/workload.h"
#include "exec/query_scheduler.h"
#include "harness/table.h"
#include "index/index.h"

namespace hydra {

class SeriesProvider;  // storage/buffer_manager.h
class BufferManager;   // storage/buffer_manager.h

// The measurement framework: two runners, one per timing protocol, each
// with one result type and one table.
//
//  * Serial (RunWorkload / RunSweep → RunResult → SerialTable): the
//    paper's protocol (§4.1) — queries run one at a time on the calling
//    thread, each timed around Index::Search.
//  * Served (RunLoad → LoadResult → LoadTable): the workload pushed
//    through a ServingBackend — closed loop at a concurrency, or open
//    loop at an arrival rate, optionally with a side action (kill a
//    replica, ...) running during the load.
//
// Every sweep the benches print (threads, prefetch depth, concurrency,
// coalescing window, offered rate, replica scenario) is a list of points
// run through one of the two, and every row can be compared against a
// baseline row by CompareToBaseline: `speedup` and `match_serial`.

// ---------------------------------------------------------------------------
// Serial runner.
// ---------------------------------------------------------------------------

// One (method, parameter point) measurement over a query workload:
// timing under the paper's protocol plus accuracy against ground truth
// and the aggregated implementation-independent counters.
struct RunResult {
  std::string method;
  std::string setting;  // human-readable knob, e.g. "nprobe=4" or "eps=1"
  WorkloadTiming timing;
  WorkloadAccuracy accuracy;
  QueryCounters counters;  // summed over the workload
  double index_build_seconds = 0.0;
  size_t index_bytes = 0;

  size_t num_queries = 0;
  // Per-query answers in workload order; a failed query is an empty
  // KnnAnswer (k >= 1, so a successful answer is never empty).
  std::vector<KnnAnswer> answers;

  // Filled by CompareToBaseline: baseline total_seconds / this row's
  // (0 until a baseline is compared), and whether every answer is
  // identical to the baseline's.
  double speedup = 0.0;
  bool matches_serial = true;

  // Fraction of the collection's raw series touched per query on average.
  double DataAccessedFraction(size_t collection_size) const;
  // Random I/Os per query on average.
  double RandomIosPerQuery() const;
  // Fraction of raw-distance evaluations cut off early — the paper's
  // early-abandoning yield. QueryCounters::abandoned_distances has been
  // split out since the SIMD kernel work; this is the per-method report.
  double AbandonRate() const;
};

// Runs `params` over every query in `queries` against `index`, scoring
// each answer against `ground_truth` (exact k-NN for the same workload).
// With `drop_before_each`, that pool is dropped before every query (a
// cold row: each query pays its own page misses; DropCache also cancels
// queued readahead, so no query inherits another's background reads).
RunResult RunWorkload(const Index& index, const Dataset& queries,
                      const std::vector<KnnAnswer>& ground_truth,
                      const SearchParams& params, const std::string& setting,
                      BufferManager* drop_before_each = nullptr);

// One point of a serial sweep.
struct SweepPoint {
  SearchParams params;
  std::string setting;
};

// Runs every point through RunWorkload, in order, and compares every row
// against the first (CompareToBaseline): row 0 is the sweep's baseline.
std::vector<RunResult> RunSweep(const Index& index, const Dataset& queries,
                                const std::vector<KnnAnswer>& ground_truth,
                                const std::vector<SweepPoint>& points,
                                BufferManager* drop_before_each = nullptr);

// Point lists. NgSweep/EpsilonSweep trace an efficiency/accuracy
// frontier (nprobe, efs, epsilon...) for the figure benches;
// ThreadSweep sets SearchParams::num_threads ("threads=N") and
// DepthSweep SearchParams::prefetch_depth ("depth=D") on `base`. Depth 0
// is forced off (kPrefetchOff), so an exported HYDRA_PREFETCH cannot
// leak into the serial-identical baseline.
std::vector<SweepPoint> NgSweep(size_t k, const std::vector<size_t>& nprobes);
std::vector<SweepPoint> EpsilonSweep(size_t k,
                                     const std::vector<double>& epsilons,
                                     double delta = 1.0);
std::vector<SweepPoint> ThreadSweep(const SearchParams& base,
                                    const std::vector<size_t>& counts);
std::vector<SweepPoint> DepthSweep(const SearchParams& base,
                                   const std::vector<size_t>& depths);

// The serial reference: one untimed pass of index.Search over `queries`
// on the calling thread, returning each answer (empty for a failed
// query). Doubles as the warm-up pass before steady-state rows.
std::vector<KnnAnswer> SerialAnswers(const Index& index,
                                     const Dataset& queries,
                                     const SearchParams& params);

// One row per result. Columns (also the CSV schema):
//   method, setting, total_s, avg_query_ms, queries_per_min, speedup,
//   avg_recall, abandon_rate, prefetch_hit, hit_rate, pct_data,
//   match_serial
// pct_data is the paper's %-data-accessed measure (series touched per
// query / collection size; 0 prints 0). prefetch_hit is the readahead
// usefulness (prefetch_useful / prefetch_issued), hit_rate the buffer
// pool's hits / fetches; both 0 when the pool or readahead never ran.
Table SerialTable(const std::vector<RunResult>& rows,
                  size_t collection_size = 0);

// ---------------------------------------------------------------------------
// Served runner.
// ---------------------------------------------------------------------------

// How RunLoad obtains the backend it drives: called once per run with
// that run's serving configuration. LocalBackendFactory builds an
// in-process ServingSession; a network harness hands out a HydraClient
// or a ReplicaSetBackend instead — the runner never names a concrete
// backend, so the same measurement code produces local, loopback and
// replicated rows. A remote factory cannot honor every field (the
// server fixed its session's options at Start); wire it against a
// server configured to match. A factory may return nullptr (connect
// refused): the run is then reported as all errors.
using ServingBackendFactory =
    std::function<std::unique_ptr<ServingBackend>(const ServingOptions&)>;

// The in-process default: ServingSession over index + provider.
ServingBackendFactory LocalBackendFactory(const Index& index,
                                          SeriesProvider* provider);

// The shape of one served run.
//   closed loop (rate = 0): queries are submitted as fast as backpressure
//     admits, and a query's latency is ServedQuery::seconds (submission
//     to completion, queue wait included). With batch_window > 1 the
//     queue holds the whole run, so full windows can pile up behind the
//     in-flight slots.
//   open loop (rate > 0): query i is released at t0 + i/rate (t0 = 5 ms
//     after the backend is up) whether or not earlier ones finished, into
//     a queue that holds the whole run, and its latency is charged from
//     that SCHEDULED arrival — a system that falls behind shows the
//     backlog in its tail instead of silently slowing the generator (the
//     coordinated-omission trap).
// `chaos` (when set) runs once on its own thread for the length of the
// run, with its own timing (sleep, kill a replica, restart it, ...).
struct Load {
  size_t concurrency = 1;
  double rate = 0.0;        // arrivals per second; 0 = closed loop
  size_t total = 0;         // submissions, cycling `queries`; 0 = one pass
  size_t batch_window = 1;  // passed to the session as is; 1 = off
  std::function<void()> chaos;
};

struct LoadResult {
  // Set by the caller: the runner sees only a backend.
  std::string method;
  // "concurrency=C", with ";window=W" when coalescing.
  std::string setting;
  double offered_qps = 0.0;  // Load::rate; 0 for a closed loop
  size_t num_queries = 0;    // submissions
  size_t completions = 0;    // results drained; right-or-typed means == n
  size_t ok = 0;
  size_t ok_within_deadline = 0;  // OK and latency <= params.deadline_ms
  size_t errors = 0;              // typed failures other than timeouts
  size_t timeouts = 0;            // DeadlineExceeded / Cancelled
  double availability = 0.0;      // ok_within_deadline / num_queries
  double wall_seconds = 0.0;      // t0 to the last completion
  double qps = 0.0;               // num_queries / wall_seconds
  // Nearest-rank latency percentiles and mean, milliseconds.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  uint64_t batches = 0;            // BatchSearch calls (coalescing runs)
  QueryCounters counters;          // summed over the served queries
  WorkloadAccuracy accuracy;       // against the ground truth, cycled
  std::vector<KnnAnswer> answers;  // ticket order; failed = empty
  // Every OK answer identical (ids + bit-identical distances) to the
  // serial reference, and after CompareToBaseline to the baseline row —
  // load must never change what a query returns. A query may fail with
  // a typed status (counted above), but one that succeeds must be
  // exactly right.
  bool matches_serial = true;
  // Baseline wall_seconds / this row's; 0 until CompareToBaseline (open
  // loops have none: their wall time follows the offered rate).
  double speedup = 0.0;
};

// Runs one served load over a backend from `factory`: the calling thread
// drains results in ticket order while a submitter thread releases the
// submissions. Answers are scored against `ground_truth` (may be empty)
// and checked against `reference` (SerialAnswers under the same params),
// both cycled when `load.total` exceeds the workload.
LoadResult RunLoad(const ServingBackendFactory& factory,
                   const Dataset& queries,
                   const std::vector<KnnAnswer>& ground_truth,
                   const SearchParams& params,
                   const std::vector<KnnAnswer>& reference, const Load& load);

// One row per result. Columns (also the CSV schema):
//   method, setting, offered_qps, n, done, ok, ok_in_ddl, avail, wall_s,
//   qps, p50_ms, p95_ms, p99_ms, mean_ms, speedup, batches, avg_recall,
//   hit_rate, prefetch_hit, errors, timeouts, io_retries, match_serial
// hit_rate and prefetch_hit come from the per-query counters summed over
// the run (0 when the run never touched a pool or readahead).
Table LoadTable(const std::vector<LoadResult>& rows);

// ---------------------------------------------------------------------------
// The baseline comparison, for either runner's rows: speedup = baseline
// seconds / row seconds (total_seconds serial, wall_seconds served; 0
// when the row took no time), and match_serial stays true only if every
// answer both rows returned is identical (ids + bit-identical
// distances). A row compared against itself gets 1 and yes.
// ---------------------------------------------------------------------------
void CompareToBaseline(const RunResult& baseline, RunResult* row);
void CompareToBaseline(const LoadResult& baseline, LoadResult* row);

}  // namespace hydra

#endif  // HYDRA_HARNESS_EXPERIMENT_H_
