#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

namespace hydrabench {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Bump when the generator or the reference changes, so stale cache
// files are never read.
constexpr uint32_t kCacheVersion = 3;

// The reference's lower bound averages each series over this many equal
// segments.
constexpr size_t kSegments = 16;

// Segment means of every row of `rows` (row-major, `length` points), in
// double; points past the last whole segment are left out.
std::vector<double> SegmentMeans(const std::vector<float>& rows,
                                 size_t length, size_t segments) {
  const size_t count = rows.size() / length;
  const size_t width = length / segments;
  std::vector<double> means(count * segments);
  for (size_t r = 0; r < count; ++r) {
    const float* row = rows.data() + r * length;
    for (size_t s = 0; s < segments; ++s) {
      double sum = 0.0;
      for (size_t j = 0; j < width; ++j) sum += row[s * width + j];
      means[r * segments + s] = sum / static_cast<double>(width);
    }
  }
  return means;
}

}  // namespace

Rng::Rng(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x2545F4914F6CDD1Dull + stream;
  for (uint64_t& word : s_) word = SplitMix64(&state);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random bits, shifted off zero.
  return (static_cast<double>(Next() >> 11) + 0.5) * 0x1.0p-53;
}

double Rng::Normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * Uniform() - 1.0;
    v = 2.0 * Uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double scale = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * scale;
  has_spare_ = true;
  return u * scale;
}

std::vector<float> RandomWalks(size_t count, size_t length, uint64_t seed,
                               uint64_t stream) {
  std::vector<float> out(count * length);
  std::vector<double> walk(length);
  Rng rng(seed, stream);
  for (size_t s = 0; s < count; ++s) {
    double x = 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < length; ++i) {
      x += rng.Normal();
      walk[i] = x;
      sum += x;
    }
    const double mean = sum / static_cast<double>(length);
    double var = 0.0;
    for (double w : walk) var += (w - mean) * (w - mean);
    const double sd = std::sqrt(var / static_cast<double>(length));
    const double inv = sd > 0.0 ? 1.0 / sd : 0.0;
    float* row = out.data() + s * length;
    for (size_t i = 0; i < length; ++i) {
      row[i] = static_cast<float>((walk[i] - mean) * inv);
    }
  }
  return out;
}

double ReferenceSquaredDistance(const float* a, const float* b, size_t n,
                                double bound) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  while (i + 4 <= n) {
    // 32 values between checks of the bound; the sums and their order
    // are the same whether or not a check could have stopped the loop.
    const size_t stop = std::min(n - n % 4, i + 32);
    for (; i < stop; i += 4) {
      for (size_t j = 0; j < 4; ++j) {
        const double d =
            static_cast<double>(a[i + j]) - static_cast<double>(b[i + j]);
        acc[j] += d * d;
      }
    }
    if ((acc[0] + acc[1]) + (acc[2] + acc[3]) > bound) {
      return std::numeric_limits<double>::infinity();
    }
  }
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc[0] += d * d;
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

std::vector<Neighbors> ReferenceKnn(const std::vector<float>& collection,
                                    const std::vector<float>& queries,
                                    size_t length, size_t k, size_t threads) {
  const size_t n = collection.size() / length;
  const size_t q = queries.size() / length;
  std::vector<Neighbors> out(q);
  // Lower bound: for a segment of w points, the sum of squared
  // differences is at least w times the squared difference of the
  // segment means (Cauchy-Schwarz), so
  //   lb(i) = w * sum over segments of (query mean - series mean)^2
  // never exceeds the squared distance.
  const size_t segments = std::min(kSegments, length);
  const double width = static_cast<double>(length / segments);
  const std::vector<double> means =
      SegmentMeans(collection, length, segments);
  const std::vector<double> query_means =
      SegmentMeans(queries, length, segments);
  auto solve = [&](size_t qi) {
    const float* query = queries.data() + qi * length;
    const double* qm = query_means.data() + qi * segments;
    std::vector<double> lb(n);
    for (size_t i = 0; i < n; ++i) {
      const double* m = means.data() + i * segments;
      double sum = 0.0;
      for (size_t s = 0; s < segments; ++s) {
        sum += (qm[s] - m[s]) * (qm[s] - m[s]);
      }
      lb[i] = width * sum;
    }
    // A first upper bound on the k-th distance: the k-th smallest exact
    // distance among the 4k candidates with the smallest lower bounds.
    double limit = std::numeric_limits<double>::infinity();
    if (n > k) {
      std::vector<uint32_t> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
      const size_t first = std::min(n, 4 * k);
      std::nth_element(order.begin(), order.begin() + (first - 1),
                       order.end(), [&](uint32_t a, uint32_t b) {
                         return lb[a] < lb[b];
                       });
      std::vector<double> best;
      for (size_t j = 0; j < first; ++j) {
        best.push_back(ReferenceSquaredDistance(
            query, collection.data() + size_t{order[j]} * length, length));
      }
      std::nth_element(best.begin(), best.begin() + (k - 1), best.end());
      limit = best[k - 1];
    }
    // Max-heap of the best k (squared distance, id) pairs seen so far.
    std::vector<std::pair<double, int64_t>> heap;
    heap.reserve(k + 1);
    for (size_t i = 0; i < n; ++i) {
      // Nothing beyond `bound` can enter the answer: k candidates are
      // known to lie within it. Partial sums only grow, so a candidate
      // whose partial sum passes it is dropped early; ties with it are
      // never cut. The lower-bound test keeps a relative margin far
      // above the rounding error of either sum.
      const double bound = heap.size() < k
                               ? limit
                               : std::min(limit, heap.front().first);
      if (lb[i] > bound * (1.0 + 1e-9)) continue;
      const double d = ReferenceSquaredDistance(
          query, collection.data() + i * length, length, bound);
      if (d == std::numeric_limits<double>::infinity()) continue;
      const std::pair<double, int64_t> item{d, static_cast<int64_t>(i)};
      if (heap.size() < k) {
        heap.push_back(item);
        std::push_heap(heap.begin(), heap.end());
      } else if (item < heap.front()) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = item;
        std::push_heap(heap.begin(), heap.end());
      }
    }
    std::sort(heap.begin(), heap.end());
    for (const auto& [d, id] : heap) {
      out[qi].ids.push_back(id);
      out[qi].distances.push_back(std::sqrt(d));
    }
  };
  threads = std::max<size_t>(1, std::min(threads, q));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t qi = t; qi < q; qi += threads) solve(qi);
    });
  }
  for (std::thread& w : workers) w.join();
  return out;
}

std::vector<Neighbors> CachedReferenceKnn(
    const std::vector<float>& collection, const std::vector<float>& queries,
    size_t length, size_t k, uint64_t seed, const std::string& cache_dir) {
  const size_t n = collection.size() / length;
  const size_t q = queries.size() / length;
  std::string path;
  if (!cache_dir.empty()) {
    char name[160];
    std::snprintf(name, sizeof(name), "/ref-v%u-s%llu-n%zu-q%zu-l%zu-k%zu.bin",
                  kCacheVersion, static_cast<unsigned long long>(seed), n, q,
                  length, k);
    path = cache_dir + name;
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::vector<Neighbors> cached(q);
      for (Neighbors& nb : cached) {
        nb.ids.resize(k);
        nb.distances.resize(k);
        in.read(reinterpret_cast<char*>(nb.ids.data()),
                static_cast<std::streamsize>(k * sizeof(int64_t)));
        in.read(reinterpret_cast<char*>(nb.distances.data()),
                static_cast<std::streamsize>(k * sizeof(double)));
      }
      if (in && in.peek() == std::ifstream::traits_type::eof()) {
        return cached;
      }
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<Neighbors> out =
      ReferenceKnn(collection, queries, length, k, hw == 0 ? 1 : hw);
  if (!path.empty()) {
    std::filesystem::create_directories(cache_dir);
    // Write-then-rename so a reader never sees a partial file.
    const std::string tmp = path + ".tmp";
    {
      std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
      for (const Neighbors& nb : out) {
        file.write(reinterpret_cast<const char*>(nb.ids.data()),
                   static_cast<std::streamsize>(nb.ids.size() * 8));
        file.write(reinterpret_cast<const char*>(nb.distances.data()),
                   static_cast<std::streamsize>(nb.distances.size() * 8));
      }
    }
    std::filesystem::rename(tmp, path);
  }
  return out;
}

double RecallAt(const std::vector<int64_t>& truth,
                const std::vector<int64_t>& got, size_t k) {
  if (k == 0) return 0.0;
  const auto truth_end = truth.begin() + std::min(k, truth.size());
  const size_t m = std::min(k, got.size());
  size_t hits = 0;
  for (size_t i = 0; i < m; ++i) {
    const bool relevant =
        std::find(truth.begin(), truth_end, got[i]) != truth_end;
    const bool repeated =
        std::find(got.begin(), got.begin() + i, got[i]) != got.begin() + i;
    if (relevant && !repeated) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

}  // namespace hydrabench
