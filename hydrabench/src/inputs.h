#ifndef HYDRABENCH_INPUTS_H_
#define HYDRABENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hydrabench {

// Everything the benchmark feeds the program, and everything it checks
// the program's answers against, is made here from the seed alone with
// code that lives in this directory. No program change can therefore
// alter the inputs or the reference answers.

// xoshiro256** seeded through splitmix64. `stream` separates the
// collection's draws from the queries' draws under one seed.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream);
  uint64_t Next();
  // Uniform in (0, 1).
  double Uniform();
  // Standard normal (Marsaglia polar method).
  double Normal();

 private:
  uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

// `count` z-normalised random walks of `length` points, row-major:
// S[0] = N(0,1), S[i] = S[i-1] + N(0,1), then shifted and scaled to
// mean 0 and standard deviation 1 (the paper's Rand dataset and query
// protocol).
std::vector<float> RandomWalks(size_t count, size_t length, uint64_t seed,
                               uint64_t stream);

// One k-NN answer: ids ascending by distance (true, not squared,
// Euclidean distance).
struct Neighbors {
  std::vector<int64_t> ids;
  std::vector<double> distances;
};

// Squared Euclidean distance in double precision with a plain scalar
// loop: four interleaved partial sums (by index mod 4) so the reference
// pass is not bound by one add chain. Returns +infinity as soon as a
// partial sum exceeds `bound` (checked every 32 values); otherwise the
// exact sum, the same for every bound.
double ReferenceSquaredDistance(
    const float* a, const float* b, size_t n,
    double bound = std::numeric_limits<double>::infinity());

// Exact k-NN of every query over the collection, ties broken by smaller
// id: the answer a brute force gives. Candidates whose segment-mean
// lower bound passes the k-th distance are skipped without changing the
// answer. Splits the queries over `threads` threads.
std::vector<Neighbors> ReferenceKnn(const std::vector<float>& collection,
                                    const std::vector<float>& queries,
                                    size_t length, size_t k, size_t threads);

// ReferenceKnn through a per-seed file cache under `cache_dir` (the
// reference depends only on the seed and the sizes). An empty
// `cache_dir` disables the cache.
std::vector<Neighbors> CachedReferenceKnn(
    const std::vector<float>& collection, const std::vector<float>& queries,
    size_t length, size_t k, uint64_t seed, const std::string& cache_dir);

// |first k ids of `got` ∩ first k ids of `truth`| / k.
double RecallAt(const std::vector<int64_t>& truth,
                const std::vector<int64_t>& got, size_t k);

}  // namespace hydrabench

#endif  // HYDRABENCH_INPUTS_H_
