#ifndef HYDRABENCH_WORKLOADS_H_
#define HYDRABENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hydrabench {

// One run of one workload. The defaults are the benchmark's sizes; the
// self-test shrinks them.
struct Config {
  std::string workload;  // exact-mem | ng-disk | ng-replica
  uint64_t seed = 1;
  double seconds = 25.0;  // length of each measured phase
  bool trace = false;
  std::string work_dir = ".";  // series file, reference cache, span file

  size_t series = 100000;
  size_t queries = 0;  // 0 = the workload's own count
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::string failure;  // names the workload and the query on a mismatch
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload end to end: makes the inputs from the seed, sets up
// the program, checks every answer and measures. A typed failure of a
// query counts against the result; a failed set-up throws
// std::runtime_error and misuse (unknown workload, no series or queries)
// std::invalid_argument.
RunResult RunWorkload(const Config& config);

}  // namespace hydrabench

#endif  // HYDRABENCH_WORKLOADS_H_
