// hydrabench: one run of one workload of the repository's benchmark.
//
//   hydrabench --workload exact-mem|ng-disk|ng-replica --seed N
//              --seconds S --trace 0|1 --work-dir DIR
//              [--series N --queries Q]
//
// --series and --queries shrink the inputs for the self-test.
//
// Prints one JSON line describing the environment, then, as the last
// line of stdout, the result:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// Exit codes: 0 = measured and correct; 1 = an answer was wrong (the
// result line says correct: false and stderr names the workload and the
// query); 2 = usage, environment or set-up error (no result line).

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "distance/simd_dispatch.h"
#include "workloads.h"

#ifndef HYDRABENCH_BUILD_TYPE
#define HYDRABENCH_BUILD_TYPE "unknown"
#endif

namespace {

// Knobs that change what the measured program does. A run refuses to
// start while any is set, so every result measures the defaults.
constexpr const char* kRefusedKnobs[] = {
    "HYDRA_SIM_IO_DELAY_US", "HYDRA_PREFETCH",      "HYDRA_BATCH_WINDOW",
    "HYDRA_THREADS",         "HYDRA_SIMD",          "HYDRA_IO_RETRIES",
    "HYDRA_IO_BACKOFF_US",   "HYDRA_TENANT_QUEUE",  "HYDRA_HEDGE_MS",
    "HYDRA_PROBE_MS",        "HYDRA_REPLICA_RETRIES"};
constexpr const char* kRefusedPrefix = "HYDRA_FAULT_";

extern "C" char** environ;

std::vector<std::string> SetKnobs() {
  std::vector<std::string> set;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry(*env);
    const std::string name = entry.substr(0, entry.find('='));
    bool refused = name.rfind(kRefusedPrefix, 0) == 0;
    for (const char* knob : kRefusedKnobs) refused |= name == knob;
    if (refused) set.push_back(name);
  }
  return set;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Shortest text that reads back as exactly `value`.
std::string JsonNumber(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "hydrabench: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: hydrabench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
  std::exit(2);
}

uint64_t ParseCount(const std::string& flag, const std::string& text) {
  uint64_t value = 0;
  auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    Usage(flag + " needs a whole number, got '" + text + "'");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  hydrabench::Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = ParseCount(flag, value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0)) {
        Usage("--seconds needs a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace is 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--series") {
      config.series = ParseCount(flag, value);
    } else if (flag == "--queries") {
      config.queries = ParseCount(flag, value);
    } else {
      Usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : hydrabench::WorkloadNames()) {
    known |= name == config.workload;
  }
  if (!have_workload || !known) Usage("unknown workload '" +
                                      config.workload + "'");
  const std::vector<std::string> knobs = SetKnobs();
  if (!knobs.empty()) {
    std::string list;
    for (const std::string& knob : knobs) list += " " + knob;
    std::fprintf(stderr,
                 "hydrabench: refusing to run with knobs that change the "
                 "measured program:%s\n",
                 list.c_str());
    return 2;
  }

  std::printf(
      "{\"env\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"build_type\": %s, \"simd\": %s, \"nproc\": %u, \"cpu\": %s, "
      "\"io\": \"page-cache\"}}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0,
      JsonString(HYDRABENCH_BUILD_TYPE).c_str(),
      JsonString(hydra::SimdTargetName(hydra::ActiveSimdTarget())).c_str(),
      std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str());
  std::fflush(stdout);

  hydrabench::RunResult result;
  try {
    result = hydrabench::RunWorkload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hydrabench: %s: %s\n", config.workload.c_str(),
                 e.what());
    return 2;
  }
  if (!result.correct) {
    std::fprintf(stderr, "hydrabench: WRONG ANSWER: %s\n",
                 result.failure.c_str());
  }
  std::string metrics;
  for (const hydrabench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "hydrabench: %s is not a finite number\n",
                   m.name.c_str());
      return 2;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.correct ? 0 : 1;
}
