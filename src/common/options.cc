#include "common/options.h"

#include <cstdlib>
#include <cstring>

namespace hydra {
namespace {

const char* RawEnv(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : nullptr;
}

}  // namespace

uint64_t EnvOrU64(const char* name, uint64_t fallback) {
  const char* v = RawEnv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  return (end != v && *end == '\0') ? static_cast<uint64_t>(parsed) : fallback;
}

size_t EnvOrSize(const char* name, size_t fallback) {
  return static_cast<size_t>(
      EnvOrU64(name, static_cast<uint64_t>(fallback)));
}

double EnvOrDouble(const char* name, double fallback) {
  const char* v = RawEnv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return (end != v && *end == '\0') ? parsed : fallback;
}

double EnvOrRate(const char* name, double fallback) {
  double rate = EnvOrDouble(name, fallback);
  if (rate < 0.0) rate = 0.0;
  if (rate > 1.0) rate = 1.0;
  return rate;
}

const char* EnvOrString(const char* name, const char* fallback) {
  const char* v = RawEnv(name);
  return v != nullptr ? v : fallback;
}

std::vector<size_t> ParseCountList(const char* text,
                                   std::vector<size_t> fallback) {
  if (text == nullptr) return fallback;
  std::vector<size_t> counts;
  const std::string s(text);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string token = s.substr(pos, comma - pos);
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(token.c_str(), &end, 10);
    if (end != token.c_str() && *end == '\0' && parsed > 0) {
      counts.push_back(static_cast<size_t>(parsed));
    }
    pos = comma + 1;
  }
  return counts.empty() ? fallback : counts;
}

uint64_t ResolveOptionU64(uint64_t explicit_value, const char* env_name,
                          uint64_t fallback, uint64_t unset) {
  if (explicit_value != unset) return explicit_value;
  return EnvOrU64(env_name, fallback);
}

size_t ResolveOptionSize(size_t explicit_value, const char* env_name,
                         size_t fallback, size_t unset) {
  if (explicit_value != unset) return explicit_value;
  return EnvOrSize(env_name, fallback);
}

double ResolveOptionDouble(double explicit_value, const char* env_name,
                           double fallback, double unset) {
  if (explicit_value != unset) return explicit_value;
  return EnvOrDouble(env_name, fallback);
}

const std::vector<KnobInfo>& KnobTable() {
  // Grouped by scope; ordering is the README presentation order.
  static const std::vector<KnobInfo> kKnobs = {
      // Execution.
      {"HYDRA_THREADS", "hardware_concurrency", "exec",
       "Worker count of the process-wide work-stealing pool "
       "(read once at first use)."},
      {"HYDRA_SIMD", "auto-detect", "distance",
       "Force the distance-kernel target: scalar | sse2 | avx2."},
      {"HYDRA_PREFETCH", "0 (off)", "scan",
       "Default readahead depth in pool pages when "
       "SearchParams::prefetch_depth is unset (read once)."},
      {"HYDRA_BATCH_WINDOW", "1 (no coalescing)", "serving",
       "Default scheduler coalescing window when "
       "ServingOptions::batch_window is unset."},
      {"HYDRA_TENANT_QUEUE", "0 (shared cap only)", "serving",
       "Default per-tenant pending-queue cap when "
       "ServingOptions::tenant_queue_capacity is unset."},
      // Storage.
      {"HYDRA_IO_RETRIES", "3", "storage",
       "Transient-read retry budget per page load (fixed at pool open)."},
      {"HYDRA_IO_BACKOFF_US", "100", "storage",
       "Base microseconds of the exponential retry backoff."},
      // Fault injection (storage/fault_injector.h).
      {"HYDRA_FAULT_SEED", "0", "faults",
       "Seed of the deterministic fault stream; 0 still injects when "
       "a rate is set."},
      {"HYDRA_FAULT_TRANSIENT_RATE", "0", "faults",
       "Probability a read attempt fails with a retryable I/O error."},
      {"HYDRA_FAULT_SHORT_READ_RATE", "0", "faults",
       "Probability a read returns fewer bytes than asked."},
      {"HYDRA_FAULT_PERMANENT_RATE", "0", "faults",
       "Probability a series becomes permanently unreadable."},
      {"HYDRA_FAULT_CORRUPT_RATE", "0", "faults",
       "Probability a read is delivered with flipped bits."},
      {"HYDRA_FAULT_STICKY_CORRUPTION", "0", "faults",
       "1 = corruption persists across retries (media damage, not bus "
       "noise)."},
      {"HYDRA_FAULT_LATENCY_RATE", "0", "faults",
       "Probability a read attempt is delayed (1 with "
       "HYDRA_FAULT_LATENCY_US emulates a slow device)."},
      {"HYDRA_FAULT_LATENCY_US", "0", "faults",
       "Injected delay in microseconds for delayed attempts."},
      // Replicated serving (net/replica_set.h, net/conn_pool.h).
      {"HYDRA_HEDGE_MS", "20", "replication",
       "Hedged-request delay before a backup attempt launches when "
       "ReplicaSetOptions::hedge_ms is unset (kHedged policy only)."},
      {"HYDRA_PROBE_MS", "100", "replication",
       "Connection-pool health probe period (StatsRequest ping) when "
       "ConnPoolOptions::probe_ms is unset."},
      {"HYDRA_REPLICA_RETRIES", "2", "replication",
       "Per-query re-submission budget after retry-safe typed failures "
       "when ReplicaSetOptions::retry_budget is unset."},
      // Test stress levels (the CI lanes raise them).
      {"HYDRA_CONCURRENCY", "none", "tests",
       "Extra concurrency levels for the serving and sharded suites "
       "(comma-separated)."},
      {"HYDRA_SHARDS", "1,2,4,8", "tests",
       "Shard counts the sharded serving suite sweeps."},
      {"HYDRA_SERVING_POOL_PAGES", "16", "tests",
       "Pool capacity of the serving/chaos test suites."},
  };
  return kKnobs;
}

std::string KnobTableMarkdown() {
  std::string out;
  out += "| knob | default | scope | meaning |\n";
  out += "| --- | --- | --- | --- |\n";
  for (const KnobInfo& k : KnobTable()) {
    out += "| `";
    out += k.name;
    out += "` | ";
    out += k.fallback;
    out += " | ";
    out += k.scope;
    out += " | ";
    // A literal '|' would end the markdown cell.
    for (const char* c = k.description; *c != '\0'; ++c) {
      if (*c == '|') out += '\\';
      out += *c;
    }
    out += " |\n";
  }
  return out;
}

}  // namespace hydra
