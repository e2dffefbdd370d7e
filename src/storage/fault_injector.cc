#include "storage/fault_injector.h"

#include <cstdlib>
#include <cstring>

#include "common/options.h"

namespace hydra {
namespace {

// splitmix64: a full-avalanche mixer, so consecutive attempt numbers and
// nearby series offsets decorrelate into independent-looking draws.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Uniform draw in [0, 1) from (seed, key, salt). The salt separates the
// independent fault channels so e.g. the transient and corruption draws
// of one attempt are uncorrelated.
double Draw(uint64_t seed, uint64_t key, uint64_t salt) {
  const uint64_t h = Mix64(seed ^ Mix64(key ^ Mix64(salt)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Salts for the independent decision channels.
constexpr uint64_t kSaltTransient = 0x7472616E73ull;  // "trans"
constexpr uint64_t kSaltPermanent = 0x7065726Dull;    // "perm"
constexpr uint64_t kSaltShortRead = 0x73686F7274ull;  // "short"
constexpr uint64_t kSaltCorrupt = 0x636F7272ull;      // "corr"
constexpr uint64_t kSaltLatency = 0x6C6174ull;        // "lat"
constexpr uint64_t kSaltWord = 0x776F7264ull;         // "word"
constexpr uint64_t kSaltBit = 0x626974ull;            // "bit"

}  // namespace

FaultConfig FaultConfig::FromEnv() {
  FaultConfig config;
  config.seed = EnvOrU64("HYDRA_FAULT_SEED", 0);
  config.transient_rate = EnvOrRate("HYDRA_FAULT_TRANSIENT_RATE", 0.0);
  config.short_read_rate = EnvOrRate("HYDRA_FAULT_SHORT_READ_RATE", 0.0);
  config.permanent_rate = EnvOrRate("HYDRA_FAULT_PERMANENT_RATE", 0.0);
  config.corrupt_rate = EnvOrRate("HYDRA_FAULT_CORRUPT_RATE", 0.0);
  config.sticky_corruption =
      EnvOrU64("HYDRA_FAULT_STICKY_CORRUPTION", 0) != 0;
  config.latency_rate = EnvOrRate("HYDRA_FAULT_LATENCY_RATE", 0.0);
  config.latency_us = EnvOrU64("HYDRA_FAULT_LATENCY_US", 0);
  return config;
}

FaultInjector::Decision FaultInjector::Decide(uint64_t first,
                                              uint64_t /*count*/,
                                              uint64_t payload_floats) {
  Decision d;
  if (!config_.enabled()) return d;
  const uint64_t attempt = attempts_.fetch_add(1, relaxed_);

  // Location-keyed: identical verdict on every re-read of this range.
  if (config_.permanent_rate > 0.0 &&
      Draw(config_.seed, first, kSaltPermanent) < config_.permanent_rate) {
    d.permanent_error = true;
    injected_permanents_.fetch_add(1, relaxed_);
    return d;
  }
  // Attempt-keyed: a retry redraws and can succeed.
  if (config_.transient_rate > 0.0 &&
      Draw(config_.seed, attempt, kSaltTransient) < config_.transient_rate) {
    d.transient_error = true;
    injected_transients_.fetch_add(1, relaxed_);
    return d;
  }
  if (config_.short_read_rate > 0.0 &&
      Draw(config_.seed, attempt, kSaltShortRead) < config_.short_read_rate) {
    d.short_read = true;
    injected_short_reads_.fetch_add(1, relaxed_);
    return d;
  }
  if (config_.corrupt_rate > 0.0 && payload_floats > 0) {
    const uint64_t key = config_.sticky_corruption ? first : attempt;
    if (Draw(config_.seed, key, kSaltCorrupt) < config_.corrupt_rate) {
      d.corrupt = true;
      d.corrupt_word =
          Mix64(config_.seed ^ Mix64(key ^ kSaltWord)) % payload_floats;
      injected_corruptions_.fetch_add(1, relaxed_);
    }
  }
  if (config_.latency_rate > 0.0 && config_.latency_us > 0 &&
      Draw(config_.seed, attempt, kSaltLatency) < config_.latency_rate) {
    d.latency_us = config_.latency_us;
  }
  return d;
}

void FaultInjector::CorruptPayload(const Decision& d, float* data,
                                   uint64_t len) const {
  if (!d.corrupt || len == 0) return;
  const uint64_t word = d.corrupt_word % len;
  const uint32_t bit =
      Mix64(config_.seed ^ Mix64(d.corrupt_word ^ kSaltBit)) % 32u;
  uint32_t bits;
  std::memcpy(&bits, &data[word], sizeof(bits));
  bits ^= (1u << bit);
  std::memcpy(&data[word], &bits, sizeof(bits));
}

}  // namespace hydra
