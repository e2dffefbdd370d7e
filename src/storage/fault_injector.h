#ifndef HYDRA_STORAGE_FAULT_INJECTOR_H_
#define HYDRA_STORAGE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>

namespace hydra {

// Deterministic storage-fault injection, wired into SeriesFileReader (and
// therefore into every demand-fetch and prefetch load of the buffer
// pool). Production disks return short reads, transient EIOs, latency
// spikes, and silently corrupted pages; this hook makes every one of
// those reproducible in tests and CI so the retry/backoff, checksum, and
// error-propagation paths are exercised as a contract instead of
// decoration.
//
// Determinism: every decision is a pure function of (seed, key) through a
// splitmix64 hash — no global RNG state, no timing dependence. Two kinds
// of key keep the semantics honest:
//   * attempt-keyed faults (transient error, short read, one-shot
//     corruption, latency spike) hash a per-injector attempt counter, so
//     a RETRY of the same page redraws its fate — the mechanism that lets
//     bounded retries succeed, deterministically for a fixed sequence of
//     read attempts;
//   * location-keyed faults (permanent error, sticky corruption) hash the
//     series offset, so every re-read of the same range fails the same
//     way — the mechanism that forces give-ups to surface as typed
//     statuses.
//
// Configure programmatically (tests) or via environment knobs read at
// SeriesFileReader::Open (chaos CI lanes):
//   HYDRA_FAULT_SEED            decision seed (default 0)
//   HYDRA_FAULT_TRANSIENT_RATE  P(transient error) per read attempt
//   HYDRA_FAULT_SHORT_READ_RATE P(short read) per read attempt
//   HYDRA_FAULT_PERMANENT_RATE  P(permanent error) per series location
//   HYDRA_FAULT_CORRUPT_RATE    P(bit-flip corruption) per read attempt
//   HYDRA_FAULT_STICKY_CORRUPTION=1  key corruption by location instead
//   HYDRA_FAULT_LATENCY_RATE    P(latency spike) per read attempt
//   HYDRA_FAULT_LATENCY_US      spike duration in microseconds
// All rates are in [0, 1]; everything defaults to 0 = no injection.
struct FaultConfig {
  uint64_t seed = 0;
  double transient_rate = 0.0;
  double short_read_rate = 0.0;
  double permanent_rate = 0.0;
  double corrupt_rate = 0.0;
  bool sticky_corruption = false;
  double latency_rate = 0.0;
  uint64_t latency_us = 0;

  bool enabled() const {
    return transient_rate > 0.0 || short_read_rate > 0.0 ||
           permanent_rate > 0.0 || corrupt_rate > 0.0 || latency_rate > 0.0;
  }

  // Parses the HYDRA_FAULT_* knobs above (absent/invalid = default).
  static FaultConfig FromEnv();
};

class FaultInjector {
 public:
  // The verdict for one read attempt. At most one failure fires per
  // attempt (checked in the order permanent > transient > short read, so
  // location-keyed faults dominate); corruption and latency can ride
  // along with a successful read.
  struct Decision {
    bool permanent_error = false;  // fails now and on every re-read
    bool transient_error = false;  // fails now; a retry redraws
    bool short_read = false;       // device returned fewer bytes (transient)
    bool corrupt = false;          // payload bit-flipped after the read
    uint64_t corrupt_word = 0;     // which float of the payload to flip
    uint64_t latency_us = 0;       // injected latency spike (0 = none)
  };

  explicit FaultInjector(const FaultConfig& config) : config_(config) {}

  bool enabled() const { return config_.enabled(); }
  const FaultConfig& config() const { return config_; }

  // Decides the fate of a read attempt covering series
  // [first, first + count). Location-keyed verdicts depend on `first`
  // alone. Thread-safe; each call consumes one attempt number, so a fixed
  // sequence of read attempts maps to a fixed sequence of verdicts.
  Decision Decide(uint64_t first, uint64_t count, uint64_t payload_floats);

  // Applies `d`'s corruption to a payload of `len` floats: flips one bit
  // of the selected word. Deterministic in (seed, corrupt_word).
  void CorruptPayload(const Decision& d, float* data, uint64_t len) const;

  // Injection telemetry, for tests asserting that faults actually fired.
  uint64_t attempts() const { return attempts_.load(relaxed_); }
  uint64_t injected_transients() const {
    return injected_transients_.load(relaxed_);
  }
  uint64_t injected_permanents() const {
    return injected_permanents_.load(relaxed_);
  }
  uint64_t injected_short_reads() const {
    return injected_short_reads_.load(relaxed_);
  }
  uint64_t injected_corruptions() const {
    return injected_corruptions_.load(relaxed_);
  }

 private:
  static constexpr auto relaxed_ = std::memory_order_relaxed;

  FaultConfig config_;
  std::atomic<uint64_t> attempts_{0};
  std::atomic<uint64_t> injected_transients_{0};
  std::atomic<uint64_t> injected_permanents_{0};
  std::atomic<uint64_t> injected_short_reads_{0};
  std::atomic<uint64_t> injected_corruptions_{0};
};

}  // namespace hydra

#endif  // HYDRA_STORAGE_FAULT_INJECTOR_H_
