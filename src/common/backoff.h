#ifndef HYDRA_COMMON_BACKOFF_H_
#define HYDRA_COMMON_BACKOFF_H_

#include <algorithm>
#include <cstdint>

namespace hydra {

// The retry delay every retrier in the system waits (the buffer pool's
// transient-read retries, the connection pool's reconnects), in
// microseconds: exponential in `attempt` with a cap — a stall should
// heal in microseconds to milliseconds, not seconds — plus
// deterministic jitter of up to half the delay from (key, attempt), so
// concurrent retriers of different keys (pages, endpoints) decorrelate
// without a shared RNG. A zero base gives zero. Each caller keeps its
// own way of waiting (a plain sleep, or an interruptible wait).
inline uint64_t BackoffDelayUs(uint64_t base_us, uint64_t cap_us, uint64_t key,
                               uint64_t attempt) {
  uint64_t delay = base_us << std::min<uint64_t>(attempt, 6);
  delay = std::min<uint64_t>(delay, cap_us);
  uint64_t h = (key + 1) * 0x9E3779B97F4A7C15ull;
  h ^= (attempt + 1) * 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  return delay + h % (delay / 2 + 1);
}

}  // namespace hydra

#endif  // HYDRA_COMMON_BACKOFF_H_
