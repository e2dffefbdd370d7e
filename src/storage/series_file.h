#ifndef HYDRA_STORAGE_SERIES_FILE_H_
#define HYDRA_STORAGE_SERIES_FILE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "core/dataset.h"
#include "storage/fault_injector.h"

namespace hydra {

// Flat binary dataset file: a small fixed header (magic, version,
// num_series, length) followed by the row-major float32 payload — the
// layout the original data-series tools consume, with an explicit header
// so files are self-describing.
//
// Format version 2 appends an integrity footer after the payload:
// num_series × uint32 CRC-32C, one checksum per series. Checksums are
// per-series rather than per-page because the pool's page size
// (series_per_page) is chosen at BufferManager::Open time, long after the
// file was written; per-series checksums verify any read granularity.
// Version-1 files (no footer) remain readable — verification is simply
// skipped, so pre-existing datasets keep working.
//
// All reads funnel through SeriesFileReader, which charges bytes and
// random-I/O counts to the caller's QueryCounters. A read is "random"
// when it is not contiguous with the previous read, matching how the
// paper counts disk seeks. Every read of a version-2 file is verified
// against the footer; a mismatch surfaces as Status::DataCorruption
// (retryable: the buffer pool re-reads once before giving up). I/O
// failures carry errno, file path and byte offset in the status message.
//
// ReadSeries is thread-safe: an internal mutex serializes the seek+read
// pair and the sequentiality tracking, so the buffer pool's single-flight
// page loads may run from several threads at once. (Serializing reads
// models one disk arm; the paper's seek accounting assumes it anyway.)
//
// Fault injection: Open() arms a FaultInjector from the HYDRA_FAULT_*
// environment knobs (storage/fault_injector.h); tests and benches can
// replace it with set_fault_config, also while reads run. Its latency
// channel doubles as the device-latency emulator: at
// HYDRA_FAULT_LATENCY_RATE=1 every read sleeps HYDRA_FAULT_LATENCY_US
// BEFORE the mutex, so concurrent issuers overlap their waits as
// requests overlap in a real disk's queue. On dev boxes and CI the
// "disk" is the page cache — reads cost nanoseconds and nothing
// overlaps — so this is the honest way to study I/O-bound behavior (the
// async prefetch pipeline, pool thrashing) on such machines; it never
// changes WHAT is read, only how long it takes. Injected transient
// errors and short reads surface as Status::Unavailable (retryable),
// injected permanent errors as Status::IoError (not retryable), and
// injected bit flips corrupt the returned payload AFTER the disk read —
// on a version-2 file the checksum pass then catches them, which is
// exactly the detection path real corruption would take.
struct SeriesFileHeader {
  static constexpr uint32_t kMagic = 0x48594452;  // "HYDR"
  static constexpr uint32_t kVersion = 2;         // 1 = no checksum footer
  uint64_t num_series = 0;
  uint64_t length = 0;
};

// Writes `dataset` to `path` (format version 2, with the CRC-32C
// footer), overwriting any existing file.
Status WriteSeriesFile(const std::string& path, const Dataset& dataset);

class SeriesFileReader {
 public:
  static Result<std::unique_ptr<SeriesFileReader>> Open(
      const std::string& path);
  ~SeriesFileReader();

  SeriesFileReader(const SeriesFileReader&) = delete;
  SeriesFileReader& operator=(const SeriesFileReader&) = delete;

  uint64_t num_series() const { return header_.num_series; }
  uint64_t series_length() const { return header_.length; }
  const std::string& path() const { return path_; }

  // True when the file carries the version-2 checksum footer and every
  // read is verified.
  bool verifies_checksums() const { return !checksums_.empty(); }

  // Reads series [first, first + count) into `out` (count × length
  // floats). Charges bytes_read always, and one random_ios when the range
  // does not start where the previous read ended. On a version-2 file the
  // payload is verified against the checksum footer; a mismatch returns
  // Status::DataCorruption and the contents of `out` are unspecified.
  Status ReadSeries(uint64_t first, uint64_t count, float* out,
                    QueryCounters* counters);

  // Convenience: whole file into a Dataset (sequential, one seek).
  Result<Dataset> ReadAll(QueryCounters* counters);

  // Replaces the fault-injection config (normally armed from the
  // environment at Open). Safe while other threads read: a read in
  // progress finishes under the injector it loaded, later reads use the
  // new one.
  void set_fault_config(const FaultConfig& config);

  // Injection telemetry of the current injector, for tests. The
  // reference stays valid across later set_fault_config calls.
  const FaultInjector& fault_injector() const {
    return *injector_.load(std::memory_order_acquire);
  }

 private:
  SeriesFileReader(std::FILE* file, SeriesFileHeader header, std::string path,
                   std::vector<uint32_t> checksums)
      : file_(file),
        header_(header),
        path_(std::move(path)),
        checksums_(std::move(checksums)) {
    set_fault_config(FaultConfig::FromEnv());
  }

  std::FILE* file_;
  SeriesFileHeader header_;
  std::string path_;
  std::vector<uint32_t> checksums_;  // empty for version-1 files
  // The current injector: one acquire load per ReadSeries. Every
  // injector ever installed stays alive in `injectors_` until the reader
  // closes, so a reader (or a telemetry reference) holding a replaced
  // one never sees it freed. Swaps are rare (tests, benches), so the
  // retired ones cost a few bytes each.
  std::atomic<FaultInjector*> injector_{nullptr};
  std::mutex injectors_mu_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  std::mutex io_mu_;              // serializes seek+read+tracking below
  uint64_t next_sequential_ = 0;  // series index right after the last read
  bool any_read_ = false;
};

}  // namespace hydra

#endif  // HYDRA_STORAGE_SERIES_FILE_H_
