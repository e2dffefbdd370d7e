#ifndef HYDRA_STORAGE_SERIES_FILE_H_
#define HYDRA_STORAGE_SERIES_FILE_H_

#include <atomic>
#include <cstdint>
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
// (retryable: the buffer pool re-reads before giving up) naming the
// first series that differs and its byte offset. Verification is one
// code path for page misses, prefetch loads and ReadAll: the read series
// are checksummed in fixed-size chunks by Crc32cBlocks
// (common/crc32.h), which runs four independent CRC chains where the
// CPU has SSE4.2; WriteSeriesFile computes the footer with the same
// kernel. I/O failures carry errno, file path and byte offset in the
// status message.
//
// ReadSeries is thread-safe and takes no lock: each read is one pread
// loop on the file descriptor straight into the caller's buffer, so the
// buffer pool's single-flight page loads run from several threads at
// once, as requests share a real device's queue. The seek accounting
// exchanges one atomic "next sequential series", so each read is judged
// against whichever read finished just before it.
//
// Fault injection: Open() arms a FaultInjector from the HYDRA_FAULT_*
// environment knobs (storage/fault_injector.h); tests and benches can
// replace it with set_fault_config, also while reads run. Its latency
// channel doubles as the device-latency emulator: at
// HYDRA_FAULT_LATENCY_RATE=1 every read sleeps HYDRA_FAULT_LATENCY_US
// before it is issued, so concurrent issuers overlap their waits as
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
  // Reads the header and, for version 2, the footer. A header whose
  // counts overflow 64 bits fails InvalidArgument; a version-2 file too
  // short for its payload and footer fails IoError.
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
  // floats); a range that does not fit in the file is OutOfRange.
  // Charges bytes_read always, and one random_ios when the range does
  // not start where the previous read ended. On a version-2 file the
  // payload is verified against the checksum footer; a mismatch returns
  // Status::DataCorruption and the contents of `out` are unspecified.
  Status ReadSeries(uint64_t first, uint64_t count, float* out,
                    QueryCounters* counters);

  // Convenience: whole file into a Dataset (sequential, one seek). A
  // version-1 file shorter than its header claims fails IoError before
  // the Dataset is allocated.
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
  SeriesFileReader(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {
    set_fault_config(FaultConfig::FromEnv());
  }

  // Checks series [first, first + count), read into `data`, against the
  // footer; DataCorruption names the first series that differs.
  Status Verify(uint64_t first, uint64_t count, const float* data) const;

  const int fd_;
  SeriesFileHeader header_;
  std::string path_;
  uint64_t file_bytes_ = 0;          // the file's size at Open
  std::vector<uint32_t> checksums_;  // empty for version-1 files
  // The current injector: one acquire load per ReadSeries. Every
  // injector ever installed stays alive in `injectors_` until the reader
  // closes, so a reader (or a telemetry reference) holding a replaced
  // one never sees it freed. Swaps are rare (tests, benches), so the
  // retired ones cost a few bytes each.
  std::atomic<FaultInjector*> injector_{nullptr};
  std::mutex injectors_mu_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  // Series index right after the last read. It starts where no read
  // can start, so the first read counts as random.
  std::atomic<uint64_t> next_sequential_{UINT64_MAX};
};

}  // namespace hydra

#endif  // HYDRA_STORAGE_SERIES_FILE_H_
