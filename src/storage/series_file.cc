#include "storage/series_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/crc32.h"

namespace hydra {
namespace {

constexpr size_t kHeaderBytes = 4 * sizeof(uint64_t);  // magic+ver+n+len
// Series checksummed per Crc32cBlocks call while a read is verified: a
// stack array of checksums, so verifying ReadAll allocates nothing.
constexpr size_t kVerifyChunk = 64;

// A storage failure: "what: path @ offset N (errno E: text)", so a
// failure in a multi-file experiment names the file and byte it died
// on. The same fields travel as a structured IoContext, so remote
// clients get them typed, not just as text.
Status Failure(StatusCode code, const std::string& what,
               const std::string& path, uint64_t offset, int err = 0) {
  std::string message =
      what + ": " + path + " @ offset " + std::to_string(offset);
  if (err != 0) {
    message += " (errno " + std::to_string(err) + ": " +
               std::strerror(err) + ")";
  }
  IoContext ctx;
  ctx.path = path;
  ctx.offset = offset;
  ctx.sys_errno = err;
  return Status(code, std::move(message)).WithIoContext(std::move(ctx));
}

// Reads `bytes` at `offset` with pread, resuming partial transfers and
// retrying EINTR. Returns the bytes read; fewer than asked means the file
// ended (`*err` = 0) or a read failed (`*err` = its errno).
size_t PreadFull(int fd, void* out, size_t bytes, uint64_t offset, int* err) {
  auto* dst = static_cast<char*>(out);
  size_t got = 0;
  *err = 0;
  while (got < bytes) {
    const ssize_t n = ::pread(fd, dst + got, bytes - got,
                              static_cast<off_t>(offset + got));
    if (n > 0) {
      got += static_cast<size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      *err = errno;
      break;
    }
  }
  return got;
}

}  // namespace

Status WriteSeriesFile(const std::string& path, const Dataset& dataset) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    const int err = errno;
    return Failure(StatusCode::kIoError, "cannot open for write", path, 0, err);
  }
  uint64_t head[4] = {SeriesFileHeader::kMagic, SeriesFileHeader::kVersion,
                      dataset.size(), dataset.length()};
  bool ok = std::fwrite(head, sizeof(head), 1, f) == 1;
  if (ok && !dataset.values().empty()) {
    ok = std::fwrite(dataset.values().data(), sizeof(float),
                     dataset.values().size(),
                     f) == dataset.values().size();
  }
  // Integrity footer: one CRC-32C per series, computed from the payload
  // being written so verification catches anything the storage stack
  // changes afterwards.
  if (ok && dataset.size() > 0) {
    std::vector<uint32_t> checksums(dataset.size());
    Crc32cBlocks(dataset.data(), dataset.size(),
                 dataset.length() * sizeof(float), checksums.data());
    ok = std::fwrite(checksums.data(), sizeof(uint32_t), checksums.size(),
                     f) == checksums.size();
  }
  // fclose flushes the stdio buffer, so it can be the write that fails
  // (ENOSPC); errno is taken before it can overwrite an earlier error.
  int err = ok ? 0 : errno;
  if (std::fclose(f) != 0 && ok) {
    ok = false;
    err = errno;
  }
  return ok ? Status::OK()
            : Failure(StatusCode::kIoError, "short write", path, 0, err);
}

Result<std::unique_ptr<SeriesFileReader>> SeriesFileReader::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    return Failure(StatusCode::kIoError, "cannot open for read", path, 0, err);
  }
  // The reader owns the descriptor from here on, so every return below
  // closes it.
  std::unique_ptr<SeriesFileReader> reader(new SeriesFileReader(fd, path));
  uint64_t head[4];
  int err = 0;
  if (PreadFull(fd, head, sizeof(head), 0, &err) != sizeof(head)) {
    return Failure(StatusCode::kIoError, "short header read", path, 0, err);
  }
  if (head[0] != SeriesFileHeader::kMagic) {
    return Failure(StatusCode::kInvalidArgument, "bad magic", path, 0);
  }
  if (head[1] != 1 && head[1] != SeriesFileHeader::kVersion) {
    return Failure(StatusCode::kInvalidArgument,
                   "unsupported version " + std::to_string(head[1]), path, 0);
  }
  // The header's counts size everything below, so they are checked
  // first: the bytes they claim must fit in 64 bits, and a version-2
  // file must hold them before its footer is allocated. A version-1
  // file may still be truncated (reads and ReadAll fail IoError).
  const bool has_footer = head[1] >= 2;
  uint64_t per_series = 0;  // payload bytes, plus footer bytes in v2
  uint64_t end = 0;
  if (__builtin_mul_overflow(head[3], uint64_t{sizeof(float)}, &per_series) ||
      __builtin_add_overflow(per_series,
                             has_footer ? uint64_t{sizeof(uint32_t)} : 0,
                             &per_series) ||
      __builtin_mul_overflow(head[2], per_series, &end) ||
      __builtin_add_overflow(end, uint64_t{kHeaderBytes}, &end)) {
    return Failure(StatusCode::kInvalidArgument,
                   "header claims more bytes than 64 bits hold: " +
                       std::to_string(head[2]) + " series of length " +
                       std::to_string(head[3]),
                   path, 0);
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    err = errno;
    return Failure(StatusCode::kIoError, "cannot stat", path, 0, err);
  }
  reader->file_bytes_ = static_cast<uint64_t>(st.st_size);
  if (has_footer && end > reader->file_bytes_) {
    return Failure(StatusCode::kIoError,
                   "file shorter than its header claims: " +
                       std::to_string(end) + " bytes expected",
                   path, reader->file_bytes_);
  }
  reader->header_.num_series = head[2];
  reader->header_.length = head[3];
  // Version 2 carries the checksum footer after the payload; load it up
  // front so every ReadSeries can verify without extra reads. Version-1
  // files leave `checksums_` empty and skip verification.
  if (has_footer && head[2] > 0) {
    const uint64_t footer_at = kHeaderBytes + head[2] * head[3] * sizeof(float);
    std::vector<uint32_t>& checksums = reader->checksums_;
    checksums.resize(head[2]);
    const size_t footer_bytes = checksums.size() * sizeof(uint32_t);
    if (PreadFull(fd, checksums.data(), footer_bytes, footer_at, &err) !=
        footer_bytes) {
      return Failure(StatusCode::kIoError, "short checksum footer read", path,
                     footer_at, err);
    }
  }
  return reader;
}

SeriesFileReader::~SeriesFileReader() { ::close(fd_); }

void SeriesFileReader::set_fault_config(const FaultConfig& config) {
  std::lock_guard<std::mutex> lock(injectors_mu_);
  injectors_.push_back(std::make_unique<FaultInjector>(config));
  injector_.store(injectors_.back().get(), std::memory_order_release);
}

Status SeriesFileReader::ReadSeries(uint64_t first, uint64_t count,
                                    float* out, QueryCounters* counters) {
  // `first + count` can wrap around 64 bits, so the check subtracts.
  if (first > header_.num_series || count > header_.num_series - first) {
    return Status::OutOfRange(
        "read past end of series file: " + std::to_string(count) +
        " series from series " + std::to_string(first) + " of " +
        std::to_string(header_.num_series) + " in " + path_);
  }
  const uint64_t stride = header_.length * sizeof(float);
  const uint64_t offset = kHeaderBytes + first * stride;
  // Fault-injection verdict for this attempt, drawn before any real work
  // so injected failures cost no I/O (a failed device request returns
  // without transferring data).
  FaultInjector* const injector = injector_.load(std::memory_order_acquire);
  FaultInjector::Decision fault;
  if (injector->enabled()) {
    fault = injector->Decide(first, count, count * header_.length);
    if (fault.latency_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(fault.latency_us));
    }
    if (fault.permanent_error) {
      return Failure(StatusCode::kIoError, "injected permanent I/O error",
                     path_, offset);
    }
    if (fault.transient_error) {
      return Failure(StatusCode::kUnavailable,
                     "injected transient I/O error", path_, offset);
    }
    if (fault.short_read) {
      return Failure(StatusCode::kUnavailable, "injected short read", path_,
                     offset);
    }
  }
  const size_t want = count * stride;
  int err = 0;
  const size_t got = PreadFull(fd_, out, want, offset, &err);
  if (got != want) {
    // End of file here means the file is shorter than its header claims:
    // that never heals, so it is a plain IoError. A failed read (EIO from
    // a flaky device) may clear on re-read, so it is retryable
    // Unavailable.
    return Failure(err == 0 ? StatusCode::kIoError : StatusCode::kUnavailable,
                   "short payload read: got " + std::to_string(got) + " of " +
                       std::to_string(want) + " bytes of series [" +
                       std::to_string(first) + ", " +
                       std::to_string(first + count) + ")",
                   path_, offset, err);
  }
  const uint64_t previous =
      next_sequential_.exchange(first + count, std::memory_order_relaxed);
  if (counters != nullptr) {
    counters->bytes_read += want;
    counters->series_accessed += count;
    if (previous != first) ++counters->random_ios;
  }
  // Injected corruption flips payload bits AFTER the (correct) disk read,
  // modeling the device lying; on version-2 files the checksum pass below
  // is what catches it.
  injector->CorruptPayload(fault, out, count * header_.length);
  return checksums_.empty() ? Status::OK() : Verify(first, count, out);
}

Status SeriesFileReader::Verify(uint64_t first, uint64_t count,
                                const float* data) const {
  const uint64_t stride = header_.length * sizeof(float);
  uint32_t actual[kVerifyChunk];
  for (uint64_t done = 0; done < count; done += kVerifyChunk) {
    const uint64_t n = std::min<uint64_t>(kVerifyChunk, count - done);
    Crc32cBlocks(data + done * header_.length, n, stride, actual);
    for (uint64_t i = 0; i < n; ++i) {
      if (actual[i] != checksums_[first + done + i]) {
        const uint64_t series = first + done + i;
        return Failure(StatusCode::kDataCorruption,
                       "checksum mismatch on series " +
                           std::to_string(series),
                       path_, kHeaderBytes + series * stride);
      }
    }
  }
  return Status::OK();
}

Result<Dataset> SeriesFileReader::ReadAll(QueryCounters* counters) {
  // Open checked that this fits in 64 bits; a version-1 file may still
  // be shorter than it, and the Dataset is sized only once it is not.
  const uint64_t end =
      kHeaderBytes + header_.num_series * header_.length * sizeof(float);
  if (end > file_bytes_) {
    return Failure(StatusCode::kIoError,
                   "file shorter than its header claims: " +
                       std::to_string(end) + " bytes expected",
                   path_, file_bytes_);
  }
  Dataset ds(header_.num_series, header_.length);
  if (header_.num_series > 0) {
    HYDRA_RETURN_IF_ERROR(ReadSeries(0, header_.num_series,
                                     ds.mutable_series(0).data(), counters));
  }
  return ds;
}

}  // namespace hydra
