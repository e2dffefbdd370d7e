#include "storage/series_file.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/crc32.h"

namespace hydra {
namespace {

constexpr size_t kHeaderBytes = 4 * sizeof(uint64_t);  // magic+ver+n+len

// "path @ offset N" context appended to every I/O status message so a
// failure in a multi-file experiment names the file and byte it died
// on; the same fields travel as a structured IoContext (see Ctx) so
// remote clients get them typed, not just as text.
std::string At(const std::string& path, uint64_t offset) {
  return path + " @ offset " + std::to_string(offset);
}

IoContext Ctx(const std::string& path, uint64_t offset, int err = 0) {
  IoContext ctx;
  ctx.path = path;
  ctx.offset = offset;
  ctx.sys_errno = err;
  return ctx;
}

std::string ErrnoDetail(int err) {
  return err != 0 ? std::string(" (errno ") + std::to_string(err) + ": " +
                        std::strerror(err) + ")"
                  : std::string();
}

}  // namespace

Status WriteSeriesFile(const std::string& path, const Dataset& dataset) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    const int err = errno;
    return Status::IoError("cannot open for write: " + path + ErrnoDetail(err))
        .WithIoContext(Ctx(path, 0, err));
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
    for (uint64_t i = 0; i < dataset.size(); ++i) {
      checksums[i] =
          Crc32c(dataset.series(i).data(), dataset.length() * sizeof(float));
    }
    ok = std::fwrite(checksums.data(), sizeof(uint32_t), checksums.size(),
                     f) == checksums.size();
  }
  std::fclose(f);
  if (!ok) {
    const int err = errno;
    return Status::IoError("short write: " + path + ErrnoDetail(err))
        .WithIoContext(Ctx(path, 0, err));
  }
  return Status::OK();
}

Result<std::unique_ptr<SeriesFileReader>> SeriesFileReader::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    const int err = errno;
    return Status::IoError("cannot open for read: " + path + ErrnoDetail(err))
        .WithIoContext(Ctx(path, 0, err));
  }
  uint64_t head[4];
  if (std::fread(head, sizeof(head), 1, f) != 1) {
    std::fclose(f);
    return Status::IoError("short header read: " + path)
        .WithIoContext(Ctx(path, 0));
  }
  if (head[0] != SeriesFileHeader::kMagic) {
    std::fclose(f);
    return Status::InvalidArgument("bad magic in " + path)
        .WithIoContext(Ctx(path, 0));
  }
  if (head[1] != 1 && head[1] != SeriesFileHeader::kVersion) {
    std::fclose(f);
    return Status::InvalidArgument("unsupported version " +
                                   std::to_string(head[1]) + " in " + path)
        .WithIoContext(Ctx(path, 0));
  }
  SeriesFileHeader header;
  header.num_series = head[2];
  header.length = head[3];
  // Version 2 carries the checksum footer after the payload; load it up
  // front so every ReadSeries can verify without extra seeks. Version-1
  // files leave `checksums` empty and skip verification.
  std::vector<uint32_t> checksums;
  if (head[1] >= 2 && header.num_series > 0) {
    const uint64_t footer_at =
        kHeaderBytes +
        header.num_series * header.length * sizeof(float);
    checksums.resize(header.num_series);
    if (std::fseek(f, static_cast<long>(footer_at), SEEK_SET) != 0 ||
        std::fread(checksums.data(), sizeof(uint32_t), checksums.size(), f) !=
            checksums.size()) {
      std::fclose(f);
      return Status::IoError("short checksum footer read: " +
                             At(path, footer_at))
          .WithIoContext(Ctx(path, footer_at));
    }
  }
  return std::unique_ptr<SeriesFileReader>(
      new SeriesFileReader(f, header, path, std::move(checksums)));
}

SeriesFileReader::~SeriesFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

void SeriesFileReader::set_fault_config(const FaultConfig& config) {
  std::lock_guard<std::mutex> lock(injectors_mu_);
  injectors_.push_back(std::make_unique<FaultInjector>(config));
  injector_.store(injectors_.back().get(), std::memory_order_release);
}

Status SeriesFileReader::ReadSeries(uint64_t first, uint64_t count,
                                    float* out, QueryCounters* counters) {
  if (first + count > header_.num_series) {
    return Status::OutOfRange(
        "read past end of series file: series [" + std::to_string(first) +
        ", " + std::to_string(first + count) + ") of " +
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
      return Status::IoError("injected permanent I/O error: " +
                             At(path_, offset))
          .WithIoContext(Ctx(path_, offset));
    }
    if (fault.transient_error) {
      return Status::Unavailable("injected transient I/O error: " +
                                 At(path_, offset))
          .WithIoContext(Ctx(path_, offset));
    }
    if (fault.short_read) {
      return Status::Unavailable("injected short read: " + At(path_, offset))
          .WithIoContext(Ctx(path_, offset));
    }
  }
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
      const int err = errno;
      return Status::IoError("seek failed: " + At(path_, offset) +
                             ErrnoDetail(err))
          .WithIoContext(Ctx(path_, offset, err));
    }
    size_t want = static_cast<size_t>(count * header_.length);
    size_t got = std::fread(out, sizeof(float), want, file_);
    if (got != want) {
      // A true end-of-file here means the file is shorter than its header
      // claims — that never heals, so it is a plain IoError. A stream
      // error (EINTR, EIO from a flaky device) may clear on re-read, so
      // it surfaces as retryable Unavailable.
      const bool at_eof = std::feof(file_) != 0;
      const int err = at_eof ? 0 : errno;
      std::clearerr(file_);
      const std::string detail =
          "short payload read: got " + std::to_string(got) + " of " +
          std::to_string(want) + " floats, series [" + std::to_string(first) +
          ", " + std::to_string(first + count) + ") in " + At(path_, offset) +
          ErrnoDetail(err);
      return (at_eof ? Status::IoError(detail) : Status::Unavailable(detail))
          .WithIoContext(Ctx(path_, offset, err));
    }
    if (counters != nullptr) {
      counters->bytes_read += count * stride;
      counters->series_accessed += count;
      if (!any_read_ || first != next_sequential_) {
        ++counters->random_ios;
      }
    }
    any_read_ = true;
    next_sequential_ = first + count;
  }
  // Injected corruption flips payload bits AFTER the (correct) disk read,
  // modeling the device lying; on version-2 files the checksum pass below
  // is what catches it.
  injector->CorruptPayload(fault, out, count * header_.length);
  if (!checksums_.empty()) {
    for (uint64_t i = 0; i < count; ++i) {
      const uint32_t actual =
          Crc32c(out + i * header_.length, stride);
      if (actual != checksums_[first + i]) {
        return Status::DataCorruption(
                   "checksum mismatch on series " + std::to_string(first + i) +
                   ": " + At(path_, offset + i * stride))
            .WithIoContext(Ctx(path_, offset + i * stride));
      }
    }
  }
  return Status::OK();
}

Result<Dataset> SeriesFileReader::ReadAll(QueryCounters* counters) {
  Dataset ds(header_.num_series, header_.length);
  if (header_.num_series > 0) {
    HYDRA_RETURN_IF_ERROR(ReadSeries(0, header_.num_series,
                                     ds.mutable_series(0).data(), counters));
  }
  return ds;
}

}  // namespace hydra
