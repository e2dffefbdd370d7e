#include "common/codec.h"

#include <cstdio>

#include "common/crc32.h"

namespace hydra {

void EncodeStatus(const Status& st, ByteWriter* w) {
  w->U16(static_cast<uint16_t>(st.code()));
  w->Str(st.message());
  w->U8(st.has_io_context() ? 1 : 0);
  if (st.has_io_context()) {
    const IoContext& ctx = st.io_context();
    w->Str(ctx.path);
    w->U64(ctx.offset);
    w->U32(static_cast<uint32_t>(ctx.sys_errno));
  }
}

Status DecodeStatus(ByteReader* r, Status* out) {
  uint16_t code = 0;
  HYDRA_RETURN_IF_ERROR(r->U16(&code));
  if (code > static_cast<uint16_t>(StatusCode::kCancelled)) {
    return Status::InvalidArgument("unknown status code on wire: " +
                                   std::to_string(code));
  }
  std::string message;
  HYDRA_RETURN_IF_ERROR(r->Str(&message));
  uint8_t has_ctx = 0;
  HYDRA_RETURN_IF_ERROR(r->U8(&has_ctx));
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  if (has_ctx != 0) {
    IoContext ctx;
    uint32_t sys_errno = 0;
    HYDRA_RETURN_IF_ERROR(r->Str(&ctx.path));
    HYDRA_RETURN_IF_ERROR(r->U64(&ctx.offset));
    HYDRA_RETURN_IF_ERROR(r->U32(&sys_errno));
    ctx.sys_errno = static_cast<int32_t>(sys_errno);
    out->WithIoContext(std::move(ctx));
  }
  return Status::OK();
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open for write: " + path);
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) return Status::IoError("short write: " + path);
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open for read: " + path);
  std::string bytes;
  char chunk[1 << 16];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.append(chunk, got);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read failed: " + path);
  return bytes;
}

void SealIndexFile(std::string* bytes) {
  ByteWriter(bytes).U32(Crc32c(bytes->data(), bytes->size()));
}

Result<ByteReader> OpenIndexFile(const std::string& bytes, uint32_t magic,
                                 uint32_t version, const std::string& kind,
                                 const std::string& path) {
  const std::span<const char> all(bytes);
  uint32_t footer = 0;
  const bool sealed = all.size() >= 4 &&
                      ByteReader(all.last(4)).U32(&footer).ok() &&
                      footer == Crc32c(all.data(), all.size() - 4);
  ByteReader reader(sealed ? all.first(all.size() - 4) : all);
  uint32_t file_magic = 0;
  uint32_t file_version = 0;
  const bool headed = reader.U32(&file_magic).ok() &&
                      reader.U32(&file_version).ok() && file_magic == magic;
  auto unsupported = [&] {
    return Status::InvalidArgument("unsupported " + kind + " version: " +
                                   path);
  };
  if (!sealed) {
    if (headed && file_version == 1) return unsupported();
    return Status::DataCorruption(kind + " index file fails its CRC-32C: " +
                                  path);
  }
  if (!headed) {
    return Status::InvalidArgument(kind + " index file magic not found: " +
                                   path);
  }
  if (file_version != version) return unsupported();
  return reader;
}

}  // namespace hydra
