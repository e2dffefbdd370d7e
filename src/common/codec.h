#ifndef HYDRA_COMMON_CODEC_H_
#define HYDRA_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace hydra {

// Little-endian byte codec shared by every serialized structure in the
// system (Status on the wire, the src/net/ frame payloads, the DSTree and
// iSAX2+ index files). Encoding is infallible appends into a growing
// buffer; decoding is bounds-checked and returns typed InvalidArgument
// on truncation — a corrupt or malicious byte stream can make a Decode
// fail, never read out of bounds. Multi-byte integers are written
// little-endian explicitly so the format is identical across hosts;
// floats round-trip bit for bit via their IEEE-754 representation
// (memcpy, no text conversion).
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Little(v, 2); }
  void U32(uint32_t v) { Little(v, 4); }
  void U64(uint64_t v) { Little(v, 8); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U32(bits);
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  // Length-prefixed (u32) byte string.
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s);
  }
  void FloatSpan(std::span<const float> v) {
    U64(v.size());
    for (float f : v) F32(f);
  }
  void DoubleSpan(std::span<const double> v) {
    U64(v.size());
    for (double d : v) F64(d);
  }
  // Integer vectors, each element at its own width.
  void U8Span(std::span<const uint8_t> v) { IntSpan(v); }
  void U16Span(std::span<const uint16_t> v) { IntSpan(v); }
  void I32Span(std::span<const int32_t> v) { IntSpan(v); }
  void U64Span(std::span<const uint64_t> v) { IntSpan(v); }
  void I64Span(std::span<const int64_t> v) { IntSpan(v); }

 private:
  template <typename T>
  void IntSpan(std::span<const T> v) {
    U64(v.size());
    for (T x : v) {
      Little(static_cast<uint64_t>(x), static_cast<int>(sizeof(T)));
    }
  }
  void Little(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out_->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  std::string* out_;
};

// Bounds-checked reader over an immutable byte span. Every accessor
// either fills its out-parameter and returns OK or leaves the cursor
// where it was and returns InvalidArgument naming what was truncated.
class ByteReader {
 public:
  explicit ByteReader(std::span<const char> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  Status U8(uint8_t* v) {
    if (remaining() < 1) return Truncated("u8");
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }
  Status U16(uint16_t* v) {
    uint64_t w = 0;
    HYDRA_RETURN_IF_ERROR(Little(&w, 2, "u16"));
    *v = static_cast<uint16_t>(w);
    return Status::OK();
  }
  Status U32(uint32_t* v) {
    uint64_t w = 0;
    HYDRA_RETURN_IF_ERROR(Little(&w, 4, "u32"));
    *v = static_cast<uint32_t>(w);
    return Status::OK();
  }
  Status U64(uint64_t* v) { return Little(v, 8, "u64"); }
  Status I32(int32_t* v) {
    uint64_t w = 0;
    HYDRA_RETURN_IF_ERROR(Little(&w, 4, "i32"));
    *v = static_cast<int32_t>(static_cast<uint32_t>(w));
    return Status::OK();
  }
  Status I64(int64_t* v) {
    uint64_t w = 0;
    HYDRA_RETURN_IF_ERROR(Little(&w, 8, "i64"));
    *v = static_cast<int64_t>(w);
    return Status::OK();
  }
  Status F32(float* v) {
    uint32_t bits = 0;
    HYDRA_RETURN_IF_ERROR(U32(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }
  Status F64(double* v) {
    uint64_t bits = 0;
    HYDRA_RETURN_IF_ERROR(U64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }
  Status Str(std::string* s) {
    uint32_t len = 0;
    HYDRA_RETURN_IF_ERROR(U32(&len));
    if (remaining() < len) return Truncated("string body");
    s->assign(data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }
  // Count-prefixed vectors. The count is validated against the bytes
  // actually present BEFORE any allocation, so a corrupt length field
  // cannot be turned into a giant allocation.
  Status FloatVec(std::vector<float>* v) {
    uint64_t n = 0;
    HYDRA_RETURN_IF_ERROR(U64(&n));
    // Divide, never multiply: a hostile count must not overflow the check.
    if (n > remaining() / 4) return Truncated("float vector body");
    v->resize(static_cast<size_t>(n));
    for (float& f : *v) HYDRA_RETURN_IF_ERROR(F32(&f));
    return Status::OK();
  }
  Status DoubleVec(std::vector<double>* v) {
    uint64_t n = 0;
    HYDRA_RETURN_IF_ERROR(U64(&n));
    if (n > remaining() / 8) return Truncated("double vector body");
    v->resize(static_cast<size_t>(n));
    for (double& d : *v) HYDRA_RETURN_IF_ERROR(F64(&d));
    return Status::OK();
  }
  Status U8Vec(std::vector<uint8_t>* v) { return IntVec(v, "u8 vector"); }
  Status U16Vec(std::vector<uint16_t>* v) { return IntVec(v, "u16 vector"); }
  Status I32Vec(std::vector<int32_t>* v) { return IntVec(v, "i32 vector"); }
  Status U64Vec(std::vector<uint64_t>* v) { return IntVec(v, "u64 vector"); }
  Status I64Vec(std::vector<int64_t>* v) { return IntVec(v, "i64 vector"); }

 private:
  template <typename T>
  Status IntVec(std::vector<T>* v, const char* what) {
    uint64_t n = 0;
    HYDRA_RETURN_IF_ERROR(U64(&n));
    if (n > remaining() / sizeof(T)) return Truncated(what);
    v->resize(static_cast<size_t>(n));
    for (T& x : *v) {
      uint64_t w = 0;
      HYDRA_RETURN_IF_ERROR(Little(&w, static_cast<int>(sizeof(T)), what));
      x = static_cast<T>(w);
    }
    return Status::OK();
  }
  Status Little(uint64_t* v, int bytes, const char* what) {
    if (remaining() < static_cast<size_t>(bytes)) return Truncated(what);
    uint64_t w = 0;
    for (int i = 0; i < bytes; ++i) {
      w |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += bytes;
    *v = w;
    return Status::OK();
  }
  Status Truncated(const char* what) {
    return Status::InvalidArgument(std::string("truncated payload: ") + what);
  }

  std::span<const char> data_;
  size_t pos_ = 0;
};

// Canonical wire form of a Status: code (u16), message (length-prefixed
// string), and — when present — the structured IoContext (path, offset,
// errno). DecodeStatus reconstructs the Status losslessly: code,
// message bytes, and every IoContext field compare equal after a
// round-trip, so a chaos-lane failure surfaces identically to a remote
// client and an in-process caller.
void EncodeStatus(const Status& st, ByteWriter* w);
Status DecodeStatus(ByteReader* r, Status* out);

// Whole-file I/O for encoded files (the index files): a file that cannot
// be opened, read or fully written is IoError.
Status WriteFileBytes(const std::string& path, const std::string& bytes);
Result<std::string> ReadFileBytes(const std::string& path);

// Index files (DSTree and iSAX2+, format version 2): a u32 magic, a u32
// format version, the encoded index, and a u32 footer holding the
// CRC-32C (common/crc32.h) of every byte before it. SealIndexFile
// appends the footer to an encoded file. OpenIndexFile checks the footer
// before any field is decoded: a mismatch, or a file too short to hold
// a footer, is DataCorruption naming `path`. It then checks the magic
// and the version (InvalidArgument) and returns a reader over the bytes
// between the version and the footer; `bytes` must outlive it. A
// version-1 file has no footer; its intact header is reported as the
// unsupported version it is, not as damage.
void SealIndexFile(std::string* bytes);
Result<ByteReader> OpenIndexFile(const std::string& bytes, uint32_t magic,
                                 uint32_t version, const std::string& kind,
                                 const std::string& path);

}  // namespace hydra

#endif  // HYDRA_COMMON_CODEC_H_
