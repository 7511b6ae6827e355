// Page-granular file IO for the durable snapshot store.
//
// The persist/ subsystem stores everything in fixed 4 KiB pages (the unit
// the buffer pool caches and checksums), appended to plain files whose
// durability point is an explicit fsync. This header holds the pieces that
// are pure IO and byte-level encoding, with no knowledge of what a page
// *means*: the page geometry constants, a 64-bit FNV-1a byte checksum, a
// bounds-checked little-endian ByteWriter/ByteReader pair, and two thin
// POSIX file wrappers (append-only writer with fsync, positional reader).
// Everything is encoded least-significant-byte first, so files written on
// one platform recover on any other.

#ifndef CKSAFE_UTIL_PAGE_IO_H_
#define CKSAFE_UTIL_PAGE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cksafe/util/status.h"

namespace cksafe {

/// Fixed on-disk page size of the persist/ subsystem.
inline constexpr size_t kPageSize = 4096;

/// 64-bit FNV-1a over a byte range (the page and manifest checksum).
uint64_t Fnv1a64(const uint8_t* data, size_t size, uint64_t seed = 0xcbf29ce484222325ULL);

/// Appends little-endian encoded primitives to a growable byte buffer.
/// An encoder that knows its size passes it as `reserve`, so the buffer is
/// allocated once, and takes the result with Release() instead of copying
/// bytes() out.
class ByteWriter {
 public:
  explicit ByteWriter(size_t reserve = 0) { bytes_.reserve(reserve); }

  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU16(uint16_t v) { PutLittleEndian(v, 2); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  /// Doubles travel as their IEEE-754 bit pattern: the decoded value is
  /// bit-identical to the encoded one, never re-rounded through text.
  void PutDouble(double v);
  /// Length-prefixed (u32) byte string.
  void PutString(std::string_view s);
  /// Raw bytes, no length prefix.
  void PutBytes(const uint8_t* data, size_t size) {
    bytes_.insert(bytes_.end(), data, data + size);
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }
  /// Hands the buffer over without copying it; the writer is left empty.
  std::vector<uint8_t> Release() { return std::move(bytes_); }

 private:
  void PutLittleEndian(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) bytes_.push_back((v >> (8 * i)) & 0xffu);
  }
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked little-endian decoder over a byte range. Every accessor
/// returns a Status instead of reading past the end, so a torn or corrupt
/// blob surfaces as a recoverable error, never undefined behavior.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  StatusOr<uint8_t> U8();
  StatusOr<uint16_t> U16();
  StatusOr<uint32_t> U32();
  StatusOr<uint64_t> U64();
  StatusOr<int32_t> I32();
  StatusOr<double> Double();
  StatusOr<std::string> String();

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  StatusOr<uint64_t> LittleEndian(int width);
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Bounds a decoded element count by the bytes `reader` has left: each
/// element takes at least `element_bytes`, so a count the remaining bytes
/// cannot hold is refused, with `code`, before anything is allocated for
/// it. The wire decoders refuse with InvalidArgument, the persist decoders
/// with IOError.
Status BoundCount(const ByteReader& reader, uint64_t count,
                  size_t element_bytes, const char* what, StatusCode code);

/// Append-only file with an explicit durability point. All writes go to the
/// end; Sync() fsyncs, and Truncate() discards an uncommitted tail during
/// crash recovery. The destructor closes without syncing — durability is
/// only ever claimed by an explicit, checked Sync().
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Opens (creating if absent) and positions at the current end.
  Status Open(const std::string& path);
  Status Append(const uint8_t* data, size_t size);
  Status Append(const std::vector<uint8_t>& bytes) {
    return Append(bytes.data(), bytes.size());
  }
  /// fsync: everything appended so far is durable when this returns OK.
  Status Sync();
  /// Truncates to `size` bytes (recovery discarding a torn tail).
  Status Truncate(uint64_t size);
  void Close();

  bool is_open() const { return fd_ >= 0; }
  /// Bytes in the file (committed + appended-but-not-yet-synced).
  uint64_t size() const { return size_; }

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;
};

/// Positional (pread) reader; safe to share across threads for disjoint
/// reads since it carries no file offset state.
class RandomReadFile {
 public:
  RandomReadFile() = default;
  ~RandomReadFile();
  RandomReadFile(const RandomReadFile&) = delete;
  RandomReadFile& operator=(const RandomReadFile&) = delete;

  Status Open(const std::string& path);
  /// Reads exactly `size` bytes at `offset`; IOError on short reads.
  Status ReadAt(uint64_t offset, uint8_t* out, size_t size) const;
  void Close();

  bool is_open() const { return fd_ >= 0; }
  StatusOr<uint64_t> Size() const;

 private:
  int fd_ = -1;
  std::string path_;
};

/// Reads an entire small file (manifest recovery scan).
StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

}  // namespace cksafe

#endif  // CKSAFE_UTIL_PAGE_IO_H_
