#include "cksafe/util/page_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "cksafe/util/string_util.h"

namespace cksafe {
namespace {

Status Errno(const std::string& op, const std::string& path) {
  return Status::IOError(op + " " + path + ": " + std::strerror(errno));
}

}  // namespace

uint64_t Fnv1a64(const uint8_t* data, size_t size, uint64_t seed) {
  uint64_t digest = seed;
  for (size_t i = 0; i < size; ++i) {
    digest ^= data[i];
    digest *= 0x00000100000001b3ULL;
  }
  return digest;
}

void ByteWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

StatusOr<uint64_t> ByteReader::LittleEndian(int width) {
  if (size_ - pos_ < static_cast<size_t>(width)) {
    return Status::IOError("byte stream truncated");
  }
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += static_cast<size_t>(width);
  return v;
}

Status BoundCount(const ByteReader& reader, uint64_t count,
                  size_t element_bytes, const char* what, StatusCode code) {
  if (count > reader.remaining() / element_bytes) {
    return Status(
        code,
        StrFormat("%s count %llu exceeds the %zu bytes remaining", what,
                  static_cast<unsigned long long>(count), reader.remaining()));
  }
  return Status::OK();
}

StatusOr<uint8_t> ByteReader::U8() {
  CKSAFE_ASSIGN_OR_RETURN(uint64_t v, LittleEndian(1));
  return static_cast<uint8_t>(v);
}
StatusOr<uint16_t> ByteReader::U16() {
  CKSAFE_ASSIGN_OR_RETURN(uint64_t v, LittleEndian(2));
  return static_cast<uint16_t>(v);
}
StatusOr<uint32_t> ByteReader::U32() {
  CKSAFE_ASSIGN_OR_RETURN(uint64_t v, LittleEndian(4));
  return static_cast<uint32_t>(v);
}
StatusOr<uint64_t> ByteReader::U64() { return LittleEndian(8); }
StatusOr<int32_t> ByteReader::I32() {
  CKSAFE_ASSIGN_OR_RETURN(uint32_t v, U32());
  return static_cast<int32_t>(v);
}
StatusOr<double> ByteReader::Double() {
  CKSAFE_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}
StatusOr<std::string> ByteReader::String() {
  CKSAFE_ASSIGN_OR_RETURN(uint32_t len, U32());
  if (size_ - pos_ < len) return Status::IOError("byte stream truncated");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

AppendFile::~AppendFile() { Close(); }

Status AppendFile::Open(const std::string& path) {
  Close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return Errno("open", path);
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    Status err = Errno("fstat", path);
    Close();
    return err;
  }
  size_ = static_cast<uint64_t>(st.st_size);
  path_ = path;
  return Status::OK();
}

Status AppendFile::Append(const uint8_t* data, size_t size) {
  if (fd_ < 0) return Status::FailedPrecondition("append on closed file");
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd_, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path_);
    }
    written += static_cast<size_t>(n);
  }
  size_ += size;
  return Status::OK();
}

Status AppendFile::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("sync on closed file");
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  return Status::OK();
}

Status AppendFile::Truncate(uint64_t size) {
  if (fd_ < 0) return Status::FailedPrecondition("truncate on closed file");
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Errno("ftruncate", path_);
  }
  size_ = size;
  return Status::OK();
}

void AppendFile::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  size_ = 0;
  path_.clear();
}

RandomReadFile::~RandomReadFile() { Close(); }

Status RandomReadFile::Open(const std::string& path) {
  Close();
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) return Errno("open", path);
  path_ = path;
  return Status::OK();
}

Status RandomReadFile::ReadAt(uint64_t offset, uint8_t* out,
                              size_t size) const {
  if (fd_ < 0) return Status::FailedPrecondition("read on closed file");
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd_, out + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pread", path_);
    }
    if (n == 0) {
      return Status::IOError("short read at offset " + std::to_string(offset) +
                             " of " + path_);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

void RandomReadFile::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  path_.clear();
}

StatusOr<uint64_t> RandomReadFile::Size() const {
  if (fd_ < 0) return Status::FailedPrecondition("size of closed file");
  struct stat st;
  if (::fstat(fd_, &st) != 0) return Errno("fstat", path_);
  return static_cast<uint64_t>(st.st_size);
}

StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  RandomReadFile file;
  CKSAFE_RETURN_IF_ERROR(file.Open(path));
  CKSAFE_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0) {
    CKSAFE_RETURN_IF_ERROR(file.ReadAt(0, bytes.data(), bytes.size()));
  }
  return bytes;
}

}  // namespace cksafe
