#include "cksafe/util/socket.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cksafe/util/string_util.h"

namespace cksafe {
namespace {

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

StatusOr<sockaddr_un> MakeAddr(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        StrFormat("socket path length %zu out of range [1, %zu)", path.size(),
                  sizeof(addr.sun_path)));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

UnixSocket::~UnixSocket() { Close(); }

UnixSocket::UnixSocket(UnixSocket&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

UnixSocket& UnixSocket::operator=(UnixSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<UnixSocket> UnixSocket::Connect(const std::string& path) {
  CKSAFE_ASSIGN_OR_RETURN(sockaddr_un addr, MakeAddr(path));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    Status err = Errno("connect");
    ::close(fd);
    return err;
  }
  return UnixSocket(fd);
}

Status UnixSocket::SendAll(const uint8_t* data, size_t size) {
  if (fd_ < 0) return Status::FailedPrecondition("socket is closed");
  size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that died mid-conversation yields EPIPE here,
    // not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::IOError("send: connection closed by peer");
      }
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<size_t> UnixSocket::RecvSome(uint8_t* out, size_t size) {
  if (fd_ < 0) return Status::FailedPrecondition("socket is closed");
  for (;;) {
    const ssize_t n = ::recv(fd_, out, size, 0);
    if (n > 0) return static_cast<size_t>(n);
    if (n == 0) return Status::IOError("recv: connection closed by peer");
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) {
      return Status::IOError("recv: connection closed by peer");
    }
    return Errno("recv");
  }
}

void UnixSocket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void UnixSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

UnixListener::~UnixListener() { Close(); }

UnixListener::UnixListener(UnixListener&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

UnixListener& UnixListener::operator=(UnixListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

Status UnixListener::Bind(const std::string& path) {
  if (fd_ >= 0) return Status::FailedPrecondition("listener already bound");
  CKSAFE_ASSIGN_OR_RETURN(sockaddr_un addr, MakeAddr(path));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  ::unlink(path.c_str());  // a crashed predecessor's stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status err = Errno("bind");
    ::close(fd);
    return err;
  }
  if (::listen(fd, 64) < 0) {
    Status err = Errno("listen");
    ::close(fd);
    return err;
  }
  fd_ = fd;
  path_ = path;
  return Status::OK();
}

StatusOr<UnixSocket> UnixListener::Accept() {
  if (fd_ < 0) return Status::FailedPrecondition("listener is closed");
  int fd;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Errno("accept");
  return UnixSocket(fd);
}

void UnixListener::Shutdown() {
  // On Linux, shutdown() of a listening socket wakes a blocked accept()
  // with an error — the server's stop signal. The fd stays valid (and the
  // error sticky) until Close().
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void UnixListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (!path_.empty()) {
      ::unlink(path_.c_str());
      path_.clear();
    }
  }
}

}  // namespace cksafe
