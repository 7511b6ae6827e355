#include "cksafe/util/socket.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "cksafe/util/string_util.h"

namespace cksafe {
namespace {

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
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

StatusOr<std::pair<UnixSocket, UnixSocket>> UnixSocket::Pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) < 0) {
    return Errno("socketpair");
  }
  return std::make_pair(UnixSocket(fds[0]), UnixSocket(fds[1]));
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

void UnixSocket::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void UnixSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace cksafe
