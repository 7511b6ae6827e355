// Minimal UNIX-domain stream-socket wrappers for the shard tier.
//
// The fleet's processes live on one machine and talk over SOCK_STREAM
// AF_UNIX sockets: a shard binds a filesystem path (UnixListener), the
// router connects to it (UnixSocket::Connect) and exchanges framed
// messages (shard/wire.h): whole-buffer sends, and receives that take
// whatever the peer has written (the wire's FrameReader cuts frames out
// of them). These wrappers keep all POSIX details — EINTR retry loops,
// MSG_NOSIGNAL so a dead peer surfaces as a Status instead of SIGPIPE,
// fd lifetime — in one place, behind Status-returning operations: a send
// never escapes as a partial transfer.
//
// Error surface: every failure is an IOError naming the syscall; a clean
// peer close during RecvSome is an IOError whose message contains
// "connection closed", which the fleet maps to Unavailable. Both classes
// are move-only fd owners; Close() is idempotent and implied by
// destruction. Shutdown() on a listener aborts a concurrent Accept (the
// Linux semantics the shard server's stop path relies on).

#ifndef CKSAFE_UTIL_SOCKET_H_
#define CKSAFE_UTIL_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cksafe/util/status.h"

namespace cksafe {

/// One connected stream socket. Concurrent use is safe only in the
/// one-reader-one-writer pattern (a receiver thread in RecvSome while a
/// sender thread holds its own mutex around SendAll); anything more needs
/// external locking.
class UnixSocket {
 public:
  UnixSocket() = default;
  ~UnixSocket();
  UnixSocket(UnixSocket&& other) noexcept;
  UnixSocket& operator=(UnixSocket&& other) noexcept;
  UnixSocket(const UnixSocket&) = delete;
  UnixSocket& operator=(const UnixSocket&) = delete;

  /// Connects to the listener bound at `path`.
  static StatusOr<UnixSocket> Connect(const std::string& path);

  /// Writes exactly `size` bytes (EINTR/short-write retry inside).
  Status SendAll(const uint8_t* data, size_t size);
  Status SendAll(const std::vector<uint8_t>& bytes) {
    return SendAll(bytes.data(), bytes.size());
  }

  /// Blocks until the peer has written something, then reads what is
  /// there, up to `size` (> 0) bytes, and returns the count (>= 1). A peer
  /// close returns IOError("... connection closed ...").
  StatusOr<size_t> RecvSome(uint8_t* out, size_t size);

  /// Half-closes both directions, waking a peer (or own thread) blocked in
  /// RecvSome. Idempotent; safe to call from a thread other than the one
  /// receiving.
  void Shutdown();

  void Close();
  bool is_open() const { return fd_ >= 0; }

  /// Adopts an already-connected fd (listener Accept path).
  explicit UnixSocket(int fd) : fd_(fd) {}

 private:
  int fd_ = -1;
};

/// A bound, listening UNIX-domain socket. Bind unlinks any stale socket
/// file at the path first (crashed predecessors leave them behind).
class UnixListener {
 public:
  UnixListener() = default;
  ~UnixListener();
  UnixListener(UnixListener&& other) noexcept;
  UnixListener& operator=(UnixListener&& other) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Binds and listens at `path` (unlinking a stale file). The path must
  /// fit in sockaddr_un (~107 bytes) — InvalidArgument otherwise.
  Status Bind(const std::string& path);

  /// Blocks for the next connection. After Shutdown() (from any thread)
  /// returns IOError instead of blocking forever — the server loop's exit
  /// signal.
  StatusOr<UnixSocket> Accept();

  /// Aborts a blocked Accept. Idempotent.
  void Shutdown();

  void Close();
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace cksafe

#endif  // CKSAFE_UTIL_SOCKET_H_
