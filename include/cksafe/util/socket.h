// Minimal UNIX-domain stream-socket wrappers for the shard tier.
//
// The fleet's processes live on one machine and talk over SOCK_STREAM
// AF_UNIX sockets: the fleet makes one connected pair per shard
// (UnixSocket::Pair) before it forks the shard, keeps one end and hands
// the shard the other, and the two exchange framed messages
// (shard/wire.h): whole-buffer sends, and receives that take whatever the
// peer has written (the wire's FrameReader cuts frames out of them). No
// socket file exists and nothing listens. These wrappers keep all POSIX
// details — EINTR retry loops, MSG_NOSIGNAL so a dead peer surfaces as a
// Status instead of SIGPIPE, fd lifetime — in one place, behind
// Status-returning operations: a send never escapes as a partial
// transfer.
//
// Error surface: every failure is an IOError naming the syscall; a clean
// peer close during RecvSome is an IOError whose message contains
// "connection closed", which the fleet maps to Unavailable. A peer close
// is seen only once every copy of the peer's fd is closed, so each side of
// a fork closes the end of the pair it handed to the other. UnixSocket is
// a move-only fd owner; Close() is idempotent and implied by destruction.

#ifndef CKSAFE_UTIL_SOCKET_H_
#define CKSAFE_UTIL_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <utility>
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

  /// A connected pair of sockets (socketpair): what one end sends, the
  /// other receives. Both are close-on-exec: a forked child keeps them,
  /// a program the process execs does not hold them open.
  static StatusOr<std::pair<UnixSocket, UnixSocket>> Pair();

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

  /// Half-closes the sending direction only: the peer reads what was sent,
  /// then sees a close, and this end can still receive its replies.
  /// Idempotent; safe to call while another thread receives.
  void ShutdownWrite();

  void Close();
  bool is_open() const { return fd_ >= 0; }

 private:
  explicit UnixSocket(int fd) : fd_(fd) {}

  int fd_ = -1;
};

}  // namespace cksafe

#endif  // CKSAFE_UTIL_SOCKET_H_
