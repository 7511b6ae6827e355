// fork()-based subprocess spawning for the multi-process shard fleet.
//
// Shards are forked children of the driver process, not exec'd binaries:
// the child runs a caller-supplied function (typically "construct a
// ShardServer over its end of a socket pair and serve it") and _exit()s
// with its return value, never unwinding back into the parent's stacks or
// running the parent's atexit handlers. This is the same pattern the
// persist crash tests use for kill-and-recover, promoted to a utility.
//
// The child starts with a copy of every fd the parent has open at the
// fork, and a socket's peer sees it close only when every copy is closed:
// so the child closes the parent's end of its pair, and the parent closes
// the child's end before it forks again. Only the forking thread exists
// in the child. A lock another parent thread held at the fork stays held
// there: glibc's malloc resets its own locks across fork, but gcc 12's
// ASan allocator does not, so fork before starting threads where one can.
//
// Reaping discipline: every spawned pid must be passed to WaitProcess
// exactly once (KillProcess does not reap) or the child stays a zombie.

#ifndef CKSAFE_UTIL_SUBPROCESS_H_
#define CKSAFE_UTIL_SUBPROCESS_H_

#include <sys/types.h>

#include <functional>

#include "cksafe/util/status.h"

namespace cksafe {

/// How a reaped child ended.
struct ProcessExit {
  bool exited = false;    ///< normal _exit; exit_code valid
  int exit_code = 0;
  bool signaled = false;  ///< killed by a signal; term_signal valid
  int term_signal = 0;
};

/// Forks a child that runs `child_main` and _exit()s with its return
/// value. Returns the child's pid in the parent; never returns in the
/// child. `child_main` runs in the child's copy of the parent's memory,
/// so it may use what the parent's stack held at the fork, but it must
/// not wait on another parent thread: none exists in the child.
StatusOr<pid_t> SpawnProcess(const std::function<int()>& child_main);

/// Sends `signum` (e.g. SIGKILL) to the child. Does not reap.
Status KillProcess(pid_t pid, int signum);

/// Blocks until the child exits and reaps it.
StatusOr<ProcessExit> WaitProcess(pid_t pid);

}  // namespace cksafe

#endif  // CKSAFE_UTIL_SUBPROCESS_H_
