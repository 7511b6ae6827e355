#include "cksafe/util/subprocess.h"

#include <cerrno>
#include <cstring>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cksafe/util/string_util.h"

namespace cksafe {

StatusOr<pid_t> SpawnProcess(const std::function<int()>& child_main) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IOError(StrFormat("fork: %s", std::strerror(errno)));
  }
  if (pid == 0) {
    // Child. _exit (not exit): no parent-installed atexit handlers, no
    // static destructors racing the parent's copies of shared state.
    ::_exit(child_main());
  }
  return pid;
}

Status KillProcess(pid_t pid, int signum) {
  if (::kill(pid, signum) < 0) {
    return Status::IOError(
        StrFormat("kill(%d, %d): %s", static_cast<int>(pid), signum,
                  std::strerror(errno)));
  }
  return Status::OK();
}

StatusOr<ProcessExit> WaitProcess(pid_t pid) {
  int wstatus = 0;
  pid_t rc;
  do {
    rc = ::waitpid(pid, &wstatus, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return Status::IOError(StrFormat("waitpid(%d): %s", static_cast<int>(pid),
                                     std::strerror(errno)));
  }
  ProcessExit exit;
  if (WIFEXITED(wstatus)) {
    exit.exited = true;
    exit.exit_code = WEXITSTATUS(wstatus);
  } else if (WIFSIGNALED(wstatus)) {
    exit.signaled = true;
    exit.term_signal = WTERMSIG(wstatus);
  }
  return exit;
}

}  // namespace cksafe
