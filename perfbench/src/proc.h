// Child processes of the benchmark: the deployed entry points
// (`lake_search index`, `lake_server`) run as real processes, each in its
// own process group so a server's forked shard workers are stopped and
// reaped with it.
#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Makes this process the reaper of its orphaned descendants, so workers a
/// server forked can be waited for even after the server exits.
void BecomeSubreaper();

/// On SIGINT/SIGTERM/SIGHUP, SIGKILLs the process group of every live
/// Child before exiting, so an interrupted run leaves no server or worker
/// behind.
void KillChildrenOnSignal();

/// \brief One child process (and its process group). The destructor kills
/// and reaps whatever is still running.
class Child {
 public:
  /// fork + execv of `argv`, stdout/stderr appended to `log_path`.
  static tsfm::Result<Child> Spawn(const std::vector<std::string>& argv,
                                   const std::string& log_path);

  Child() = default;
  Child(Child&& other) noexcept : pid_(other.pid_) { other.pid_ = -1; }
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  /// Waits for a normal exit; error unless the exit status is 0.
  tsfm::Status Wait(int timeout_ms);

  /// SIGINT (lake_server drains, then stops its workers), wait, then
  /// SIGKILL the whole group if anything is left, and reap it all.
  tsfm::Status Stop(int timeout_ms);

  /// Peak resident set (VmHWM) of the child plus every live process of its
  /// group, in MiB.
  double PeakRssMb() const;

  pid_t pid() const { return pid_; }

 private:
  void KillGroupAndReap();
  pid_t pid_ = -1;
};

/// Polls a connect() to `socket_path` until it is accepted, the child
/// exits, or `timeout_ms` passes.
tsfm::Status WaitForSocket(const std::string& socket_path, const Child& child,
                           int timeout_ms);

/// Total size of the regular files `path` and `path`.* (a LAKS manifest and
/// its shard files), in bytes.
uint64_t IndexBytes(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
