#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace fs = std::filesystem;
using tsfm::Status;

namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Reaps every exited descendant handed to us as subreaper.
void ReapOrphans() {
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }
}

double VmHwmMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

pid_t ProcessGroupOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(stat.substr(close + 2));
  std::string state;
  pid_t ppid = 0;
  pid_t pgrp = -1;
  fields >> state >> ppid >> pgrp;
  return pgrp;
}

// Process groups of live children, readable from a signal handler.
constexpr size_t kMaxChildren = 8;
std::atomic<pid_t> g_child_groups[kMaxChildren];

void TrackGroup(pid_t pgid, bool live) {
  for (auto& slot : g_child_groups) {
    pid_t expected = live ? 0 : pgid;
    if (slot.compare_exchange_strong(expected, live ? pgid : 0)) return;
  }
}

void KillTrackedGroupsAndExit(int sig) {
  for (auto& slot : g_child_groups) {
    pid_t pgid = slot.load();
    if (pgid > 0) ::kill(-pgid, SIGKILL);
  }
  ::_exit(128 + sig);
}

}  // namespace

void BecomeSubreaper() { (void)::prctl(PR_SET_CHILD_SUBREAPER, 1); }

void KillChildrenOnSignal() {
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) ::signal(sig, KillTrackedGroupsAndExit);
}

tsfm::Result<Child> Child::Spawn(const std::vector<std::string>& argv,
                                 const std::string& log_path) {
  int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) return Status::IoError("cannot open " + log_path);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::IoError("fork failed");
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    std::_Exit(127);
  }
  ::setpgid(pid, pid);  // also from the parent: no race with the first kill
  TrackGroup(pid, true);
  ::close(log_fd);
  Child child;
  child.pid_ = pid;
  return child;
}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    KillGroupAndReap();
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

Child::~Child() { KillGroupAndReap(); }

Status Child::Wait(int timeout_ms) {
  if (pid_ <= 0) return Status::Internal("no child");
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (true) {
    int status = 0;
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_t pgid = pid_;
      pid_ = -1;
      ::kill(-pgid, SIGKILL);
      TrackGroup(pgid, false);
      ReapOrphans();
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::OK();
      // lake_server installs its SIGINT handler only after its socket
      // accepts, so a stop right after start-up may end it by the signal
      // itself; nothing was in flight, so that is a clean stop too.
      if (WIFSIGNALED(status) && WTERMSIG(status) == SIGINT) return Status::OK();
      return Status::Internal("child exited with status " +
                              std::to_string(status));
    }
    if (std::chrono::steady_clock::now() > deadline) {
      KillGroupAndReap();
      return Status::Internal("child timed out");
    }
    SleepMs(5);
  }
}

Status Child::Stop(int timeout_ms) {
  if (pid_ <= 0) return Status::Internal("no child");
  ::kill(pid_, SIGINT);
  return Wait(timeout_ms);
}

double Child::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  double total = 0;
  for (const auto& entry : fs::directory_iterator("/proc")) {
    std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    pid_t pid = static_cast<pid_t>(std::stol(name));
    if (pid == pid_ || ProcessGroupOf(pid) == pid_) total += VmHwmMb(pid);
  }
  return total;
}

void Child::KillGroupAndReap() {
  if (pid_ <= 0) return;
  ::kill(-pid_, SIGKILL);
  ::kill(pid_, SIGKILL);
  (void)::waitpid(pid_, nullptr, 0);
  // Wait for the rest of the group (forked workers) to be gone too.
  for (int i = 0; i < 400 && ::kill(-pid_, 0) == 0; ++i) {
    ReapOrphans();
    SleepMs(5);
  }
  ReapOrphans();
  TrackGroup(pid_, false);
  pid_ = -1;
}

Status WaitForSocket(const std::string& socket_path, const Child& child,
                     int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  while (std::chrono::steady_clock::now() < deadline) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::IoError("socket() failed");
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::close(fd);
    if (rc == 0) return Status::OK();
    if (::waitpid(child.pid(), nullptr, WNOHANG) == child.pid()) {
      return Status::Internal("server exited during start-up");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return Status::Internal("server did not accept on " + socket_path);
}

uint64_t IndexBytes(const std::string& path) {
  fs::path p(path);
  std::string base = p.filename().string();
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(p.parent_path())) {
    std::string name = entry.path().filename().string();
    if (entry.is_regular_file() &&
        (name == base || name.rfind(base + ".", 0) == 0)) {
      total += entry.file_size();
    }
  }
  return total;
}

}  // namespace perfbench
