#include "e2e/child.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "util/file_io.h"

extern char** environ;

namespace datamaran::e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kWriteBytes = 64 * 1024;
constexpr size_t kPieceBytes = 1 << 20;  // a multiple of kWriteBytes
constexpr int kTimeoutSeconds = 150;

void OnAlarm(int) {}  // only interrupts the blocking write/wait4

/// Arms a one-shot SIGALRM for the watchdog; disarms on destruction.
class Watchdog {
 public:
  explicit Watchdog(int seconds) { alarm(static_cast<unsigned>(seconds)); }
  ~Watchdog() { alarm(0); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
};

/// Feeds `data` into `fd` in blocking writes of kWriteBytes, each started
/// as soon as the previous one returns, and records for every kPieceBytes
/// piece of `data` the time its writes took. Returns "" or the failure.
std::string Feed(int fd, const std::string& data,
                 std::vector<double>* piece_ms) {
  piece_ms->reserve(data.size() / kPieceBytes + 1);
  Clock::time_point piece_start = Clock::now();
  for (size_t off = 0; off < data.size();) {
    const size_t n = std::min(kWriteBytes, data.size() - off);
    for (size_t done = 0; done < n;) {
      const ssize_t w = write(fd, data.data() + off + done, n - done);
      if (w < 0) {
        return std::string("write to child stdin: ") +
               (errno == EINTR ? "timeout" : std::strerror(errno));
      }
      done += static_cast<size_t>(w);
    }
    off += n;
    if (off % kPieceBytes == 0 || off == data.size()) {
      const Clock::time_point now = Clock::now();
      const std::chrono::duration<double, std::milli> took = now - piece_start;
      piece_ms->push_back(took.count());
      piece_start = now;
    }
  }
  return "";
}

}  // namespace

void InstallChildSignalHandlers() {
  signal(SIGPIPE, SIG_IGN);
  struct sigaction sa {};
  sa.sa_handler = OnAlarm;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: the alarm must interrupt write/wait4
  sigaction(SIGALRM, &sa, nullptr);
}

ChildResult RunChild(const ChildSpec& spec) {
  ChildResult result;
  std::vector<std::string> args = {spec.launcher, spec.report_path,
                                   std::to_string(kTimeoutSeconds)};
  args.insert(args.end(), spec.argv.begin(), spec.argv.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::remove(spec.report_path.c_str());

  int pipe_fds[2] = {-1, -1};
  if (spec.stdin_data != nullptr && pipe2(pipe_fds, O_CLOEXEC) != 0) {
    result.error = std::string("pipe: ") + std::strerror(errno);
    return result;
  }
  const char* log =
      spec.log_path.empty() ? "/dev/null" : spec.log_path.c_str();
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (spec.stdin_data != nullptr) {
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[0], 0);
  } else {
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  }
  posix_spawn_file_actions_addopen(&actions, 1, log,
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  // This process ignores SIGPIPE and handles SIGALRM; the launcher and the
  // entry point start with default dispositions like any shell child.
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  sigset_t defaults;
  sigemptyset(&defaults);
  sigaddset(&defaults, SIGPIPE);
  sigaddset(&defaults, SIGALRM);
  posix_spawnattr_setsigdefault(&attr, &defaults);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSIGDEF);

  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argv[0], &actions, &attr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  posix_spawnattr_destroy(&attr);
  if (spec.stdin_data != nullptr) close(pipe_fds[0]);
  if (rc != 0) {
    if (spec.stdin_data != nullptr) close(pipe_fds[1]);
    result.error = "posix_spawn " + spec.launcher + ": " + std::strerror(rc);
    return result;
  }
  result.spawned = true;

  // Backstop for a wedged launcher; the launcher itself times the child out.
  Watchdog watchdog(kTimeoutSeconds + 10);
  if (spec.stdin_data != nullptr) {
    result.error = Feed(pipe_fds[1], *spec.stdin_data, &result.piece_ms);
    close(pipe_fds[1]);
  }
  int status = 0;
  for (bool killed = false;;) {
    if (waitpid(pid, &status, 0) == pid) break;
    if (errno != EINTR) {
      result.error = std::string("waitpid: ") + std::strerror(errno);
      return result;
    }
    if (!killed) kill(pid, SIGKILL);
    killed = true;
  }
  auto report = ReadFileToString(spec.report_path);
  int exited = 0, code = -1;
  long long wall_ns = 0;
  long maxrss_kb = 0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !report.ok() ||
      std::sscanf(report.value().c_str(), "%d %d %lld %ld", &exited, &code,
                  &wall_ns, &maxrss_kb) != 4) {
    if (result.error.empty()) result.error = "launcher failed";
    return result;
  }
  result.exited = exited == 1;
  result.exit_code = result.exited ? code : -1;
  if (!result.exited && result.error.empty()) {
    result.error = "killed by signal " + std::to_string(code);
  }
  result.wall_s = static_cast<double>(wall_ns) * 1e-9;
  result.peak_rss_mb = static_cast<double>(maxrss_kb) / 1024.0;
  return result;
}

}  // namespace datamaran::e2e
