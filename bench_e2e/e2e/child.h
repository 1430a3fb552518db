#ifndef DATAMARAN_BENCH_E2E_CHILD_H_
#define DATAMARAN_BENCH_E2E_CHILD_H_

#include <cstddef>
#include <string>
#include <vector>

/// Runs one entry-point invocation as an isolated child process and
/// measures it from the outside: wall time from fork to reap, the child's
/// own peak RSS (wait4 ru_maxrss), and — when the child reads stdin — how
/// long the child took to take in each MiB of it.
///
/// The child is started through the e2e_spawn launcher (e2e/spawn_main.cc),
/// which forks it from a few-MB address space: ru_maxrss counts the RSS of
/// the address space a process exec'd from, so forking the entry point
/// straight from this process would report the benchmark's own peak.

namespace datamaran::e2e {

struct ChildSpec {
  std::string launcher;     ///< path of e2e_spawn
  std::string report_path;  ///< scratch file the launcher reports into
  std::vector<std::string> argv;  ///< argv[0] is the program path
  /// Child stdout and stderr go here (truncated); "" = /dev/null.
  std::string log_path;
  /// When set, the child's stdin is a pipe this process writes
  /// `stdin_data` into, 64 KiB per blocking write, then closes; when null,
  /// stdin is /dev/null.
  const std::string* stdin_data = nullptr;
};

struct ChildResult {
  bool spawned = false;
  bool exited = false;  ///< false: killed by a signal (timeout included)
  int exit_code = -1;
  double wall_s = 0;
  double peak_rss_mb = 0;
  /// One per MiB of stdin_data (the last piece may be shorter): the wall
  /// time of its 64 KiB writes, issued back to back — the child's intake
  /// time for that MiB. Per write it would mostly time a copy into the
  /// pipe buffer: the wait for the child falls on a few writes.
  std::vector<double> piece_ms;
  std::string error;  ///< spawn, feed, or report failure

  bool ok() const {
    return spawned && exited && exit_code == 0 && error.empty();
  }
};

/// Runs the child, feeding stdin if asked, and waits for it (and the
/// launcher) to end before returning. A child still running after 150 s is
/// killed and reported as failed.
ChildResult RunChild(const ChildSpec& spec);

/// Ignores SIGPIPE in this process (a follower that exits early must turn
/// into a failed write, not kill the benchmark) and installs the watchdog
/// handler RunChild's timeout relies on. Call once at startup.
void InstallChildSignalHandlers();

}  // namespace datamaran::e2e

#endif  // DATAMARAN_BENCH_E2E_CHILD_H_
