// e2e_spawn: runs one program and reports its wall time and peak RSS.
//
//   e2e_spawn REPORT TIMEOUT_S PROGRAM [ARG...]
//
// ru_maxrss of an exec'd child includes the high-water RSS of the address
// space it exec'd from, so a child forked (or vforked) straight from the
// benchmark — which holds the generated inputs — would report the
// benchmark's own peak. This launcher is small: the benchmark spawns it,
// it forks PROGRAM from its own few-MB address space, reaps it with wait4,
// and writes "exited code wall_ns maxrss_kb" to REPORT. stdin, stdout and
// stderr pass through to PROGRAM; the launcher closes its own stdin after
// the fork so a writer feeding PROGRAM sees EPIPE if PROGRAM exits early.
// PROGRAM is killed by SIGALRM after TIMEOUT_S seconds, and by SIGKILL if
// the launcher itself is killed first.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>

namespace {

long long NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<long long>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: e2e_spawn REPORT TIMEOUT_S PROGRAM [ARG...]\n");
    return 2;
  }
  const char* report = argv[1];
  const unsigned timeout = static_cast<unsigned>(std::atoi(argv[2]));
  const pid_t launcher = getpid();
  const long long t0 = NowNs();
  const pid_t pid = fork();
  if (pid < 0) return 1;
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != launcher) _exit(127);  // the launcher died before prctl
    alarm(timeout);
    execv(argv[3], argv + 3);
    _exit(127);
  }
  close(0);
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return 1;
  }
  const long long wall_ns = NowNs() - t0;
  FILE* out = std::fopen(report, "w");
  if (out == nullptr) return 1;
  const bool exited = WIFEXITED(status);
  std::fprintf(out, "%d %d %lld %ld\n", exited ? 1 : 0,
               exited ? WEXITSTATUS(status) : WTERMSIG(status), wall_ns,
               usage.ru_maxrss);
  return std::fclose(out) == 0 ? 0 : 1;
}
