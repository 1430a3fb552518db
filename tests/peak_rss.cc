// peak_rss: runs one program and reports its peak RSS, for the memory soaks
// (tools/stream_soak.sh).
//
//   peak_rss PROGRAM [ARG...]
//
// Forks, execs PROGRAM with stdin, stdout and stderr passed through, reaps
// it with wait4, prints "peak_rss_kb=N" (ru_maxrss) to stderr and exits
// with PROGRAM's exit code, or 128 plus the signal that ended it.
// ru_maxrss of an exec'd child also counts the RSS of the address space it
// was exec'd from, so this launcher links no product library and is built
// like the tools: its own floor stays below theirs.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: peak_rss PROGRAM [ARG...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) return 1;
  if (pid == 0) {
    execv(argv[1], argv + 1);
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return 1;
  }
  std::fprintf(stderr, "peak_rss_kb=%ld\n", usage.ru_maxrss);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
