#pragma once
// A scenario_serve child on a stdin/stdout pipe pair: the real transport,
// driven by one closed-loop client. The destructor shuts the child down and
// reaps it, so no process outlives the benchmark.

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Spawns `path args...`; throws std::runtime_error on failure.
  Daemon(const std::string& path, const std::vector<std::string>& args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Send one request line and block for its one response line. Throws
  /// std::runtime_error when the child closes its output.
  std::string round_trip(const std::string& line);

  /// Peak resident set of the child (VmHWM), in MiB; 0 when unreadable.
  double peak_rss_mb() const;

  /// Close the child's input (EOF ends its loop) and reap it, killing it
  /// if it has not exited within five seconds. Idempotent.
  void stop();

 private:
  std::string read_line();

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
};

/// Peak resident set (VmHWM) of process `pid` from /proc, in MiB.
double peak_rss_mb_of(pid_t pid);

}  // namespace perfbench
