#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

Daemon::Daemon(const std::string& path, const std::vector<std::string>& args) {
  int in_pipe[2], out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    throw std::runtime_error("pipe failed");
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(path.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) {
    for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]})
      ::close(fd);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::execv(path.c_str(), argv.data());
    std::perror("fcbench: execv scenario_serve");
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
}

Daemon::~Daemon() { stop(); }

std::string Daemon::round_trip(const std::string& line) {
  std::string out = line;
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(to_child_, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("scenario_serve closed its input");
    }
    off += static_cast<std::size_t>(n);
  }
  return read_line();
}

std::string Daemon::read_line() {
  while (true) {
    const auto nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[65536];
    const ssize_t n = ::read(from_child_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("scenario_serve closed its output");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

double Daemon::peak_rss_mb() const { return peak_rss_mb_of(pid_); }

void Daemon::stop() {
  if (pid_ <= 0) return;
  if (to_child_ >= 0) ::close(to_child_);
  to_child_ = -1;
  // EOF ends the daemon's loop; give it a moment, then make sure.
  bool reaped = false;
  for (int i = 0; i < 500 && !reaped; ++i) {
    reaped = ::waitpid(pid_, nullptr, WNOHANG) == pid_;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (from_child_ >= 0) ::close(from_child_);
  from_child_ = -1;
  pid_ = -1;
}

double peak_rss_mb_of(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

}  // namespace perfbench
