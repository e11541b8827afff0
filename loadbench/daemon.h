// A `cyclerankd` child process for the load benchmark: spawned with a
// PlatformOptions string (listen_port=0), its ephemeral port read from the
// banner it prints, its peak RSS read from /proc, and stopped with the
// daemon's own SIGTERM drain (SIGKILL if that hangs). The destructor never
// leaves the child running.
#ifndef LOADBENCH_DAEMON_H_
#define LOADBENCH_DAEMON_H_

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

extern char** environ;

namespace loadbench {

class ChildDaemon {
 public:
  ChildDaemon() = default;
  ~ChildDaemon() { Stop(); }
  ChildDaemon(const ChildDaemon&) = delete;
  ChildDaemon& operator=(const ChildDaemon&) = delete;

  /// Spawns `binary "<options>"`, sending its stderr to `log_path`, and
  /// waits up to `timeout_s` for the "listening on port N" banner.
  /// Returns false (with `*error` set) when it never comes.
  bool Start(const std::string& binary, const std::string& options,
             const std::string& log_path, double timeout_s,
             std::string* error) {
    int out[2];
    if (::pipe(out) != 0) return Fail(error, "pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::string arg0 = binary;
    std::string arg1 = options;
    char* argv[] = {arg0.data(), arg1.data(), nullptr};
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    if (rc != 0) {
      ::close(out[0]);
      pid_ = -1;
      return Fail(error, "cannot spawn " + binary);
    }
    out_fd_ = out[0];

    // The banner: "cyclerankd: listening on port N (...)".
    std::string banner;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (banner.find('\n') == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd pfd{out_fd_, POLLIN, 0};
      if (left.count() <= 0 ||
          ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
        return Fail(error, "daemon printed no banner (see " + log_path + ")");
      }
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return Fail(error, "daemon exited (see " + log_path + ")");
      banner.append(buf, static_cast<size_t>(n));
    }
    const size_t at = banner.find("port ");
    if (at == std::string::npos) return Fail(error, "bad banner: " + banner);
    port_ = static_cast<uint16_t>(std::stoul(banner.substr(at + 5)));
    return true;
  }

  uint16_t port() const { return port_; }

  /// VmHWM of the child in MiB (0 when unreadable).
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
      }
    }
    return 0.0;
  }

  /// SIGTERM (graceful drain), then SIGKILL after 10 s; always reaps.
  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      bool reaped = false;
      for (int i = 0; i < 1000 && !reaped; ++i) {
        reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
        if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!reaped) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  bool Fail(std::string* error, std::string message) {
    Stop();
    *error = std::move(message);
    return false;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace loadbench

#endif  // LOADBENCH_DAEMON_H_
