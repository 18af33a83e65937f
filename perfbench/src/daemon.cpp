#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

// Start-up and drain deadlines: a daemon that misses either fails the run
// instead of hanging it.
constexpr double kStartDeadlineMs = 30000.0;
constexpr double kDrainDeadlineMs = 60000.0;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ProcStatus read_proc_status(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  ProcStatus status;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    double value = 0.0;
    fields >> key >> value;
    if (key == "VmHWM:") status.vm_hwm_mb = value / 1024.0;
    if (key == "VmSize:") status.vm_size_mb = value / 1024.0;
    if (key == "Threads:") status.threads = value;
  }
  if (status.vm_hwm_mb <= 0.0)
    throw std::runtime_error("no VmHWM in " + path);
  return status;
}

Daemon::Daemon(const std::string& binary,
               const std::vector<std::string>& flags) {
  std::vector<std::string> args = {binary, "serve", "--port", "0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe2 failed");
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];

  const std::string marker = "listening on 127.0.0.1:";
  const double deadline = now_ms() + kStartDeadlineMs;
  try {
    while (true) {
      const std::string line = read_line(deadline);
      const auto at = line.find(marker);
      if (at == std::string::npos) continue;
      port_ = static_cast<std::uint16_t>(
          std::stoi(line.substr(at + marker.size())));
      break;
    }
  } catch (...) {
    kill_and_reap();
    throw;
  }
}

Daemon::~Daemon() { kill_and_reap(); }

std::string Daemon::read_line(double deadline_ms) {
  while (true) {
    const auto newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    const double left = deadline_ms - now_ms();
    if (left <= 0.0) throw std::runtime_error("jps_serve: no output in time");
    pollfd p{out_fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("jps_serve: stdout closed early");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::map<std::string, std::uint64_t> Daemon::drain() {
  if (pid_ <= 0) throw std::runtime_error("jps_serve: not running");
  ::kill(pid_, SIGINT);
  const double deadline = now_ms() + kDrainDeadlineMs;
  std::map<std::string, std::uint64_t> counters;
  try {
    std::string line;
    do {
      line = read_line(deadline);
    } while (line.rfind("drained:", 0) != 0);
    std::istringstream fields(line.substr(8));
    std::string pair;
    while (fields >> pair) {
      const auto eq = pair.find('=');
      if (eq != std::string::npos)
        counters[pair.substr(0, eq)] = std::stoull(pair.substr(eq + 1));
    }
    int status = 0;
    while (true) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) break;
      if (done < 0 && errno != EINTR)
        throw std::runtime_error("jps_serve: waitpid failed");
      if (now_ms() > deadline)
        throw std::runtime_error("jps_serve: did not exit after draining");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    ::close(out_fd_);
    out_fd_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("jps_serve: exited abnormally after drain");
  } catch (...) {
    kill_and_reap();
    throw;
  }
  return counters;
}

void Daemon::kill_and_reap() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

}  // namespace perfbench
