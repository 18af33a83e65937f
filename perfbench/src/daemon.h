// A jps_serve daemon child process: spawn, address, /proc, drain.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Fields of /proc/<pid>/status.
struct ProcStatus {
  double vm_hwm_mb = 0.0;   ///< peak resident set (VmHWM)
  double vm_size_mb = 0.0;  ///< virtual size (VmSize)
  double threads = 0.0;     ///< live threads (Threads)
};

/// /proc/<pid>/status of `pid` ("self" when 0).  Throws std::runtime_error
/// when unreadable.
[[nodiscard]] ProcStatus read_proc_status(pid_t pid = 0);

/// `jps_serve serve --port 0 <flags>` as a child process.  The constructor
/// returns once the daemon prints its listening address; the destructor
/// kills and reaps a daemon that was never drained.  The child is also
/// killed if this process dies first.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& flags);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// SIGINT, then wait for the "drained:" line and a clean exit.  Returns
  /// the drained counters by name.  Throws std::runtime_error when the
  /// daemon does not drain within the deadline or exits non-zero.
  std::map<std::string, std::uint64_t> drain();

 private:
  /// Next stdout line, or throw once `deadline_ms` (steady clock) passes.
  std::string read_line(double deadline_ms);
  void kill_and_reap();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  std::uint16_t port_ = 0;
};

}  // namespace perfbench
