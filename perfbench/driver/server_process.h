// A `youtopia_server` child process: spawn, wait for READY, read its
// memory from /proc, scrape its metrics page, kill it.

#ifndef PERFBENCH_DRIVER_SERVER_PROCESS_H_
#define PERFBENCH_DRIVER_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Starts `options.server_bin` on an ephemeral port with the fixed
  /// configuration (WAL in `data_dir`, pool, shards, admission mark,
  /// metrics port) and blocks until it prints READY. nullptr on failure
  /// (message on stderr). The child dies with this process.
  static std::unique_ptr<ServerProcess> Start(const Options& options,
                                              const std::string& data_dir);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  uint16_t metrics_port() const { return metrics_port_; }
  /// Spawn → READY, in seconds.
  double ready_seconds() const { return ready_seconds_; }

  /// A `Vm*` field of /proc/<pid>/status in MiB (VmRSS, VmHWM).
  double MemoryMiB(const char* field) const;

  /// User + system CPU time the server has used so far, in seconds.
  double CpuSeconds() const;

  /// SIGKILL and reap. Idempotent.
  void Kill();

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  /// Held open for the server's lifetime: it shuts down at stdin EOF.
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;
  double ready_seconds_ = 0;
};

/// Counter values from one scrape of the server's metrics page, keyed by
/// the sample name (labels dropped; labelled series are summed).
using MetricsScrape = std::map<std::string, double>;
MetricsScrape ScrapeMetrics(uint16_t port);
double Delta(const MetricsScrape& before, const MetricsScrape& after,
             const std::string& name);

/// Total size in bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);
/// rm -rf `dir`, then mkdir -p it.
void ResetDirectory(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SERVER_PROCESS_H_
