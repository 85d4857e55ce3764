#include "server_process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <vector>

namespace perfbench {

namespace {

constexpr int kReadyTimeoutMs = 60000;

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::Start(
    const Options& o, const std::string& data_dir) {
  std::vector<std::string> args = {o.server_bin,
                                   "0",
                                   std::to_string(o.shards),
                                   std::to_string(o.workers),
                                   "--data-dir",
                                   data_dir,
                                   "--admission",
                                   std::to_string(o.admission),
                                   "--metrics-port",
                                   "0"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log_path = data_dir + ".log";

  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0) {
    std::perror("pipe");
    return nullptr;
  }
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const pid_t parent = ::getpid();
  const auto spawned = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return nullptr;
  }
  if (pid == 0) {
    // Only async-signal-safe calls until exec. The server dies with us,
    // so an interrupted benchmark never leaves one behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(in_pipe[0], 0);
    ::dup2(out_pipe[1], 1);
    if (log_fd >= 0) ::dup2(log_fd, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  if (log_fd >= 0) ::close(log_fd);

  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = pid;
  server->stdin_fd_ = in_pipe[1];
  server->stdout_fd_ = out_pipe[0];

  std::string out;
  while (true) {
    const size_t ready = out.find("READY ");
    if (ready != std::string::npos &&
        out.find('\n', ready) != std::string::npos) {
      const std::string line = out.substr(ready);
      unsigned port = 0;
      unsigned metrics = 0;
      const char* p = std::strstr(line.c_str(), "port=");
      const char* m = std::strstr(line.c_str(), "metrics_port=");
      if (p != nullptr) port = static_cast<unsigned>(std::atoi(p + 5));
      if (m != nullptr) metrics = static_cast<unsigned>(std::atoi(m + 13));
      server->port_ = static_cast<uint16_t>(port);
      server->metrics_port_ = static_cast<uint16_t>(metrics);
      break;
    }
    pollfd pfd{server->stdout_fd_, POLLIN, 0};
    const int elapsed_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              spawned)
            .count());
    if (elapsed_ms > kReadyTimeoutMs ||
        ::poll(&pfd, 1, kReadyTimeoutMs - elapsed_ms) <= 0) {
      std::fprintf(stderr, "server did not report READY\n");
      return nullptr;
    }
    char buf[4096];
    const ssize_t n = ::read(server->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      std::fprintf(stderr, "server exited before READY (see %s)\n",
                   log_path.c_str());
      return nullptr;
    }
    out.append(buf, static_cast<size_t>(n));
  }
  server->ready_seconds_ =
      std::chrono::duration<double>(Clock::now() - spawned).count();
  if (server->port_ == 0 || server->metrics_port_ == 0) {
    std::fprintf(stderr, "unparsable READY line: %s\n", out.c_str());
    return nullptr;
  }
  return server;
}

ServerProcess::~ServerProcess() { Kill(); }

void ServerProcess::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdin_fd_ = stdout_fd_ = -1;
}

double ServerProcess::MemoryMiB(const char* field) const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::atof(line.c_str() + prefix.size()) / 1024.0;  // kB
    }
  }
  return 0;
}

double ServerProcess::CpuSeconds() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) return 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

MetricsScrape ScrapeMetrics(uint16_t port) {
  MetricsScrape out;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string body;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
    if (::send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL) > 0) {
      char buf[8192];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        body.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == 'H' ||
        line.compare(0, 9, "youtopia_") != 0) {
      continue;
    }
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string name = line.substr(0, space);
    const size_t brace = name.find('{');
    if (brace != std::string::npos) name.resize(brace);
    out[name] += std::atof(line.c_str() + space + 1);
  }
  return out;
}

double Delta(const MetricsScrape& before, const MetricsScrape& after,
             const std::string& name) {
  auto value = [&](const MetricsScrape& m) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void ResetDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

}  // namespace perfbench
