#include "wire/launcher.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace lotec::wire {

namespace {

[[nodiscard]] bool is_executable(const std::string& path) {
  return !path.empty() && ::access(path.c_str(), X_OK) == 0;
}

[[nodiscard]] std::string self_exe_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  std::string path(buf);
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

std::string find_worker_binary(const WireConfig& cfg) {
  if (!cfg.worker_path.empty()) {
    if (is_executable(cfg.worker_path)) return cfg.worker_path;
    throw Error("wire: worker binary not executable: " + cfg.worker_path);
  }
  if (const char* env = std::getenv("LOTEC_WORKER");
      env != nullptr && *env != '\0') {
    if (is_executable(env)) return env;
    throw Error(std::string("wire: $LOTEC_WORKER not executable: ") + env);
  }
  const std::string exe_dir = self_exe_dir();
  const std::string beside = exe_dir + "/lotec_worker";
  if (is_executable(beside)) return beside;
  // Benches and tests live in sibling directories of tools/ in the build
  // tree; look one level up.
  const std::string sibling = exe_dir + "/../tools/lotec_worker";
  if (is_executable(sibling)) return sibling;
  throw Error(
      "wire: cannot find the lotec_worker binary (tried --worker PATH, "
      "$LOTEC_WORKER, " +
      beside + " and " + sibling +
      "); build the `lotec_worker` target or set $LOTEC_WORKER");
}

WorkerSupervisor::WorkerSupervisor(const WireConfig& cfg, std::uint32_t nodes)
    : cfg_(cfg), nodes_(nodes), worker_binary_(find_worker_binary(cfg)) {
  if (nodes_ == 0) throw Error("wire: cannot supervise a 0-node cluster");
  socket_dir_ = cfg_.socket_dir;
  if (!cfg_.tcp && socket_dir_.empty()) {
    std::string templ = "/tmp/lotec-wire-XXXXXX";
    if (::mkdtemp(templ.data()) == nullptr)
      throw Error(std::string("wire: mkdtemp: ") + std::strerror(errno));
    socket_dir_ = templ;
    owns_socket_dir_ = true;
  }
  listen_fds_.reserve(nodes_);
  pids_.assign(nodes_, -1);
  // Bind everything before forking anything (see file comment).
  for (std::uint32_t k = 0; k < nodes_; ++k) {
    if (cfg_.tcp) {
      auto [fd, port] = tcp_listen(static_cast<int>(nodes_) + 8);
      listen_fds_.push_back(std::move(fd));
      ports_.push_back(port);
    } else {
      listen_fds_.push_back(uds_listen(
          socket_dir_ + "/node" + std::to_string(k) + ".sock",
          static_cast<int>(nodes_) + 8));
    }
  }
  for (std::uint32_t k = 0; k < nodes_; ++k) spawn(k);
}

WorkerSupervisor::~WorkerSupervisor() {
  for (std::uint32_t k = 0; k < nodes_; ++k) {
    if (pids_[k] <= 0) continue;
    ::kill(pids_[k], SIGKILL);
    ::waitpid(pids_[k], nullptr, 0);
    pids_[k] = -1;
  }
  if (owns_socket_dir_) {
    for (std::uint32_t k = 0; k < nodes_; ++k)
      ::unlink((socket_dir_ + "/node" + std::to_string(k) + ".sock").c_str());
    ::rmdir(socket_dir_.c_str());
  }
}

void WorkerSupervisor::spawn(std::uint32_t node) {
  std::vector<std::string> argv_store;
  argv_store.push_back(worker_binary_);
  argv_store.push_back("--node=" + std::to_string(node));
  argv_store.push_back("--nodes=" + std::to_string(nodes_));
  argv_store.push_back("--listen-fd=" +
                       std::to_string(listen_fds_[node].get()));
  if (cfg_.tcp) {
    std::string ports = "--ports=";
    for (std::uint32_t k = 0; k < nodes_; ++k) {
      if (k > 0) ports += ',';
      ports += std::to_string(ports_[k]);
    }
    argv_store.push_back("--tcp");
    argv_store.push_back(std::move(ports));
  } else {
    argv_store.push_back("--dir=" + socket_dir_);
  }
  if (!cfg_.worker_spans.empty())
    argv_store.push_back("--spans=" + cfg_.worker_spans + ".node" +
                         std::to_string(node) + ".jsonl");
  argv_store.push_back("--relay-timeout-ms=" +
                       std::to_string(cfg_.ack_timeout_ms));
  std::vector<char*> argv;
  argv.reserve(argv_store.size() + 1);
  for (std::string& s : argv_store) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) throw Error(std::string("wire: fork: ") + std::strerror(errno));
  if (pid == 0) {
    // Child: the listen fds were created without CLOEXEC, so the one this
    // worker needs survives exec (the siblings' fds ride along unused).
    ::execv(worker_binary_.c_str(), argv.data());
    // exec failed; nothing sane to do in the child but scream and exit.
    ::perror("lotec_worker exec");
    ::_exit(127);
  }
  pids_[node] = pid;
}

Fd WorkerSupervisor::connect_to(std::uint32_t node, Millis timeout) const {
  if (node >= nodes_) throw Error("wire: connect_to node out of range");
  return cfg_.tcp
             ? tcp_connect(ports_[node], timeout)
             : uds_connect(socket_dir_ + "/node" + std::to_string(node) +
                               ".sock",
                           timeout);
}

void WorkerSupervisor::kill_worker(std::uint32_t node) {
  if (node >= nodes_ || pids_[node] <= 0) return;
  ::kill(pids_[node], SIGKILL);
  ::waitpid(pids_[node], nullptr, 0);
  pids_[node] = -1;
  ++kills_;
}

void WorkerSupervisor::respawn_worker(std::uint32_t node) {
  if (node >= nodes_ || pids_[node] > 0) return;
  spawn(node);
  ++respawns_;
}

bool WorkerSupervisor::alive(std::uint32_t node) const {
  if (node >= nodes_ || pids_[node] <= 0) return false;
  // A worker that crashed on its own shows up as reapable.
  return ::waitpid(pids_[node], nullptr, WNOHANG) == 0;
}

}  // namespace lotec::wire
