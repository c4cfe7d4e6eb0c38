#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <thread>

namespace bench {

std::atomic<bool> g_interrupted{false};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

void Samples::emit(Outcome& out) const {
  for (const auto& [name, s] : series_) out.set(name, median(s.values), s.unit);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

void on_interrupt(int) { g_interrupted.store(true); }

}  // namespace

void install_interrupt_handlers() {
  struct sigaction sa{};
  sa.sa_handler = on_interrupt;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocking waits return EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);
}

Child::Child(const std::vector<std::string>& argv, bool capture) {
  int fds[2] = {-1, -1};
  if (capture && pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    signal(SIGPIPE, SIG_DFL);
    const int devnull = open("/dev/null", O_RDWR);
    dup2(devnull, STDIN_FILENO);
    dup2(capture ? fds[1] : devnull, STDOUT_FILENO);
    dup2(devnull, STDERR_FILENO);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  if (capture) {
    close(fds[1]);
    out_fd_ = fds[0];
  }
}

Child::~Child() {
  if (out_fd_ >= 0) close(out_fd_);
  if (running()) stop(SIGTERM, 5000);
}

std::string Child::read_all() {
  std::string out;
  char buf[4096];
  while (out_fd_ >= 0) {
    const ssize_t n = read(out_fd_, buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR && !g_interrupted.load()) {
      continue;
    } else {
      break;
    }
  }
  return out;
}

int Child::wait() {
  int status = 0;
  rusage ru{};
  for (;;) {
    const pid_t r = wait4(pid_, &status, 0, &ru);
    if (r == pid_) break;
    if (r < 0 && errno == EINTR) {
      if (g_interrupted.load()) return stop(SIGTERM, 2000);
      continue;
    }
    throw std::runtime_error("wait4 failed");
  }
  pid_ = -1;
  max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return status;
}

int Child::stop(int sig, int grace_ms) {
  if (!running()) return 0;
  kill(pid_, sig);
  int status = 0;
  rusage ru{};
  const auto t0 = Clock::now();
  for (;;) {
    const pid_t r = wait4(pid_, &status, WNOHANG, &ru);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) break;
    if (seconds_since(t0) * 1000 > grace_ms) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return status;
}

}  // namespace bench
