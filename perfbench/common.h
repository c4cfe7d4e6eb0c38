// Shared plumbing of the dftbench program: arguments, the result record,
// order statistics, child processes and the interrupt flag.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tool;         // dft_tool binary
  std::string serve_check;  // serve_check binary
  std::string root;         // checkout root (data/ lives here)
  std::string work_dir;     // scratch directory inside the checkout
};

struct Metric {
  double value = 0;
  std::string unit;
};

// What one run reports: operation counts, the metrics measured, and every
// output check that did not hold.
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;

  bool correct() const { return problems.empty(); }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records a failed output check (the run is then not correct).
  void fail(const std::string& what) { problems.push_back(what); }
  // Records a check: `ok` false adds `what` as a problem.
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

// Per-operation samples of named metrics; emit() reports each median.
class Samples {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    auto& s = series_[name];
    s.unit = unit;
    s.values.push_back(value);
  }
  void emit(Outcome& out) const;

 private:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, Series> series_;
};

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

// Peak resident set of this process, in MB.
double self_peak_rss_mb();

// Set by SIGINT/SIGTERM; every loop of dftbench polls it.
extern std::atomic<bool> g_interrupted;
void install_interrupt_handlers();

// A child process owned by dftbench. The destructor stops (SIGTERM, then
// SIGKILL after a grace period) and reaps it, so no exit path of dftbench
// leaves it running. The child also receives SIGKILL if dftbench dies.
class Child {
 public:
  // Starts argv[0] with the given argv. With capture, the child's stdout
  // is readable through read_all(); stderr goes to /dev/null.
  Child(const std::vector<std::string>& argv, bool capture);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }
  // Reads the captured stdout until EOF.
  std::string read_all();
  // Waits for exit. Returns the wait status; peak RSS (MB) of the child is
  // stored in max_rss_mb. An interrupt stops the child first.
  int wait();
  // Sends `sig`, then waits (SIGKILL after `grace_ms` if still alive).
  int stop(int sig, int grace_ms);
  double max_rss_mb = 0;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

}  // namespace bench
