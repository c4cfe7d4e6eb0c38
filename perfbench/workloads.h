// The three workloads. Each fills the Outcome with its operation counts,
// its end-to-end metrics (always) and its per-layer metrics (traced runs),
// and runs its output checks after the timed part.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "obs/obs.h"

namespace bench {

void run_atpg_rand(const Args& args, Clock::time_point start, Outcome& out);
void run_bist_grade(const Args& args, Clock::time_point start, Outcome& out);
void run_serve_mix(const Args& args, Clock::time_point start, Outcome& out);

// Seed of the k-th operation of a run.
inline std::uint64_t op_seed(std::uint64_t seed, int k) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(k) + 1;
}

// Total microseconds of the obs timer `name` (0 when never recorded), in s.
inline double obs_timer_s(const std::string& name) {
  const auto timers = dft::obs::Registry::global().timers();
  const auto it = timers.find(name);
  return it == timers.end() ? 0.0 : static_cast<double>(it->second.total_us) / 1e6;
}

inline double obs_counter(const std::string& name) {
  const auto counters = dft::obs::Registry::global().counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

}  // namespace bench
