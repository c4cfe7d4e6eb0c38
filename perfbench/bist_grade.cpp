// bist_grade: whole `dft_tool bist rand20k` sessions (PRPG, good-machine
// signature, coverage grading with fault dropping) at a fixed fault-sim
// worker count. All the work is in the sim and fault layers.
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <set>
#include <thread>

#include "checks.h"
#include "fault/fault.h"
#include "fault/threaded_fault_sim.h"
#include "netlist/bench_io.h"
#include "netlist/compiled.h"
#include "serve/cache.h"
#include "workloads.h"

namespace bench {

using namespace dft;

namespace {

constexpr int kPatterns = 1024;
// dft_tool bist seeds its PRPG with this constant.
constexpr std::uint64_t kPrpgSeed = 0x5eed;
// Faults graded again on the ppsfp engine, chosen by the run's seed.
constexpr std::size_t kPpsfpSample = 512;

// Two workers: the threaded decomposition runs, and the session leaves
// cores free on a 4-core host so other load perturbs it less.
int bist_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n >= 2 ? 2 : 1;
}

struct Session {
  std::uint64_t signature = 0;
  int detected = -1;
};

// Reads the signature and detected count from dft_tool bist's stdout.
bool parse_session(const std::string& text, Session& s) {
  const auto sig = text.find("signature ");
  const auto det = text.find(" detected)");
  if (sig == std::string::npos || det == std::string::npos) return false;
  unsigned long long v = 0;
  if (std::sscanf(text.c_str() + sig, "signature %llx", &v) != 1) return false;
  s.signature = v;
  const auto open = text.rfind('(', det);
  if (open == std::string::npos) return false;
  return std::sscanf(text.c_str() + open, "(%d", &s.detected) == 1;
}

}  // namespace

void run_bist_grade(const Args& args, Clock::time_point start, Outcome& out) {
  const int workers = bist_workers();
  const Netlist nl = serve::builtin_circuit("rand20k");
  const std::vector<Fault> faults = collapse_faults(nl).representatives;
  out.set("setup_s", seconds_since(start), "s");

  const std::vector<std::string> argv = {
      args.tool, "bist", "rand20k", "--patterns", std::to_string(kPatterns),
      "--threads", std::to_string(workers)};
  std::vector<double> op_s;
  std::vector<Session> sessions;
  double peak_rss = 0;
  const auto loop_start = Clock::now();
  while (seconds_since(loop_start) < args.seconds) {
    if (g_interrupted.load()) return;
    ++out.attempted;
    const auto t0 = Clock::now();
    Child child(argv, true);
    const std::string text = child.read_all();
    const int status = child.wait();
    const double dt = seconds_since(t0);
    if (g_interrupted.load()) return;
    peak_rss = std::max(peak_rss, child.max_rss_mb);
    Session s;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !parse_session(text, s)) {
      ++out.failed;
      std::fprintf(stderr, "dftbench: dft_tool bist failed (status %d)\n",
                   status);
      continue;
    }
    op_s.push_back(dt);
    sessions.push_back(s);
  }
  const double loop_s = seconds_since(loop_start);
  out.set("op_p50_ms", 1000 * median(op_s), "ms");
  out.set("ops_per_s", static_cast<double>(op_s.size()) / loop_s, "1/s");
  out.set("peak_rss_mb", peak_rss, "MB");
  if (sessions.empty()) return;
  for (const Session& s : sessions) {
    out.expect(s.signature == sessions.front().signature &&
                   s.detected == sessions.front().detected,
               "bist sessions disagree with each other");
  }

  // Checks: the same patterns graded in-process at 1 and N workers, the
  // signature recomputed 64 patterns at a time, a sample on ppsfp.
  const std::vector<SourceVector> patterns =
      prpg_patterns(nl, kPatterns, kPrpgSeed);
  out.expect(parallel_signature(nl, patterns) == sessions.front().signature,
             "bist signature differs from the ParallelSim recomputation");

  struct Grading {
    FaultSimResult result;
    double secs = 0, events = 0, simulated = 0;
  };
  const auto grade = [&](int threads) {
    obs::Registry::global().reset();
    const auto t0 = Clock::now();
    Grading g;
    g.result = make_fault_sim_engine(nl, "", threads)->run(patterns, faults, true);
    g.secs = seconds_since(t0);
    g.events = obs_counter("fault_sim.event.events_scheduled");
    g.simulated = obs_counter("fault_sim.ppsfp.faults_simulated");
    return g;
  };
  const Grading g1 = grade(1);
  if (g_interrupted.load()) return;
  const Grading gn = grade(workers);
  const FaultSimResult& one = g1.result;
  const FaultSimResult& many = gn.result;
  check_same_detections(one.first_detected_by, many.first_detected_by,
                        "bist grading at 1 vs " + std::to_string(workers) +
                            " workers",
                        out);
  out.expect(one.num_detected == sessions.front().detected,
             "bist session detected count differs from in-process grading");

  std::mt19937_64 rng(args.seed);
  std::vector<std::size_t> idx(faults.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::shuffle(idx.begin(), idx.end(), rng);
  idx.resize(std::min(idx.size(), kPpsfpSample));
  std::vector<Fault> sample;
  std::vector<int> expected;
  for (std::size_t i : idx) {
    sample.push_back(faults[i]);
    expected.push_back(one.first_detected_by[i]);
  }
  const FaultSimResult pp =
      make_fault_sim_engine(nl, "ppsfp", 1)->run(patterns, sample, true);
  check_same_detections(expected, pp.first_detected_by,
                        "bist grading vs ppsfp on a fault sample", out);

  // Distinct patterns that first-detect some fault: the patterns a
  // compactor would keep from the session.
  std::set<int> useful;
  for (int p : one.first_detected_by) {
    if (p >= 0) useful.insert(p);
  }
  out.set("faults_detected", sessions.front().detected, "count");
  out.set("test_count", static_cast<double>(useful.size()), "count");

  if (!args.trace) return;
  out.set("fault.grade_s", gn.secs, "s");
  out.set("fault.grade_1w_s", g1.secs, "s");
  out.set("fault.grade_events", gn.events, "count");
  out.set("fault.grade_faults_simulated", gn.simulated, "count");
  out.set("fault.grade_work_ratio",
          g1.simulated > 0 ? gn.simulated / g1.simulated : 0, "ratio");
  out.set("fault.grade_speedup", gn.secs > 0 ? g1.secs / gn.secs : 0, "ratio");

  // The session's signature loop, as dft_tool runs it: scalar CombSim.
  obs::Registry::global().reset();
  auto t0 = Clock::now();
  out.expect(comb_signature(nl, patterns) == sessions.front().signature,
             "bist signature differs from the CombSim recomputation");
  out.set("sim.signature_s", seconds_since(t0), "s");
  out.set("sim.signature_gate_evals", obs_counter("sim.comb.gate_evals"),
          "count");

  const std::string text = write_bench_string(nl);
  t0 = Clock::now();
  const Netlist parsed = read_bench_string(text, "rand20k");
  out.set("netlist.parse_s", seconds_since(t0), "s");
  t0 = Clock::now();
  const CompiledNetlist compiled(parsed);
  out.set("netlist.compile_s", seconds_since(t0), "s");
  t0 = Clock::now();
  const std::size_t collapsed = collapse_faults(parsed).representatives.size();
  out.set("fault.collapse_s", seconds_since(t0), "s");
  out.expect(collapsed == faults.size(),
             "rand20k parsed back collapses to a different fault count");
}

}  // namespace bench
