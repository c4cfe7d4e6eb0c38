// atpg_rand: whole single-threaded run_atpg calls on a generated random
// circuit of the rand2k class (40 inputs, 24 outputs, 2000 gates, fan-in
// <= 4), at a fixed backtrack limit. PODEM is where the time goes here.
#include <cstdio>
#include <map>
#include <vector>

#include "atpg/engine.h"
#include "checks.h"
#include "circuits/random_circuit.h"
#include "fault/fault.h"
#include "netlist/bench_io.h"
#include "netlist/compiled.h"
#include "sta/sta.h"
#include "workloads.h"

namespace bench {

using namespace dft;

namespace {

// The workload's circuit and ATPG options, the same in every run: each
// call reports aborted faults that its final tests detect (see README), a
// program fault that must fail the same share of calls whatever --seed is.
// At this limit one call takes a few seconds, so a run holds several.
constexpr std::uint64_t kCircuitSeed = 7;
constexpr std::uint64_t kAtpgSeed = 1;
constexpr int kBacktrackLimit = 3;
// Faults of each class replayed on the serial engine, chosen by --seed:
// one undetected fault costs a full serial pass per final test.
constexpr int kSerialPerClass = 8;

const char* const kPhases[] = {"atpg.sta_prune", "atpg.random",
                               "atpg.deterministic", "atpg.retry",
                               "atpg.compact", "atpg.final_sim"};

}  // namespace

void run_atpg_rand(const Args& args, Clock::time_point start, Outcome& out) {
  RandomCircuitSpec spec;
  spec.num_inputs = 40;
  spec.num_outputs = 24;
  spec.num_gates = 2000;
  spec.max_fanin = 4;
  spec.seed = kCircuitSeed;
  const std::string text = write_bench_string(make_random_combinational(spec));

  auto t = Clock::now();
  const Netlist nl = read_bench_string(text, "atpg_rand");
  const double parse_s = seconds_since(t);
  t = Clock::now();
  const CompiledNetlist compiled(nl);
  const double compile_s = seconds_since(t);
  t = Clock::now();
  const std::vector<Fault> faults = collapse_faults(nl).representatives;
  const double collapse_s = seconds_since(t);
  out.set("setup_s", seconds_since(start), "s");

  std::vector<AtpgRun> runs;
  std::vector<double> op_s;
  Samples layer;
  const auto loop_start = Clock::now();
  while (seconds_since(loop_start) < args.seconds) {
    if (g_interrupted.load()) return;
    AtpgOptions opt;
    opt.backtrack_limit = kBacktrackLimit;
    opt.seed = kAtpgSeed;
    opt.threads = 1;
    if (args.trace) obs::Registry::global().reset();
    ++out.attempted;
    const auto t0 = Clock::now();
    AtpgRun run;
    try {
      run = run_atpg(nl, faults, opt);
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "dftbench: run_atpg threw: %s\n", e.what());
      continue;
    }
    const double span = seconds_since(t0);
    if (guard::interrupted(run.status)) {
      ++out.failed;
      std::fprintf(stderr, "dftbench: run_atpg was interrupted\n");
      continue;
    }
    op_s.push_back(span);
    if (args.trace) {
      double sum = 0;
      for (const char* p : kPhases) sum += obs_timer_s(std::string("phase.") + p);
      const double podem_s = obs_timer_s("phase.atpg.deterministic");
      const double decisions = obs_counter("podem.decisions");
      layer.add("atpg.run_span_s", span, "s");
      layer.add("atpg.phase_sum_s", sum, "s");
      layer.add("atpg.phase_remainder_s", span - sum, "s");
      // The phases run back to back inside run_atpg: outside them is only
      // option set-up and the result's bookkeeping.
      out.expect(span - sum >= 0 && span - sum <= 0.01 * span,
                 "phase.atpg.* timers leave more than 1% of run_atpg unaccounted");
      layer.add("atpg.random_s", obs_timer_s("phase.atpg.random"), "s");
      layer.add("atpg.random_detected", run.random_phase_detected, "count");
      layer.add("atpg.podem_s", podem_s, "s");
      layer.add("atpg.podem_calls", obs_counter("podem.calls"), "count");
      layer.add("atpg.podem_decisions", decisions, "count");
      layer.add("atpg.podem_backtracks", obs_counter("podem.backtracks"), "count");
      layer.add("atpg.podem_implications", 
          obs_counter("podem.implications"), "count");
      layer.add("atpg.podem_decisions_per_s", 
          podem_s > 0 ? decisions / podem_s : 0, "1/s");
      layer.add("atpg.podem_aborted", obs_counter("podem.aborted"), "count");
      layer.add("atpg.compact_s", obs_timer_s("phase.atpg.compact"), "s");
      layer.add("atpg.final_sim_s", obs_timer_s("phase.atpg.final_sim"), "s");
      layer.add("sta.prune_s", obs_timer_s("phase.atpg.sta_prune"), "s");
      layer.add("sta.faults_pruned", run.statically_pruned, "count");
    }
    runs.push_back(std::move(run));
  }
  const double loop_s = seconds_since(loop_start);

  std::vector<double> detected, tests;
  for (const AtpgRun& r : runs) {
    detected.push_back(r.detected);
    tests.push_back(static_cast<double>(r.tests.size()));
  }
  out.set("op_p50_ms", 1000 * median(op_s), "ms");
  out.set("ops_per_s", static_cast<double>(op_s.size()) / loop_s, "1/s");
  out.set("faults_detected", median(detected), "count");
  out.set("test_count", median(tests), "count");
  out.set("peak_rss_mb", self_peak_rss_mb(), "MB");

  if (args.trace) {
    out.set("netlist.parse_s", parse_s, "s");
    out.set("netlist.compile_s", compile_s, "s");
    out.set("fault.collapse_s", collapse_s, "s");
    layer.emit(out);
    // The analyzer run_atpg prunes with, timed on its own.
    const auto t0 = Clock::now();
    const sta::StaticAnalyzer analyzer(nl);
    const std::size_t untestable = analyzer.untestable_faults(faults).size();
    out.set("sta.analyze_s", seconds_since(t0), "s");
    out.expect(runs.empty() ||
                   untestable == static_cast<std::size_t>(
                                     runs.front().statically_pruned),
               "sta: analyzer and run_atpg prune different fault counts");
  }

  if (runs.empty()) return;
  // Every call has the same inputs: the first is checked in full, the
  // others must repeat it exactly.
  const AtpgRun& first = runs.front();
  const AtpgPartition partition =
      check_atpg_run(nl, faults, first, args.seed, kSerialPerClass, "atpg", out);
  for (const AtpgRun& r : runs) {
    out.expect(r.tests == first.tests && r.detected == first.detected &&
                   r.redundant == first.redundant && r.aborted == first.aborted,
               "atpg calls on identical inputs give different results");
  }
  if (!partition.holds()) {
    out.failed += static_cast<long long>(runs.size());
    std::fprintf(stderr,
                 "dftbench: every atpg call breaks detected + redundant + "
                 "aborted = faults: %d aborted faults are detected, %d faults "
                 "are unclassified\n",
                 partition.detected_aborted, partition.unclassified);
  }
}

}  // namespace bench
