// dftbench -- the toolkit's benchmark program (see README.md).
//
//   dftbench --workload atpg_rand|bist_grade|serve_mix --seed N --seconds S
//            --trace 0|1 --tool <dft_tool> --serve-check <serve_check>
//            --root <checkout> --work-dir <dir>
//   dftbench --self-test
//
// Prints one JSON object as its last stdout line: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). Exits 1 when an output check fails, 2 on usage errors, 130
// when interrupted (without a result).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace bench {
int run_self_test();
}  // namespace bench

namespace {

using bench::Outcome;

struct MetricName {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the self-test compares them).
const MetricName kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"op_p50_ms", "ms"},       {"ops_per_s", "1/s"},
    {"faults_detected", "count"}, {"test_count", "count"},
};

// A layer a workload does not run reports 0 (README.md, "Per-layer").
const MetricName kPerLayer[] = {
    {"netlist.parse_s", "s"},
    {"netlist.compile_s", "s"},
    {"fault.collapse_s", "s"},
    {"fault.grade_s", "s"},
    {"fault.grade_1w_s", "s"},
    {"fault.grade_events", "count"},
    {"fault.grade_faults_simulated", "count"},
    {"fault.grade_work_ratio", "ratio"},
    {"fault.grade_speedup", "ratio"},
    {"sim.signature_s", "s"},
    {"sim.signature_gate_evals", "count"},
    {"sta.analyze_s", "s"},
    {"sta.prune_s", "s"},
    {"sta.faults_pruned", "count"},
    {"atpg.run_span_s", "s"},
    {"atpg.phase_sum_s", "s"},
    {"atpg.phase_remainder_s", "s"},
    {"atpg.random_s", "s"},
    {"atpg.random_detected", "count"},
    {"atpg.podem_s", "s"},
    {"atpg.podem_calls", "count"},
    {"atpg.podem_decisions", "count"},
    {"atpg.podem_backtracks", "count"},
    {"atpg.podem_implications", "count"},
    {"atpg.podem_decisions_per_s", "1/s"},
    {"atpg.podem_aborted", "count"},
    {"atpg.compact_s", "s"},
    {"atpg.final_sim_s", "s"},
    {"lint.run_ms", "ms"},
    {"measure.scoap_ms", "ms"},
    {"serve.op.lint.p50_ms", "ms"},
    {"serve.op.measure.p50_ms", "ms"},
    {"serve.op.atpg.p50_ms", "ms"},
    {"serve.op.fault_sim.p50_ms", "ms"},
    {"serve.op.bist.p50_ms", "ms"},
    {"serve.op.sta.p50_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.samples", "count"},
    {"serve.server_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.parse_request_us", "us"},
    {"serve.compile_circuit_ms", "ms"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
};

void print_result(const Outcome& out, bool trace) {
  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricName& m, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += std::string("\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  };
  if (trace) {
    for (const MetricName& m : kPerLayer) {
      const auto it = out.metrics.find(m.name);
      emit(m, it == out.metrics.end() ? 0.0 : it->second.value);
    }
  } else {
    for (const MetricName& m : kEndToEnd) {
      const auto it = out.metrics.find(m.name);
      emit(m, it == out.metrics.end() ? 0.0 : it->second.value);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Every metric a workload sets must be declared above with the same unit.
void check_declared(Outcome& out) {
  std::vector<std::string> stray;
  for (const auto& [name, m] : out.metrics) {
    bool found = false;
    for (const MetricName& d : kEndToEnd) {
      found = found || (name == d.name && m.unit == d.unit);
    }
    for (const MetricName& d : kPerLayer) {
      found = found || (name == d.name && m.unit == d.unit);
    }
    if (!found) stray.push_back(name);
  }
  for (const std::string& s : stray) {
    out.fail("metric " + s + " is not declared with that unit");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: dftbench --workload W --seed N --seconds S --trace 0|1 "
               "--tool PATH --serve-check PATH --root DIR --work-dir DIR\n"
               "       dftbench --self-test | --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = bench::Clock::now();
  bench::install_interrupt_handlers();
  bench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return bench::run_self_test();
    if (a == "--list-metrics") {
      for (const MetricName& m : kEndToEnd) std::printf("e2e %s %s\n", m.name, m.unit);
      for (const MetricName& m : kPerLayer) std::printf("layer %s %s\n", m.name, m.unit);
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") args.workload = v;
    else if (a == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") args.seconds = std::atof(v.c_str());
    else if (a == "--trace") args.trace = v == "1";
    else if (a == "--tool") args.tool = v;
    else if (a == "--serve-check") args.serve_check = v;
    else if (a == "--root") args.root = v;
    else if (a == "--work-dir") args.work_dir = v;
    else return usage();
  }
  if (args.tool.empty() || args.root.empty() || args.work_dir.empty() ||
      !(args.seconds > 0)) {
    return usage();
  }

  Outcome out;
  try {
    if (args.workload == "atpg_rand") {
      bench::run_atpg_rand(args, start, out);
    } else if (args.workload == "bist_grade") {
      bench::run_bist_grade(args, start, out);
    } else if (args.workload == "serve_mix") {
      bench::run_serve_mix(args, start, out);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    out.fail(std::string("benchmark error: ") + e.what());
  }
  if (bench::g_interrupted.load()) {
    std::fprintf(stderr, "dftbench: interrupted\n");
    return 130;
  }
  std::fprintf(stderr, "dftbench: %s finished in %.1f s\n",
               args.workload.c_str(), bench::seconds_since(start));
  check_declared(out);
  if (out.attempted == 0) out.fail("no operation was attempted");
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "dftbench: CHECK FAILED: %s\n", p.c_str());
  }
  print_result(out, args.trace);
  return out.correct() ? 0 : 1;
}
