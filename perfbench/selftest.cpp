// The benchmark's own tests: each output check is run once on a correct
// output (it must pass) and once on a deliberately corrupted one (it must
// fail). Run with `python3 perfbench/run.py --self-test`.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "atpg/engine.h"
#include "checks.h"
#include "circuits/random_circuit.h"
#include "fault/threaded_fault_sim.h"
#include "netlist/bench_io.h"
#include "serve/cache.h"

namespace bench {

using namespace dft;

namespace {

int g_failures = 0;

// `check` must record no problem on the intact output, and at least one
// on the corrupted one.
void expect_catches(const std::string& name,
                    const std::function<void(Outcome&, bool)>& check) {
  Outcome good, bad;
  check(good, false);
  check(bad, true);
  const bool ok = good.correct() && !bad.correct();
  if (!ok) ++g_failures;
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", name.c_str());
  for (const std::string& p : good.problems) std::printf("  intact: %s\n", p.c_str());
}

}  // namespace

int run_self_test() {
  RandomCircuitSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 300;
  spec.seed = 3;
  const Netlist nl = make_random_combinational(spec);
  const std::vector<Fault> faults = collapse_faults(nl).representatives;
  AtpgOptions opt;
  opt.backtrack_limit = 10;
  const AtpgRun run = run_atpg(nl, faults, opt);

  const auto atpg_case = [&](const std::string& name,
                             const std::function<void(AtpgRun&)>& corrupt) {
    expect_catches("atpg: " + name, [&](Outcome& out, bool bad) {
      AtpgRun r = run;
      if (bad) corrupt(r);
      check_atpg_run(nl, faults, r, 1, 4, name, out);
    });
  };
  atpg_case("dropped final test", [](AtpgRun& r) { r.tests.pop_back(); });
  atpg_case("overclaimed detected count", [](AtpgRun& r) { ++r.detected; });
  atpg_case("flipped test bit", [](AtpgRun& r) {
    for (Logic& l : r.tests.front()) l = l == Logic::One ? Logic::Zero : Logic::One;
    r.tests.resize(1);
  });
  atpg_case("fault counted twice", [](AtpgRun& r) {
    if (!r.aborted.empty()) r.aborted.push_back(r.aborted.front());
    else r.redundant.push_back(r.redundant.front());
  });
  atpg_case("detected fault classified redundant", [&](AtpgRun& r) {
    const FaultSimResult g =
        make_fault_sim_engine(nl, "", 1)->run(r.tests, faults, false);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (g.first_detected_by[i] >= 0) {
        r.redundant.push_back(faults[i]);
        break;
      }
    }
  });
  // Breaks of the partition are returned; each corruption adds one.
  const AtpgPartition base = [&] {
    Outcome o;
    return check_atpg_run(nl, faults, run, 1, 0, "partition", o);
  }();
  const auto partition_case = [&](const std::string& name,
                                  const std::function<void(AtpgRun&)>& corrupt,
                                  int AtpgPartition::*field) {
    Outcome o;
    AtpgRun r = run;
    corrupt(r);
    const AtpgPartition p = check_atpg_run(nl, faults, r, 1, 0, name, o);
    const bool ok = o.correct() && p.*field == base.*field + 1;
    if (!ok) ++g_failures;
    std::printf("%s atpg: %s\n", ok ? "PASS" : "FAIL", name.c_str());
  };
  partition_case("detected fault also listed aborted", [&](AtpgRun& r) {
    const FaultSimResult g =
        make_fault_sim_engine(nl, "", 1)->run(r.tests, faults, false);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (g.first_detected_by[i] >= 0 &&
          std::find(r.aborted.begin(), r.aborted.end(), faults[i]) ==
              r.aborted.end()) {
        r.aborted.push_back(faults[i]);
        break;
      }
    }
  }, &AtpgPartition::detected_aborted);
  partition_case("unclassified fault", [&](AtpgRun& r) {
    const FaultSimResult g =
        make_fault_sim_engine(nl, "", 1)->run(r.tests, faults, false);
    for (auto it = r.aborted.begin(); it != r.aborted.end(); ++it) {
      const auto at = std::find(faults.begin(), faults.end(), *it) - faults.begin();
      if (g.first_detected_by[static_cast<std::size_t>(at)] < 0) {
        r.aborted.erase(it);
        break;
      }
    }
  }, &AtpgPartition::unclassified);
  expect_catches("serve atpg: replay count", [&](Outcome& out, bool bad) {
    check_replay_count(nl, faults, run.tests, run.detected + (bad ? 1 : 0),
                       "replay", out);
  });

  const std::vector<SourceVector> patterns = prpg_patterns(nl, 200, 0x5eed);
  const FaultSimResult one =
      make_fault_sim_engine(nl, "", 1)->run(patterns, faults, true);
  expect_catches("bist: 1 vs N workers", [&](Outcome& out, bool bad) {
    FaultSimResult many =
        make_fault_sim_engine(nl, "", 2)->run(patterns, faults, true);
    if (bad) many.first_detected_by.back() += 1;
    check_same_detections(one.first_detected_by, many.first_detected_by,
                          "workers", out);
  });
  expect_catches("bist: signature", [&](Outcome& out, bool bad) {
    // The session's scalar CombSim signature against ParallelSim's.
    std::uint64_t printed = comb_signature(nl, patterns);
    if (bad) printed ^= 1;
    out.expect(parallel_signature(nl, patterns) == printed, "signature");
  });
  expect_catches("serve fault_sim: reference grading",
                 [&](Outcome& out, bool bad) {
                   const Netlist sn = serve::builtin_circuit("sn74181");
                   std::mt19937_64 rng(5);
                   std::vector<SourceVector> t;
                   for (int p = 0; p < 64; ++p) t.push_back(random_source_vector(sn, rng));
                   const int claimed =
                       make_fault_sim_engine(sn, "", 1)
                           ->run(t, collapse_faults(sn).representatives, true)
                           .num_detected;
                   out.expect(reference_fault_sim(sn, 5, 64) ==
                                  claimed + (bad ? 1 : 0),
                              "fault_sim");
                 });
  const std::string okline =
      "{\"schema\":\"dft-serve-response\",\"version\":1,\"id\":\"r1\","
      "\"op\":\"lint\",\"ok\":true,\"status\":\"completed\",\"degraded\":false,"
      "\"cache\":\"hit\",\"elapsed_ms\":3,\"result\":{\"errors\":0}}";
  const std::vector<std::pair<std::string, std::string>> bad_lines = {
      {"typed error",
       "{\"schema\":\"dft-serve-response\",\"version\":1,\"id\":\"r1\","
       "\"op\":\"lint\",\"ok\":false,\"error\":{\"type\":\"overloaded\","
       "\"message\":\"x\"}}"},
      {"deadline-expired answer",
       "{\"schema\":\"dft-serve-response\",\"version\":1,\"id\":\"r1\","
       "\"op\":\"lint\",\"ok\":true,\"status\":\"deadline-expired\","
       "\"degraded\":true,\"elapsed_ms\":3,\"result\":{\"errors\":0}}"},
      {"answer to another id",
       "{\"schema\":\"dft-serve-response\",\"version\":1,\"id\":\"r2\","
       "\"op\":\"lint\",\"ok\":true,\"status\":\"completed\","
       "\"degraded\":false,\"elapsed_ms\":3,\"result\":{\"errors\":0}}"},
      {"missing answer", ""},
      {"truncated answer", okline.substr(0, okline.size() / 2)},
  };
  for (const auto& [name, line] : bad_lines) {
    expect_catches("serve answer: " + name, [&](Outcome& out, bool bad) {
      out.expect(answered_ok(bad ? line : okline, "r1"), name);
    });
  }
  expect_catches("serve: inline copy answers like the built-in",
                 [&](Outcome& out, bool bad) {
                   std::string other = okline;
                   if (bad) other.replace(other.find("\"errors\":0"), 10, "\"errors\":1");
                   out.expect(result_text(okline) == result_text(other),
                              "inline copy");
                 });

  std::printf("%s: %d check(s) failed to catch a corruption\n",
              g_failures == 0 ? "self-test passed" : "self-test FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace bench
