// Golden-cube regression for PODEM: every AtpgOutcome field the search
// reports -- status, test cube, decisions, backtracks, implications -- must
// match the committed fixture data/podem_golden.txt line for line. The
// fixture pins the exact search trajectory, not just the verdicts, so any
// change to implication, objective selection, backtrace or the D-frontier
// pick shows up here even when the cube still detects its fault.
//
// Each case writes what it computed to <build>/tests/podem_golden.<tag>.txt
// in the fixture's line format; after a deliberate change to the search,
// regenerate the fixture by concatenating those files (header first):
//   cat tests/podem_golden.{c17,sn74181,mux3,accum4,atpg_rand,rand20k}.txt
// The cases reuse one Podem per circuit, so the state carried from one
// generate() call into the next is covered too.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/podem.h"
#include "circuits/basic.h"
#include "circuits/random_circuit.h"
#include "circuits/sequential.h"
#include "circuits/sn74181.h"
#include "fault/fault.h"
#include "netlist/bench_io.h"
#include "serve/cache.h"

namespace dft {
namespace {

const char* status_name(AtpgStatus s) {
  switch (s) {
    case AtpgStatus::TestFound: return "test";
    case AtpgStatus::Redundant: return "redundant";
    case AtpgStatus::Aborted: return "aborted";
  }
  return "?";
}

// One fixture line: <tag> <fault> <status> <cube|-> <decisions> <backtracks>
// <implications>.
std::string golden_line(const std::string& tag, const Netlist& nl,
                        const Fault& f, const AtpgOutcome& out) {
  std::string cube;
  for (Logic l : out.pattern) cube += to_char(l);
  if (cube.empty()) cube = "-";
  std::ostringstream os;
  os << tag << ' ' << fault_name(nl, f) << ' ' << status_name(out.status)
     << ' ' << cube << ' ' << out.decisions << ' ' << out.backtracks << ' '
     << out.implications;
  return os.str();
}

std::vector<std::string> fixture_lines(const std::string& tag) {
  std::ifstream in(DFT_PODEM_GOLDEN_FIXTURE);
  EXPECT_TRUE(in.good()) << "cannot open " << DFT_PODEM_GOLDEN_FIXTURE;
  std::vector<std::string> lines;
  std::string line;
  const std::string prefix = tag + ' ';
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) lines.push_back(line);
  }
  return lines;
}

// Runs one Podem over `faults` in order and compares every outcome with the
// fixture's lines for `tag`.
void check_golden(const std::string& tag, const Netlist& nl,
                  const std::vector<Fault>& faults, int backtrack_limit) {
  Podem podem(nl, backtrack_limit);
  std::vector<std::string> actual;
  actual.reserve(faults.size());
  for (const Fault& f : faults) {
    actual.push_back(golden_line(tag, nl, f, podem.generate(f)));
  }
  {
    std::ofstream out(std::string(DFT_PODEM_GOLDEN_ACTUAL_DIR) +
                      "/podem_golden." + tag + ".txt");
    for (const std::string& l : actual) out << l << '\n';
  }
  const std::vector<std::string> want = fixture_lines(tag);
  ASSERT_EQ(actual.size(), want.size()) << tag << ": fault count differs";
  int mismatches = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] == want[i]) continue;
    if (++mismatches <= 10) {
      ADD_FAILURE() << "line " << i << "\n  want: " << want[i]
                    << "\n  got:  " << actual[i];
    }
  }
  EXPECT_EQ(mismatches, 0) << tag;
}

std::vector<Fault> collapsed(const Netlist& nl) {
  return collapse_faults(nl).representatives;
}

TEST(PodemGolden, C17) {
  const Netlist nl = make_c17();
  check_golden("c17", nl, collapsed(nl), 20000);
}

TEST(PodemGolden, Sn74181) {
  const Netlist nl = make_sn74181();
  check_golden("sn74181", nl, collapsed(nl), 100000);
}

TEST(PodemGolden, MuxTree) {
  const Netlist nl = make_mux_tree(3);
  check_golden("mux3", nl, collapsed(nl), 20000);
}

TEST(PodemGolden, SequentialCaptureModel) {
  const Netlist nl = make_accumulator(4);
  check_golden("accum4", nl, collapsed(nl), 20000);
}

// The rand2k-class circuit of the ATPG benchmark workload (seed 7, parsed
// back from its .bench text exactly as the workload builds it), every
// collapsed fault at backtrack limit 3.
TEST(PodemGolden, AtpgRandCircuit) {
  RandomCircuitSpec spec;
  spec.num_inputs = 40;
  spec.num_outputs = 24;
  spec.num_gates = 2000;
  spec.max_fanin = 4;
  spec.seed = 7;
  const Netlist nl = read_bench_string(
      write_bench_string(make_random_combinational(spec)), "atpg_rand");
  check_golden("atpg_rand", nl, collapsed(nl), 3);
}

// A fixed stride sample of 500 collapsed rand20k faults at limit 3.
TEST(PodemGolden, Rand20kSample) {
  const Netlist nl = serve::builtin_circuit("rand20k");
  const std::vector<Fault> all = collapsed(nl);
  std::vector<Fault> sample;
  const std::size_t stride = all.size() / 500;
  for (std::size_t i = 0; i < all.size() && sample.size() < 500; i += stride) {
    sample.push_back(all[i]);
  }
  ASSERT_EQ(sample.size(), 500u);
  check_golden("rand20k", nl, sample, 3);
}

}  // namespace
}  // namespace dft
