// Tests for the D-calculus, PODEM, the D-algorithm, random TPG, compaction,
// and the full ATPG engine -- including the key soundness properties:
//   * every generated cube actually detects its target fault (checked with
//     the independent serial fault simulator);
//   * "Redundant" verdicts are true (brute-force exhaustive check on small
//     circuits);
//   * PODEM and the D-algorithm agree on testability.
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "atpg/compact.h"
#include "atpg/d_algorithm.h"
#include "atpg/dvalue.h"
#include "atpg/engine.h"
#include "atpg/podem.h"
#include "atpg/random_tpg.h"
#include "circuits/basic.h"
#include "circuits/random_circuit.h"
#include "circuits/sequential.h"
#include "circuits/sn74181.h"
#include "fault/threaded_fault_sim.h"
#include "netlist/bench_io.h"

namespace dft {
namespace {

// Brute-force testability on small combinational circuits.
bool exhaustively_testable(const Netlist& nl, const Fault& f) {
  SerialFaultSimulator fsim(nl);
  const std::size_t ns = source_count(nl);
  EXPECT_LE(ns, 20u);
  for (std::uint64_t v = 0; v < (1ull << ns); ++v) {
    SourceVector pat(ns);
    for (std::size_t i = 0; i < ns; ++i) {
      pat[i] = to_logic((v >> i) & 1);
    }
    if (fsim.detects(pat, f)) return true;
  }
  return false;
}

TEST(DValue, ComposeAndProjectRoundTrip) {
  EXPECT_EQ(compose(Logic::One, Logic::Zero), DVal::D);
  EXPECT_EQ(compose(Logic::Zero, Logic::One), DVal::Dbar);
  EXPECT_EQ(good_of(DVal::D), Logic::One);
  EXPECT_EQ(faulty_of(DVal::D), Logic::Zero);
  EXPECT_EQ(dval_not(DVal::D), DVal::Dbar);
}

TEST(DValue, AndOrTables) {
  EXPECT_EQ(dval_and(DVal::D, DVal::One), DVal::D);
  EXPECT_EQ(dval_and(DVal::D, DVal::Zero), DVal::Zero);
  EXPECT_EQ(dval_and(DVal::D, DVal::Dbar), DVal::Zero);
  EXPECT_EQ(dval_and(DVal::D, DVal::D), DVal::D);
  EXPECT_EQ(dval_or(DVal::Dbar, DVal::Zero), DVal::Dbar);
  EXPECT_EQ(dval_or(DVal::D, DVal::Dbar), DVal::One);
  EXPECT_EQ(dval_xor(DVal::D, DVal::D), DVal::Zero);
  EXPECT_EQ(dval_xor(DVal::D, DVal::One), DVal::Dbar);
  EXPECT_EQ(dval_and(DVal::D, DVal::X), DVal::X);
}

TEST(Podem, FindsTheFig1Test) {
  const Netlist nl = make_fig1_and();
  Podem podem(nl);
  const GateId a = *nl.find("a");
  const AtpgOutcome out = podem.generate({a, -1, true});
  ASSERT_EQ(out.status, AtpgStatus::TestFound);
  // The unique test for a/1 is A=0, B=1.
  EXPECT_EQ(out.pattern[0], Logic::Zero);
  EXPECT_EQ(out.pattern[1], Logic::One);
}

TEST(Podem, EveryC17FaultGetsAVerifiedTest) {
  const Netlist nl = make_c17();
  Podem podem(nl);
  SerialFaultSimulator fsim(nl);
  std::mt19937_64 rng(3);
  for (const Fault& f : enumerate_faults(nl)) {
    const AtpgOutcome out = podem.generate(f);
    ASSERT_EQ(out.status, AtpgStatus::TestFound) << fault_name(nl, f);
    SourceVector pat = out.pattern;
    random_fill(pat, rng);
    EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
  }
}

TEST(Podem, CubesDetectUnderAnyFill) {
  // A PODEM cube guarantees detection for every completion of its X values.
  const Netlist nl = make_c17();
  Podem podem(nl);
  SerialFaultSimulator fsim(nl);
  const auto faults = collapse_faults(nl).representatives;
  for (const Fault& f : faults) {
    const AtpgOutcome out = podem.generate(f);
    ASSERT_EQ(out.status, AtpgStatus::TestFound);
    // Try all completions (c17 has 5 inputs).
    std::vector<std::size_t> free_idx;
    for (std::size_t i = 0; i < out.pattern.size(); ++i) {
      if (!is_binary(out.pattern[i])) free_idx.push_back(i);
    }
    for (std::uint64_t v = 0; v < (1ull << free_idx.size()); ++v) {
      SourceVector pat = out.pattern;
      for (std::size_t k = 0; k < free_idx.size(); ++k) {
        pat[free_idx[k]] = to_logic((v >> k) & 1);
      }
      EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
    }
  }
}

TEST(Podem, ProvesRedundancyInRedundantCircuit) {
  // y = (a AND b) OR (a AND NOT b) has a redundant fault: the OR output
  // cannot be... actually use the classic redundancy: z = a AND (b OR NOT b).
  const char* text = R"(
INPUT(a)
INPUT(b)
OUTPUT(z)
nb = NOT(b)
t = OR(b, nb)
z = AND(a, t)
)";
  const Netlist nl = read_bench_string(text);
  Podem podem(nl);
  // t is always 1: t/1 is undetectable.
  const AtpgOutcome out = podem.generate({*nl.find("t"), -1, true});
  EXPECT_EQ(out.status, AtpgStatus::Redundant);
  EXPECT_FALSE(exhaustively_testable(nl, {*nl.find("t"), -1, true}));
  // But t/0 is testable.
  const AtpgOutcome out2 = podem.generate({*nl.find("t"), -1, false});
  EXPECT_EQ(out2.status, AtpgStatus::TestFound);
}

TEST(Podem, VerdictMatchesBruteForceOnRandomCircuits) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    RandomCircuitSpec spec;
    spec.num_inputs = 8;
    spec.num_outputs = 4;
    spec.num_gates = 60;
    spec.seed = seed;
    const Netlist nl = make_random_combinational(spec);
    Podem podem(nl);
    SerialFaultSimulator fsim(nl);
    std::mt19937_64 rng(seed);
    for (const Fault& f : collapse_faults(nl).representatives) {
      const AtpgOutcome out = podem.generate(f);
      ASSERT_NE(out.status, AtpgStatus::Aborted) << fault_name(nl, f);
      const bool testable = exhaustively_testable(nl, f);
      EXPECT_EQ(out.status == AtpgStatus::TestFound, testable)
          << fault_name(nl, f) << " seed " << seed;
      if (out.status == AtpgStatus::TestFound) {
        SourceVector pat = out.pattern;
        random_fill(pat, rng);
        EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
      }
    }
  }
}

TEST(Podem, ProvesThe74181CarryChainRedundancies) {
  // The ten random-resistant faults of the expanded carry-lookahead are
  // genuinely redundant (see fault_test): PODEM must prove every one.
  const Netlist nl = make_sn74181();
  Podem podem(nl, 100000);
  int redundant = 0, found = 0, aborted = 0;
  for (const Fault& f : collapse_faults(nl).representatives) {
    switch (podem.generate(f).status) {
      case AtpgStatus::Redundant: ++redundant; break;
      case AtpgStatus::TestFound: ++found; break;
      case AtpgStatus::Aborted: ++aborted; break;
    }
  }
  EXPECT_EQ(aborted, 0);
  EXPECT_EQ(redundant, 10);
  EXPECT_EQ(found, 225);
}

TEST(Podem, HandlesMuxAndSequentialCaptureModel) {
  const Netlist nl = make_mux_tree(3);
  Podem podem(nl);
  SerialFaultSimulator fsim(nl);
  std::mt19937_64 rng(5);
  for (const Fault& f : collapse_faults(nl).representatives) {
    const AtpgOutcome out = podem.generate(f);
    ASSERT_EQ(out.status, AtpgStatus::TestFound) << fault_name(nl, f);
    SourceVector pat = out.pattern;
    random_fill(pat, rng);
    EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
  }
}

TEST(DAlgorithm, AgreesWithPodemOnC17) {
  const Netlist nl = make_c17();
  Podem podem(nl);
  DAlgorithm dalg(nl);
  SerialFaultSimulator fsim(nl);
  std::mt19937_64 rng(7);
  for (const Fault& f : enumerate_faults(nl)) {
    const AtpgOutcome po = podem.generate(f);
    const AtpgOutcome da = dalg.generate(f);
    ASSERT_EQ(da.status, AtpgStatus::TestFound) << fault_name(nl, f);
    ASSERT_EQ(po.status, da.status);
    SourceVector pat = da.pattern;
    random_fill(pat, rng);
    EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
  }
}

TEST(DAlgorithm, VerifiedTestsOnRandomBasicCircuits) {
  RandomCircuitSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 4;
  spec.num_gates = 60;
  spec.seed = 77;
  const Netlist nl = make_random_combinational(spec);
  DAlgorithm dalg(nl);
  SerialFaultSimulator fsim(nl);
  std::mt19937_64 rng(9);
  int found = 0;
  for (const Fault& f : collapse_faults(nl).representatives) {
    const AtpgOutcome out = dalg.generate(f);
    ASSERT_NE(out.status, AtpgStatus::Aborted) << fault_name(nl, f);
    EXPECT_EQ(out.status == AtpgStatus::TestFound,
              exhaustively_testable(nl, f))
        << fault_name(nl, f);
    if (out.status == AtpgStatus::TestFound) {
      ++found;
      SourceVector pat = out.pattern;
      random_fill(pat, rng);
      EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
    }
  }
  EXPECT_GT(found, 0);
}

TEST(DAlgorithm, AgreesWithPodemOn74181IncludingRedundancies) {
  // The 74181 is pure basic-gate logic, so the D-algorithm applies; its
  // verdicts must match PODEM's on every collapsed fault -- including the
  // ten provably redundant carry-lookahead faults.
  const Netlist nl = make_sn74181();
  Podem podem(nl, 200000);
  DAlgorithm dalg(nl, 200000);
  SerialFaultSimulator fsim(nl);
  std::mt19937_64 rng(13);
  int redundant = 0;
  for (const Fault& f : collapse_faults(nl).representatives) {
    const AtpgOutcome po = podem.generate(f);
    const AtpgOutcome da = dalg.generate(f);
    ASSERT_NE(po.status, AtpgStatus::Aborted) << fault_name(nl, f);
    ASSERT_NE(da.status, AtpgStatus::Aborted) << fault_name(nl, f);
    ASSERT_EQ(po.status, da.status) << fault_name(nl, f);
    if (da.status == AtpgStatus::TestFound) {
      SourceVector pat = da.pattern;
      random_fill(pat, rng);
      EXPECT_TRUE(fsim.detects(pat, f)) << fault_name(nl, f);
    } else {
      ++redundant;
    }
  }
  EXPECT_EQ(redundant, 10);
}

TEST(DAlgorithm, RejectsMuxCircuits) {
  const Netlist nl = make_mux_tree(2);
  EXPECT_THROW(DAlgorithm dalg(nl), std::invalid_argument);
}

TEST(RandomTpg, ReachesHighCoverageOnParityTree) {
  // XOR trees are ideal for random patterns: every fault has detection
  // probability >= 1/4.
  const Netlist nl = make_parity_tree(16);
  const auto faults = collapse_faults(nl).representatives;
  RandomTpgOptions opt;
  opt.max_patterns = 512;
  const RandomTpgResult res = random_tpg(nl, faults, opt);
  EXPECT_EQ(res.num_detected, static_cast<int>(faults.size()));
  EXPECT_LT(res.kept_patterns.size(), 40u);  // dropping keeps the set small
}

TEST(RandomTpg, AdaptiveBeatsPlainOnHighFaninAnd) {
  // A 12-input AND: output/1 pin faults need all-ones -- probability 2^-12
  // per balanced pattern. Weighted profiles find it quickly.
  Netlist nl;
  std::vector<GateId> ins;
  for (int i = 0; i < 12; ++i) {
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  }
  const GateId g = nl.add_gate(GateType::And, ins, "g");
  nl.add_output(g, "o");
  const auto faults = collapse_faults(nl).representatives;

  RandomTpgOptions plain;
  plain.max_patterns = 1024;
  plain.stall_blocks = 1000;
  plain.seed = 19;
  RandomTpgOptions weighted = plain;
  weighted.adaptive = true;
  const auto rp = random_tpg(nl, faults, plain);
  const auto rw = random_tpg(nl, faults, weighted);
  EXPECT_GE(rw.num_detected, rp.num_detected);
  EXPECT_EQ(rw.num_detected, static_cast<int>(faults.size()));
}

TEST(Compaction, MergesCompatibleCubes) {
  const SourceVector a = {Logic::One, Logic::X, Logic::Zero};
  const SourceVector b = {Logic::X, Logic::One, Logic::Zero};
  const SourceVector c = {Logic::Zero, Logic::X, Logic::X};
  EXPECT_TRUE(cubes_compatible(a, b));
  EXPECT_FALSE(cubes_compatible(a, c));
  const auto merged = merge_compatible({a, b, c});
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0][0], Logic::One);
  EXPECT_EQ(merged[0][1], Logic::One);
}

TEST(Compaction, DropRedundantKeepsCoverage) {
  const Netlist nl = make_c17();
  const auto faults = enumerate_faults(nl);
  std::mt19937_64 rng(21);
  std::vector<SourceVector> pats;
  for (int i = 0; i < 64; ++i) pats.push_back(random_source_vector(nl, rng));
  ParallelFaultSimulator fsim(nl);
  const double before = fsim.run(pats, faults).coverage();
  const auto compacted = drop_redundant_patterns(nl, faults, pats);
  const double after = fsim.run(compacted, faults).coverage();
  EXPECT_EQ(before, after);
  EXPECT_LT(compacted.size(), pats.size());
}

TEST(Engine, FullCoverageOnC17AndAdder) {
  for (const Netlist& nl : {make_c17(), make_ripple_adder(4)}) {
    const auto faults = collapse_faults(nl).representatives;
    const AtpgRun run = run_atpg(nl, faults);
    EXPECT_EQ(run.aborted.size(), 0u);
    EXPECT_EQ(run.redundant.size(), 0u);
    EXPECT_DOUBLE_EQ(run.test_coverage(), 1.0) << nl.name();
    EXPECT_FALSE(run.tests.empty());
  }
}

TEST(Engine, CompleteTestCoverageOn74181WithRedundanciesProven) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions opt;
  opt.backtrack_limit = 100000;
  const AtpgRun run = run_atpg(nl, faults, opt);
  EXPECT_EQ(run.aborted.size(), 0u);
  EXPECT_EQ(run.redundant.size(), 10u);
  EXPECT_DOUBLE_EQ(run.test_coverage(), 1.0);
  EXPECT_NEAR(run.fault_coverage(), 225.0 / 235.0, 1e-12);
}

TEST(Engine, CoversSequentialCircuitUnderScanModel) {
  const Netlist nl = make_accumulator(4);
  const auto faults = collapse_faults(nl).representatives;
  const AtpgRun run = run_atpg(nl, faults);
  EXPECT_EQ(run.aborted.size(), 0u);
  EXPECT_DOUBLE_EQ(run.test_coverage(), 1.0);
}

TEST(Engine, CompactionShrinksTestSet) {
  const Netlist nl = make_sn74181();
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions with, without;
  with.compact = true;
  without.compact = false;
  with.backtrack_limit = without.backtrack_limit = 100000;
  const AtpgRun a = run_atpg(nl, faults, with);
  const AtpgRun b = run_atpg(nl, faults, without);
  EXPECT_LE(a.tests.size(), b.tests.size());
  EXPECT_DOUBLE_EQ(a.test_coverage(), 1.0);
  EXPECT_DOUBLE_EQ(b.test_coverage(), 1.0);
}

// Every fault ends up in exactly one class: detected by the final tests,
// redundant, or aborted. The rand2k-class benchmark circuit at backtrack
// limit 3 exercises both ways this can break: aborted faults that the
// final tests detect anyway, and cross-dropped faults whose detecting fill
// is lost when compaction merges and refills cubes.
TEST(Engine, PartitionsEveryFaultOnceUnderDeductiveReplay) {
  RandomCircuitSpec spec;
  spec.num_inputs = 40;
  spec.num_outputs = 24;
  spec.num_gates = 2000;
  spec.max_fanin = 4;
  spec.seed = 7;
  const Netlist nl = read_bench_string(
      write_bench_string(make_random_combinational(spec)), "atpg_rand");
  const auto faults = collapse_faults(nl).representatives;
  AtpgOptions opt;
  opt.backtrack_limit = 3;
  const AtpgRun run = run_atpg(nl, faults, opt);
  ASSERT_TRUE(run.remaining.empty());
  ASSERT_FALSE(run.aborted.empty());

  const FaultSimResult replay = make_fault_sim_engine(nl, "deductive", 1)
                                    ->run(run.tests, faults, false);
  EXPECT_EQ(replay.num_detected, run.detected);
  std::map<Fault, std::size_t> index;
  for (std::size_t i = 0; i < faults.size(); ++i) index[faults[i]] = i;
  std::vector<int> listed(faults.size(), 0);
  for (const auto* list : {&run.redundant, &run.aborted}) {
    for (const Fault& f : *list) {
      const auto it = index.find(f);
      ASSERT_NE(it, index.end()) << fault_name(nl, f);
      ++listed[it->second];
      EXPECT_LT(replay.first_detected_by[it->second], 0)
          << "classified fault is detected: " << fault_name(nl, f);
    }
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(listed[i] + (replay.first_detected_by[i] >= 0 ? 1 : 0), 1)
        << fault_name(nl, faults[i]);
  }
  EXPECT_EQ(static_cast<std::size_t>(run.detected) + run.redundant.size() +
                run.aborted.size(),
            faults.size());
}

}  // namespace
}  // namespace dft
