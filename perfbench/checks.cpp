#include "checks.h"

#include <algorithm>
#include <map>
#include <random>

#include "fault/threaded_fault_sim.h"
#include "lfsr/lfsr.h"
#include "obs/json.h"
#include "sim/comb_sim.h"
#include "sim/parallel_sim.h"

namespace bench {

using namespace dft;

namespace {

// Up to n elements of `pool`, chosen by rng.
std::vector<int> sample(std::vector<int> pool, std::size_t n,
                        std::mt19937_64& rng) {
  std::shuffle(pool.begin(), pool.end(), rng);
  if (pool.size() > n) pool.resize(n);
  return pool;
}

}  // namespace

AtpgPartition check_atpg_run(const Netlist& nl, const std::vector<Fault>& faults,
                   const AtpgRun& run, std::uint64_t sample_seed,
                   int serial_per_class, const std::string& label,
                   Outcome& out) {
  try {
    validate_patterns(nl, run.tests, true);
  } catch (const std::exception& e) {
    out.fail(label + ": malformed test: " + e.what());
    return {};
  }
  out.expect(run.remaining.empty(), label + ": run left faults unprocessed");
  out.expect(run.num_faults == static_cast<int>(faults.size()),
             label + ": num_faults differs from the fault list");

  const FaultSimResult replay =
      make_fault_sim_engine(nl, "deductive", 1)->run(run.tests, faults, false);
  out.expect(replay.num_detected == run.detected,
             label + ": deductive replay detects " +
                 std::to_string(replay.num_detected) + " faults, run claims " +
                 std::to_string(run.detected));

  std::map<Fault, std::size_t> index;
  for (std::size_t i = 0; i < faults.size(); ++i) index[faults[i]] = i;
  std::vector<int> listed(faults.size(), 0);  // times in redundant/aborted
  int detected_redundant = 0, detected_aborted = 0;
  std::vector<int> detected, redundant, aborted;
  const auto classify = [&](const std::vector<Fault>& list,
                            std::vector<int>& members, int& also_detected,
                            const char* name) {
    for (const Fault& f : list) {
      const auto it = index.find(f);
      if (it == index.end()) {
        out.fail(label + ": " + name + " fault not in the fault list");
        continue;
      }
      ++listed[it->second];
      if (replay.first_detected_by[it->second] >= 0) ++also_detected;
      members.push_back(static_cast<int>(it->second));
    }
  };
  classify(run.redundant, redundant, detected_redundant, "redundant");
  classify(run.aborted, aborted, detected_aborted, "aborted");
  std::size_t twice = 0, unclassified = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const bool hit = replay.first_detected_by[i] >= 0;
    if (hit) detected.push_back(static_cast<int>(i));
    if (listed[i] > 1) ++twice;
    if (!hit && listed[i] == 0) ++unclassified;
  }
  out.expect(detected_redundant == 0,
             label + ": final tests detect " +
                 std::to_string(detected_redundant) +
                 " faults classified redundant");
  out.expect(twice == 0, label + ": " + std::to_string(twice) +
                             " faults listed twice as redundant/aborted");

  if (serial_per_class > 0) {
    std::mt19937_64 rng(sample_seed);
    const auto n = static_cast<std::size_t>(serial_per_class);
    std::vector<int> picked = sample(detected, n, rng);
    for (const std::vector<int>* pool : {&redundant, &aborted}) {
      const std::vector<int> more = sample(*pool, n, rng);
      picked.insert(picked.end(), more.begin(), more.end());
    }
    std::vector<Fault> subset;
    for (int i : picked) subset.push_back(faults[static_cast<std::size_t>(i)]);
    SerialFaultSimulator serial(nl);
    const FaultSimResult sr = serial.run(run.tests, subset, true);
    for (std::size_t k = 0; k < picked.size(); ++k) {
      const auto i = static_cast<std::size_t>(picked[k]);
      if ((sr.first_detected_by[k] >= 0) != (replay.first_detected_by[i] >= 0)) {
        out.fail(label + ": serial and deductive replay disagree on fault " +
                 std::to_string(i));
      }
    }
  }
  return {detected_aborted, static_cast<int>(unclassified)};
}

void check_replay_count(const Netlist& nl, const std::vector<Fault>& faults,
                        const std::vector<SourceVector>& tests,
                        int claimed_detected, const std::string& label,
                        Outcome& out) {
  try {
    validate_patterns(nl, tests, true);
  } catch (const std::exception& e) {
    out.fail(label + ": malformed test: " + e.what());
    return;
  }
  SerialFaultSimulator serial(nl);
  const FaultSimResult r = serial.run(tests, faults, true);
  out.expect(r.num_detected == claimed_detected,
             label + ": serial replay detects " +
                 std::to_string(r.num_detected) + ", answer claims " +
                 std::to_string(claimed_detected));
}

std::vector<SourceVector> prpg_patterns(const Netlist& nl, int patterns,
                                        std::uint64_t seed) {
  const std::size_t nsrc = source_count(nl);
  Lfsr prpg = Lfsr::maximal(24, seed);
  std::vector<SourceVector> tests;
  tests.reserve(static_cast<std::size_t>(patterns));
  for (int p = 0; p < patterns; ++p) {
    SourceVector v(nsrc);
    for (Logic& bit : v) bit = to_logic(prpg.step());
    tests.push_back(std::move(v));
  }
  return tests;
}

std::uint64_t parallel_signature(const Netlist& nl,
                                 const std::vector<SourceVector>& patterns) {
  ParallelSim sim(nl);
  SignatureAnalyzer sa(32);
  std::vector<GateId> sources(nl.inputs().begin(), nl.inputs().end());
  sources.insert(sources.end(), nl.storage().begin(), nl.storage().end());
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t n = std::min<std::size_t>(64, patterns.size() - base);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      std::uint64_t w = 0;
      for (std::size_t p = 0; p < n; ++p) {
        if (patterns[base + p][s] == Logic::One) w |= std::uint64_t{1} << p;
      }
      sim.set_word(sources[s], w);
    }
    sim.evaluate();
    for (std::size_t p = 0; p < n; ++p) {
      for (GateId po : nl.outputs()) sa.shift(((sim.word(po) >> p) & 1) != 0);
    }
  }
  return sa.signature();
}

std::uint64_t comb_signature(const Netlist& nl,
                             const std::vector<SourceVector>& patterns) {
  CombSim sim(nl);
  SignatureAnalyzer sa(32);
  for (const SourceVector& v : patterns) {
    std::size_t k = 0;
    for (GateId g : nl.inputs()) sim.set_value(g, v[k++]);
    for (GateId g : nl.storage()) sim.set_value(g, v[k++]);
    sim.evaluate();
    for (GateId po : nl.outputs()) sa.shift(sim.value(po) == Logic::One);
  }
  return sa.signature();
}

void check_same_detections(const std::vector<int>& expected,
                           const std::vector<int>& actual,
                           const std::string& label, Outcome& out) {
  if (expected.size() != actual.size()) {
    out.fail(label + ": fault lists differ in length");
    return;
  }
  std::size_t diff = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != actual[i]) ++diff;
  }
  out.expect(diff == 0, label + ": first_detected_by differs on " +
                            std::to_string(diff) + " faults");
}

// The response's result object as the daemon rendered it.
std::string result_text(const std::string& line) {
  const auto at = line.find(",\"result\":");
  return at == std::string::npos || line.empty()
             ? std::string()
             : line.substr(at + 10, line.size() - at - 11);
}

bool answered_ok(const std::string& line, const std::string& id) {
  obs::Json doc;
  try {
    doc = obs::parse_json(line);
  } catch (const std::exception&) {
    return false;
  }
  if (!doc.is_object()) return false;
  const obs::Json* got_id = doc.find("id");
  const obs::Json* ok = doc.find("ok");
  const obs::Json* status = doc.find("status");
  // "degraded" is a complete ATPG run that left aborted faults; a deadline
  // or cancellation would have cut the job short.
  return got_id != nullptr && got_id->is_string() && got_id->as_string() == id &&
         ok != nullptr && ok->is_bool() && ok->as_bool() && status != nullptr &&
         status->is_string() &&
         (status->as_string() == "completed" || status->as_string() == "degraded");
}

int reference_fault_sim(const Netlist& nl, std::uint64_t seed, int patterns) {
  std::mt19937_64 rng(seed);
  std::vector<SourceVector> tests;
  for (int p = 0; p < patterns; ++p) tests.push_back(random_source_vector(nl, rng));
  const std::vector<Fault> faults = collapse_faults(nl).representatives;
  if (nl.size() > kSerialGateLimit) {
    return make_fault_sim_engine(nl, "deductive", 1)->run(tests, faults, false)
        .num_detected;
  }
  SerialFaultSimulator serial(nl);
  return serial.run(tests, faults, true).num_detected;
}

SourceVector parse_vector(const std::string& bits) {
  SourceVector v;
  v.reserve(bits.size());
  for (char c : bits) {
    v.push_back(c == '0' ? Logic::Zero : c == '1' ? Logic::One : Logic::X);
  }
  return v;
}

}  // namespace bench
