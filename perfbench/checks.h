// Output checks made apart from the program. Each takes the program's
// output plus what is needed to recompute it, and records every mismatch
// in the Outcome. The self-test (selftest.cpp) feeds each one a corrupted
// output to show that it can fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "common.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "netlist/netlist.h"

namespace bench {

// How an ATPG result breaks "detected + redundant + aborted = fault
// count, no fault counted twice".
struct AtpgPartition {
  int detected_aborted = 0;  // listed aborted, yet detected by a final test
  int unclassified = 0;      // neither detected nor listed
  bool holds() const { return detected_aborted == 0 && unclassified == 0; }
};

// ATPG result: the final tests replayed on the deductive engine over every
// fault must detect exactly run.detected faults; no fault may be listed
// twice as redundant/aborted; no final test may detect a redundant fault.
// Up to `serial_per_class` faults of each class (chosen by `sample_seed`)
// are replayed on SerialFaultSimulator as well, which must agree with the
// deductive replay. The partition itself is returned, not recorded.
AtpgPartition check_atpg_run(const dft::Netlist& nl,
                             const std::vector<dft::Fault>& faults,
                             const dft::AtpgRun& run,
                             std::uint64_t sample_seed, int serial_per_class,
                             const std::string& label, Outcome& out);

// Replays `tests` on the serial engine and checks the detected count.
void check_replay_count(const dft::Netlist& nl,
                        const std::vector<dft::Fault>& faults,
                        const std::vector<dft::SourceVector>& tests,
                        int claimed_detected, const std::string& label,
                        Outcome& out);

// The BIST session's PRPG: one maximal degree-24 LFSR stepped once per
// source bit, pattern after pattern (the sequence dft_tool bist and the
// serve bist op apply).
std::vector<dft::SourceVector> prpg_patterns(const dft::Netlist& nl,
                                             int patterns,
                                             std::uint64_t seed);

// Good-machine signature of `patterns` (32-bit signature analyzer over every
// primary output, pattern by pattern), recomputed 64 patterns at a time on
// ParallelSim.
std::uint64_t parallel_signature(const dft::Netlist& nl,
                                 const std::vector<dft::SourceVector>& patterns);

// The same signature the way dft_tool bist computes it: scalar CombSim,
// one pattern per pass.
std::uint64_t comb_signature(const dft::Netlist& nl,
                             const std::vector<dft::SourceVector>& patterns);

// first_detected_by of two gradings must be identical.
void check_same_detections(const std::vector<int>& expected,
                           const std::vector<int>& actual,
                           const std::string& label, Outcome& out);

// True when `line` is an ok response to request `id` from a job that ran
// to its end (status completed, or degraded: ATPG with aborted faults).
bool answered_ok(const std::string& line, const std::string& id);

// The "result" object of a response line, as the daemon rendered it.
std::string result_text(const std::string& line);

// Circuits above this size are graded on the deductive engine instead of
// the serial one, whose cost per undetected fault is a full pass per
// pattern (minutes on rand2k).
inline constexpr std::size_t kSerialGateLimit = 1000;

// Detected count of a serve fault_sim request recomputed in-process: the
// daemon draws its patterns from mt19937_64(seed), one
// random_source_vector per pattern, and grades the collapsed faults.
int reference_fault_sim(const dft::Netlist& nl, std::uint64_t seed,
                        int patterns);

// Parses a vector string of '0'/'1' characters; X/Z map to X.
dft::SourceVector parse_vector(const std::string& bits);

}  // namespace bench
