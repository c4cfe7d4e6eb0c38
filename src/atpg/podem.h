// PODEM (path-oriented decision making) deterministic test generation.
//
// The survey's structured techniques exist precisely to make this viable:
// "the test generation problem [is] completely reduced to one of generating
// tests for combinational logic" (Sec. I). PODEM searches over primary-input
// (and pseudo-primary-input, i.e. scan flip-flop) assignments only, with
// SCOAP-guided backtrace, an X-path check, and a backtrack limit.
//
// Implication is incremental over the flat CompiledNetlist. Only the source
// a decision just bound (or a backtrack just flipped) is re-derived, and
// its changes run forward through a level-ordered event wheel in the
// 5-valued D-calculus. Every value change is logged on a trail. A backtrack
// undoes the trail to the decision's mark, and the end of a search undoes
// it to the fault-free all-X base. Detection (an error on an observation
// point) and the D-frontier are kept up to date as values change, and the
// X-path search starts from the tracked D-frontier. A search step therefore
// costs in proportion to the events it triggers, not to the netlist size.
// After every step the values equal a full 5-valued simulation of the
// current assignment with the fault injected.
//
// Outcomes are exact: TestFound (with the generated cube), Redundant (the
// search space is exhausted -- the fault is untestable), or Aborted (limit
// hit).
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/dvalue.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "guard/guard.h"
#include "measure/scoap.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"

namespace dft {

enum class AtpgStatus { TestFound, Redundant, Aborted };

struct AtpgOutcome {
  AtpgStatus status = AtpgStatus::Aborted;
  // Test cube over sources (inputs then storage); unassigned entries are X.
  SourceVector pattern;
  int backtracks = 0;
  int decisions = 0;     // source assignments tried (search-tree nodes)
  int implications = 0;  // forward implication steps (one per search step)
  // Completed for a normal search exit (including limit-hit Aborted);
  // DeadlineExpired/Cancelled when a budget cut the search short -- the
  // status above is then Aborted, but the fault was NOT proven hard.
  guard::RunStatus run_status = guard::RunStatus::Completed;
};

class Podem {
 public:
  explicit Podem(const Netlist& nl, int backtrack_limit = 20000);
  explicit Podem(Netlist&&, int = 0) = delete;  // would dangle

  // Optional cooperative budget, polled every few implication steps inside
  // generate(); the pointee must outlive the Podem (or be reset to null).
  void set_budget(const guard::Budget* budget) { budget_ = budget; }

  AtpgOutcome generate(const Fault& fault);

  const Netlist& netlist() const { return *nl_; }

 private:
  struct Decision {
    std::size_t source_index;
    bool tried_both;
    std::size_t mark;  // trail size before this decision's implication
  };
  struct TrailEntry {
    GateId gate;
    DVal old;
  };

  // The search proper; leaves the fault injected and the trail in place.
  AtpgOutcome search(const Fault& f);
  // Injects the fault at its site and implies its effect from the all-X
  // base state.
  void inject(const Fault& f);
  // Undoes the whole trail and removes the fault: back to the base state.
  void release();
  // Binds source `si` to `v` (0/1/X) and implies the change forward.
  void assign_source(std::size_t si, Logic v);
  // Runs the event wheel until no scheduled gate is left.
  void propagate();
  void schedule_fanout(GateId g);
  // The gate's output under the current values, fault composed in.
  DVal eval(GateId g) const;
  DVal source_value(std::size_t si) const;
  // Pin p of g as g perceives it (the stuck value composed on the faulted
  // pin).
  DVal pin_val(GateId g, std::size_t p) const;
  int count_error_pins(GateId g) const;
  // Trail-logged write, and the unlogged write both it and undo use: keeps
  // the detection count and the D-frontier in step with values_.
  void set_value(GateId g, DVal v);
  void write(GateId g, DVal v);
  void undo_to(std::size_t mark);
  void update_frontier(GateId g);

  bool fault_detected(const Fault& f) const;
  // True when the fault can no longer be excited under current assignments.
  bool excitation_impossible(const Fault& f) const;
  bool x_path_exists();
  // Next objective (net, value) or false if none (needs backtrack).
  bool objective(const Fault& f, GateId& net, Logic& value);
  // Maps an objective to a source assignment; false on failure.
  bool backtrace(GateId net, Logic value, std::size_t& source_index,
                 bool& set_to_one) const;

  const Netlist* nl_;
  CompiledNetlist cn_;
  int backtrack_limit_;
  const guard::Budget* budget_ = nullptr;
  ScoapResult scoap_;
  std::vector<GateId> sources_;
  std::vector<int> source_index_of_;  // GateId -> index in sources_, or -1
  std::vector<Logic> assignment_;    // per source: 0/1/X
  std::vector<DVal> values_;         // per gate
  std::vector<char> observe_;        // gate drives a PO or a storage D pin
  mutable std::vector<DVal> scratch_;

  // The injected fault (kNoGate sites when none is).
  GateId stem_gate_ = kNoGate;  // output (stem) fault site
  GateId pin_gate_ = kNoGate;   // combinational gate with a faulted input pin
  std::size_t fault_pin_ = 0;
  GateId pin_driver_ = kNoGate;  // the net feeding the faulted pin
  Logic stuck_ = Logic::Zero;

  std::vector<TrailEntry> trail_;
  std::vector<Decision> stack_;
  // Event wheel: one bucket per level; scheduled_ dedups within a pass.
  std::vector<std::vector<GateId>> wheel_;
  std::vector<char> scheduled_;
  int wheel_lo_ = 0;
  int wheel_hi_ = -1;

  int error_observed_ = 0;         // observation points holding D/Dbar
  std::vector<int> error_pins_;    // per gate: pins reading D/Dbar
  std::vector<GateId> frontier_;   // D-frontier, unordered
  std::vector<int> frontier_pos_;  // GateId -> index in frontier_, or -1

  // X-path DFS scratch: a gate is visited when its stamp equals the epoch.
  std::vector<std::uint32_t> seen_;
  std::uint32_t epoch_ = 0;
  std::vector<GateId> dfs_;

  // Gates re-evaluated by forward implication plus trail entries undone,
  // for the current generate() call (the podem.implication_events counter).
  std::uint64_t events_ = 0;
};

}  // namespace dft
