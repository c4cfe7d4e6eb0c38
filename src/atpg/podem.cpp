#include "atpg/podem.h"

#include <algorithm>

#include "obs/obs.h"
#include "obs/progress.h"

namespace dft {

namespace {

Logic negate(Logic v) { return v == Logic::One ? Logic::Zero : Logic::One; }

// Good/faulty rail bits of each DVal (indexed by its enum value): bit 0 good
// is 0, bit 1 good is 1, bit 2 faulty is 0, bit 3 faulty is 1; X sets none.
constexpr std::uint8_t kRails[5] = {0b0101, 0b1010, 0b0000, 0b0110, 0b1001};

// eval_gate_dval for the basic gates, folded straight over the fanin ids:
// each rail is evaluated in Kleene logic on its own, then recomposed --
// exactly what eval_gate_dval does through eval_gate, without the copies.
DVal eval_basic(GateType t, std::span<const GateId> fin, const DVal* values) {
  const bool invert =
      t == GateType::Nand || t == GateType::Nor || t == GateType::Xnor;
  Logic good = Logic::X;
  Logic faulty = Logic::X;
  switch (t) {
    case GateType::Buf:
    case GateType::Output: return values[fin[0]];
    case GateType::Not: return dval_not(values[fin[0]]);
    case GateType::Xor:
    case GateType::Xnor: {
      // Only X leaves a rail unknown, and it leaves both unknown.
      std::uint8_t odd = 0;
      for (GateId fi : fin) {
        if (values[fi] == DVal::X) return DVal::X;
        odd ^= kRails[static_cast<int>(values[fi])];
      }
      good = to_logic((odd & 0b0010) != 0);
      faulty = to_logic((odd & 0b1000) != 0);
      break;
    }
    default: {  // And/Nand/Or/Nor
      std::uint8_t any = 0;
      std::uint8_t all = 0b1111;
      for (GateId fi : fin) {
        const std::uint8_t r = kRails[static_cast<int>(values[fi])];
        any |= r;
        all &= r;
      }
      if (t == GateType::And || t == GateType::Nand) {
        good = (any & 1) ? Logic::Zero : (all & 2) ? Logic::One : Logic::X;
        faulty = (any & 4) ? Logic::Zero : (all & 8) ? Logic::One : Logic::X;
      } else {
        good = (any & 2) ? Logic::One : (all & 1) ? Logic::Zero : Logic::X;
        faulty = (any & 8) ? Logic::One : (all & 4) ? Logic::Zero : Logic::X;
      }
      break;
    }
  }
  const DVal v = compose(good, faulty);
  return invert ? dval_not(v) : v;
}

}  // namespace

Podem::Podem(const Netlist& nl, int backtrack_limit)
    : nl_(&nl),
      cn_(nl),
      backtrack_limit_(backtrack_limit),
      scoap_(compute_scoap(nl, ScoapMode::FullScan)),
      source_index_of_(nl.size(), -1),
      values_(nl.size(), DVal::X),
      observe_(nl.size(), 0) {
  const std::size_t n = cn_.size();
  for (GateId g : nl.inputs()) {
    source_index_of_[g] = static_cast<int>(sources_.size());
    sources_.push_back(g);
  }
  for (GateId g : nl.storage()) {
    source_index_of_[g] = static_cast<int>(sources_.size());
    sources_.push_back(g);
  }
  assignment_.assign(sources_.size(), Logic::X);
  for (GateId g : nl.outputs()) observe_[g] = 1;
  for (GateId ff : nl.storage()) observe_[nl.fanin(ff)[kStoragePinD]] = 1;
  wheel_.resize(static_cast<std::size_t>(cn_.depth()) + 1);
  scheduled_.assign(n, 0);
  error_pins_.assign(n, 0);
  frontier_pos_.assign(n, -1);
  seen_.assign(n, 0);

  // The base state every search starts from and returns to: all sources X,
  // no fault, constants driven. The one full pass this engine makes.
  for (GateId g = 0; g < n; ++g) {
    if (cn_.type(g) == GateType::Const0) values_[g] = DVal::Zero;
    if (cn_.type(g) == GateType::Const1) values_[g] = DVal::One;
  }
  for (GateId g : cn_.topo()) values_[g] = eval(g);
}

DVal Podem::pin_val(GateId g, std::size_t p) const {
  const DVal v = values_[cn_.fanin(g)[p]];
  return g == pin_gate_ && p == fault_pin_ ? compose(good_of(v), stuck_) : v;
}

DVal Podem::eval(GateId g) const {
  const GateType t = cn_.type(g);
  DVal out;
  if (g == pin_gate_ || t == GateType::Mux || t == GateType::Tristate ||
      t == GateType::Bus) {
    scratch_.clear();
    for (std::size_t p = 0; p < cn_.fanin(g).size(); ++p) {
      scratch_.push_back(pin_val(g, p));
    }
    out = eval_gate_dval(t, scratch_);
  } else {
    out = eval_basic(t, cn_.fanin(g), values_.data());
  }
  return g == stem_gate_ ? compose(good_of(out), stuck_) : out;
}

DVal Podem::source_value(std::size_t si) const {
  const Logic a = assignment_[si];
  if (sources_[si] != stem_gate_) return to_dval(a);
  return is_binary(a) ? compose(a, stuck_) : DVal::X;
}

int Podem::count_error_pins(GateId g) const {
  int n = 0;
  for (std::size_t p = 0; p < cn_.fanin(g).size(); ++p) {
    if (is_error(pin_val(g, p))) ++n;
  }
  return n;
}

void Podem::update_frontier(GateId g) {
  const bool member = values_[g] == DVal::X && error_pins_[g] > 0;
  int& pos = frontier_pos_[g];
  if (member && pos < 0) {
    pos = static_cast<int>(frontier_.size());
    frontier_.push_back(g);
  } else if (!member && pos >= 0) {
    const GateId last = frontier_.back();
    frontier_[static_cast<std::size_t>(pos)] = last;
    frontier_pos_[last] = pos;
    frontier_.pop_back();
    pos = -1;
  }
}

void Podem::write(GateId g, DVal v) {
  const DVal old = values_[g];
  values_[g] = v;
  if (is_error(old) != is_error(v)) {
    const int delta = is_error(v) ? 1 : -1;
    if (observe_[g]) error_observed_ += delta;
    for (GateId s : cn_.fanout(g)) {
      if (!is_combinational(cn_.type(s))) continue;
      // One fanout entry per driven pin; the faulted pin composes the stuck
      // value, so its gate is recounted instead.
      error_pins_[s] = s == pin_gate_ ? count_error_pins(s)
                                      : error_pins_[s] + delta;
      update_frontier(s);
    }
  }
  if (g == pin_driver_) {
    // Any change of the faulted pin's driver can flip the composed pin
    // between error and non-error (X -> good value opposite the stuck one).
    error_pins_[pin_gate_] = count_error_pins(pin_gate_);
    update_frontier(pin_gate_);
  }
  if ((old == DVal::X) != (v == DVal::X)) update_frontier(g);
}

void Podem::set_value(GateId g, DVal v) {
  trail_.push_back({g, values_[g]});
  write(g, v);
}

void Podem::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry e = trail_.back();
    trail_.pop_back();
    write(e.gate, e.old);
    ++events_;
  }
}

void Podem::schedule_fanout(GateId g) {
  for (GateId s : cn_.fanout(g)) {
    if (scheduled_[s] || !is_combinational(cn_.type(s))) continue;
    scheduled_[s] = 1;
    const int lvl = cn_.level(s);
    wheel_[static_cast<std::size_t>(lvl)].push_back(s);
    wheel_lo_ = wheel_hi_ < 0 ? lvl : std::min(wheel_lo_, lvl);
    wheel_hi_ = std::max(wheel_hi_, lvl);
  }
}

void Podem::propagate() {
  // A gate's fanouts sit at strictly higher levels, so walking the levels in
  // order evaluates every gate after all of its changed fanins, and a
  // bucket never grows while it is being walked.
  for (int lvl = wheel_lo_; lvl <= wheel_hi_; ++lvl) {
    std::vector<GateId>& bucket = wheel_[static_cast<std::size_t>(lvl)];
    for (std::size_t k = 0; k < bucket.size(); ++k) {
      const GateId g = bucket[k];
      scheduled_[g] = 0;
      ++events_;
      const DVal v = eval(g);
      if (v == values_[g]) continue;
      set_value(g, v);
      schedule_fanout(g);
    }
    bucket.clear();
  }
  wheel_lo_ = 0;
  wheel_hi_ = -1;
}

void Podem::assign_source(std::size_t si, Logic v) {
  assignment_[si] = v;
  const GateId g = sources_[si];
  const DVal dv = source_value(si);
  if (dv == values_[g]) return;
  set_value(g, dv);
  schedule_fanout(g);
  propagate();
}

void Podem::inject(const Fault& f) {
  stuck_ = f.sa1 ? Logic::One : Logic::Zero;
  const bool comb = is_combinational(cn_.type(f.gate));
  if (f.pin < 0) {
    // A stem fault on a source takes effect once the source is bound (see
    // source_value); constants are never faulted, as in fault simulation.
    stem_gate_ = f.gate;
  } else if (comb) {
    // Storage pins are not composed: a D-pin fault is detected at
    // excitation (fault_detected), the other pins are never observed.
    pin_gate_ = f.gate;
    fault_pin_ = static_cast<std::size_t>(f.pin);
    pin_driver_ = cn_.fanin(f.gate)[fault_pin_];
    error_pins_[f.gate] = count_error_pins(f.gate);
    update_frontier(f.gate);
  }
  if (comb) {
    scheduled_[f.gate] = 1;
    wheel_lo_ = wheel_hi_ = cn_.level(f.gate);
    wheel_[static_cast<std::size_t>(wheel_lo_)].push_back(f.gate);
    propagate();
  }
}

void Podem::release() {
  undo_to(0);
  for (const Decision& d : stack_) assignment_[d.source_index] = Logic::X;
  stack_.clear();
  const GateId pin_gate = pin_gate_;
  stem_gate_ = pin_gate_ = pin_driver_ = kNoGate;
  if (pin_gate != kNoGate) {
    error_pins_[pin_gate] = count_error_pins(pin_gate);
    update_frontier(pin_gate);
  }
}

bool Podem::fault_detected(const Fault& f) const {
  if (is_storage(cn_.type(f.gate)) && f.pin == kStoragePinD) {
    const GateId d = cn_.fanin(f.gate)[kStoragePinD];
    const Logic g = good_of(values_[d]);
    return is_binary(g) && g != stuck_;
  }
  return error_observed_ > 0;
}

bool Podem::excitation_impossible(const Fault& f) const {
  const GateId site =
      f.pin >= 0 ? cn_.fanin(f.gate)[static_cast<std::size_t>(f.pin)] : f.gate;
  const Logic good = good_of(values_[site]);
  return is_binary(good) && good == stuck_;
}

bool Podem::x_path_exists() {
  // DFS through X-valued gates to an observation point. The seeds are the
  // D-frontier plus the gate of an excited input-pin fault whose output is
  // still X (the error lives on the composed pin, not in values_): exactly
  // the X-valued combinational fanouts of every error-valued line.
  if (error_observed_ > 0) return true;
  if (++epoch_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  dfs_.assign(frontier_.begin(), frontier_.end());
  if (pin_gate_ != kNoGate && values_[pin_gate_] == DVal::X) {
    dfs_.push_back(pin_gate_);
  }
  while (!dfs_.empty()) {
    const GateId g = dfs_.back();
    dfs_.pop_back();
    if (seen_[g] == epoch_) continue;
    seen_[g] = epoch_;
    if (observe_[g]) return true;
    for (GateId s : cn_.fanout(g)) {
      if (seen_[s] != epoch_ && values_[s] == DVal::X &&
          is_combinational(cn_.type(s))) {
        dfs_.push_back(s);
      }
    }
  }
  return false;
}

bool Podem::objective(const Fault& f, GateId& net, Logic& value) {
  // Phase 1: excite the fault.
  const GateId site =
      f.pin >= 0 ? cn_.fanin(f.gate)[static_cast<std::size_t>(f.pin)] : f.gate;
  const Logic site_good = good_of(values_[site]);
  const bool excited =
      is_error(values_[site]) ||
      (is_binary(site_good) && site_good != stuck_);
  if (!excited) {
    if (is_binary(site_good)) return false;  // conflicting; backtrack
    net = site;
    value = negate(stuck_);
    return true;
  }

  // Storage D-pin faults are detected at excitation; nothing to propagate.
  if (is_storage(cn_.type(f.gate)) && f.pin == kStoragePinD) return false;

  if (!x_path_exists()) return false;

  // Phase 2: propagate -- pick the D-frontier gate closest to an
  // observation point (lowest SCOAP observability, ties to the lowest id).
  GateId best = kNoGate;
  for (GateId g : frontier_) {
    if (best == kNoGate || scoap_.co[g] < scoap_.co[best] ||
        (scoap_.co[g] == scoap_.co[best] && g < best)) {
      best = g;
    }
  }
  if (best == kNoGate) return false;

  const auto fin = cn_.fanin(best);
  const GateType t = cn_.type(best);
  Logic c;
  if (controlling_value(t, c)) {
    for (std::size_t p = 0; p < fin.size(); ++p) {
      if (pin_val(best, p) == DVal::X) {
        net = fin[p];
        value = negate(c);
        return true;
      }
    }
    return false;
  }
  if (t == GateType::Mux) {
    const DVal sel = pin_val(best, kMuxPinSel);
    const DVal a = pin_val(best, kMuxPinA);
    const DVal b = pin_val(best, kMuxPinB);
    if (is_error(a) && sel == DVal::X) {
      net = fin[kMuxPinSel];
      value = Logic::Zero;
      return true;
    }
    if (is_error(b) && sel == DVal::X) {
      net = fin[kMuxPinSel];
      value = Logic::One;
      return true;
    }
    if (is_error(sel)) {
      // Data inputs must differ.
      if (a == DVal::X) {
        net = fin[kMuxPinA];
        value = is_assigned(b) ? negate(good_of(b)) : Logic::One;
        return true;
      }
      if (b == DVal::X) {
        net = fin[kMuxPinB];
        value = is_assigned(a) ? negate(good_of(a)) : Logic::Zero;
        return true;
      }
      return false;
    }
    // Error on a data pin but select already known: value flows already or
    // is blocked; nothing useful to assign here.
    for (std::size_t p = 0; p < fin.size(); ++p) {
      if (pin_val(best, p) == DVal::X) {
        net = fin[p];
        value = Logic::Zero;
        return true;
      }
    }
    return false;
  }
  // XOR family (and buffers, which never linger on the frontier): bind any
  // X input; any binary value propagates through parity gates.
  for (std::size_t p = 0; p < fin.size(); ++p) {
    if (pin_val(best, p) == DVal::X) {
      net = fin[p];
      value = Logic::Zero;
      return true;
    }
  }
  return false;
}

bool Podem::backtrace(GateId net, Logic value, std::size_t& source_index,
                      bool& set_to_one) const {
  int guard = static_cast<int>(cn_.size()) + 8;
  while (guard-- > 0) {
    if (source_index_of_[net] >= 0) {
      if (assignment_[static_cast<std::size_t>(source_index_of_[net])] !=
          Logic::X) {
        return false;  // source already bound: objective unreachable here
      }
      source_index = static_cast<std::size_t>(source_index_of_[net]);
      set_to_one = value == Logic::One;
      return true;
    }
    const GateType t = cn_.type(net);
    const auto fin = cn_.fanin(net);
    if (fin.empty()) return false;  // constants cannot be justified

    Logic target = inverts(t) ? negate(value) : value;
    Logic c;
    if (controlling_value(t, c)) {
      // Controlling target: one (easiest) input suffices; non-controlling:
      // all inputs needed, descend the hardest to fail fast.
      const bool want_controlling = target == c;
      GateId pick = kNoGate;
      int best_cost = 0;
      for (GateId fi : fin) {
        if (good_of(values_[fi]) != Logic::X) continue;
        const int cost = target == Logic::One ? scoap_.cc1[fi] : scoap_.cc0[fi];
        if (pick == kNoGate || (want_controlling ? cost < best_cost
                                                 : cost > best_cost)) {
          pick = fi;
          best_cost = cost;
        }
      }
      if (pick == kNoGate) return false;
      net = pick;
      value = target;
      continue;
    }
    if (t == GateType::Buf || t == GateType::Not || t == GateType::Output) {
      net = fin[0];
      value = target;
      continue;
    }
    if (t == GateType::Xor || t == GateType::Xnor) {
      // Choose an X input; required value is target xor parity of known
      // inputs (other X inputs optimistically treated as 0).
      GateId pick = kNoGate;
      bool parity = target == Logic::One;
      for (GateId fi : fin) {
        const Logic g = good_of(values_[fi]);
        if (g == Logic::One) parity = !parity;
        if (g == Logic::X && pick == kNoGate) pick = fi;
      }
      if (pick == kNoGate) return false;
      net = pick;
      value = parity ? Logic::One : Logic::Zero;
      continue;
    }
    if (t == GateType::Mux) {
      const DVal sel = values_[fin[kMuxPinSel]];
      if (good_of(sel) == Logic::Zero) {
        net = fin[kMuxPinA];
      } else if (good_of(sel) == Logic::One) {
        net = fin[kMuxPinB];
      } else {
        // Bind the select first, toward the cheaper data side.
        net = fin[kMuxPinSel];
        const int costa = target == Logic::One ? scoap_.cc1[fin[kMuxPinA]]
                                               : scoap_.cc0[fin[kMuxPinA]];
        const int costb = target == Logic::One ? scoap_.cc1[fin[kMuxPinB]]
                                               : scoap_.cc0[fin[kMuxPinB]];
        value = costa <= costb ? Logic::Zero : Logic::One;
        continue;
      }
      value = target;
      continue;
    }
    return false;
  }
  return false;
}

namespace {

// One bulk registry flush per generate() call; the search loop itself only
// touches the outcome's plain counters.
void flush_podem_obs(const AtpgOutcome& out, std::uint64_t events) {
  if (!obs::enabled()) return;
  obs::Registry& reg = obs::Registry::global();
  reg.counter("podem.calls").add(1);
  reg.counter("podem.decisions").add(static_cast<std::uint64_t>(out.decisions));
  reg.counter("podem.backtracks")
      .add(static_cast<std::uint64_t>(out.backtracks));
  reg.counter("podem.implications")
      .add(static_cast<std::uint64_t>(out.implications));
  reg.counter("podem.implication_events").add(events);
  switch (out.status) {
    case AtpgStatus::TestFound: reg.counter("podem.tests_found").add(1); break;
    case AtpgStatus::Redundant: reg.counter("podem.redundant").add(1); break;
    case AtpgStatus::Aborted: reg.counter("podem.aborted").add(1); break;
  }
}

}  // namespace

AtpgOutcome Podem::generate(const Fault& fault) {
  events_ = 0;
  AtpgOutcome out = search(fault);
  release();
  flush_podem_obs(out, events_);
  return out;
}

AtpgOutcome Podem::search(const Fault& fault) {
  AtpgOutcome out;
  if (obs::enabled()) {
    obs::Registry::global()
        .gauge("podem.backtrack_limit")
        .set(backtrack_limit_);
  }
  inject(fault);

  const bool guarded = budget_ != nullptr && budget_->limited();
  std::uint64_t charged = 0;
  for (;;) {
    // One implication step per loop: the values now reflect the latest
    // decision or backtrack.
    ++out.implications;
    // Progress on the same 32-step stride as the budget poll below: one
    // relaxed load when the sink is off. Coverage is unknown inside a
    // single fault's search, so only the decision counters stream.
    if ((out.implications & 31) == 0 &&
        obs::ProgressSink::global().active()) {
      obs::Progress prog;
      prog.phase = "podem";
      prog.decisions =
          static_cast<std::uint64_t>(out.decisions + out.backtracks);
      if (budget_ != nullptr) {
        prog.budget_remaining_ms = budget_->remaining_ms();
      }
      obs::ProgressSink::global().maybe_emit(prog);
    }
    // Budget poll every 32 implication steps. A step is incremental, so it
    // costs only the events it triggers, but a step next to a high-fanout
    // source can still touch much of the netlist: the stride keeps the poll
    // (a clock read) out of the per-step cost while bounding overshoot to
    // 32 steps past the deadline.
    if (guarded && (out.implications & 31) == 0) {
      const auto total =
          static_cast<std::uint64_t>(out.decisions + out.backtracks);
      budget_->charge_decisions(total - charged);
      charged = total;
      const guard::RunStatus st = budget_->poll();
      if (st != guard::RunStatus::Completed) {
        out.status = AtpgStatus::Aborted;
        out.run_status = st;
        return out;
      }
    }
    if (fault_detected(fault)) {
      out.status = AtpgStatus::TestFound;
      out.pattern = assignment_;
      return out;
    }
    bool need_backtrack = excitation_impossible(fault);
    GateId net = kNoGate;
    Logic value = Logic::X;
    if (!need_backtrack && !objective(fault, net, value)) {
      need_backtrack = true;
    }
    if (!need_backtrack) {
      std::size_t si = 0;
      bool one = false;
      if (backtrace(net, value, si, one)) {
        stack_.push_back({si, false, trail_.size()});
        ++out.decisions;
        assign_source(si, one ? Logic::One : Logic::Zero);
        continue;
      }
      need_backtrack = true;
    }
    // Backtrack: flip the most recent untried decision. Undoing the trail
    // to a decision's mark restores the values from before it was made.
    for (;;) {
      if (stack_.empty()) {
        out.status = AtpgStatus::Redundant;
        return out;
      }
      Decision& d = stack_.back();
      undo_to(d.mark);
      if (!d.tried_both) {
        d.tried_both = true;
        const Logic flipped = assignment_[d.source_index] == Logic::One
                                  ? Logic::Zero
                                  : Logic::One;
        if (++out.backtracks > backtrack_limit_) {
          out.status = AtpgStatus::Aborted;
          return out;
        }
        assign_source(d.source_index, flipped);
        break;
      }
      assignment_[d.source_index] = Logic::X;
      stack_.pop_back();
    }
  }
}

}  // namespace dft
