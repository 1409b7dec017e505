#include "power/activity_kernel.hpp"

#include <stdexcept>
#include <unordered_map>

namespace syndcim::power {

using netlist::FlatNetlist;

namespace {
constexpr std::uint32_t kNoNet = UINT32_MAX;

/// True when the cell's pins can be mapped one-to-one onto the canonical
/// name lists of its kind (same counts, every canonical name present with
/// the right direction).
bool canonical_names_match(const cell::Cell& c,
                           const std::vector<std::string>& in_names,
                           const std::vector<std::string>& out_names,
                           std::size_t n_in_pins, std::size_t n_out_pins) {
  if (in_names.size() != n_in_pins || out_names.size() != n_out_pins) {
    return false;
  }
  for (const std::string& n : in_names) {
    const int pi = c.pin_index(n);
    if (pi < 0 || !c.pins[static_cast<std::size_t>(pi)].is_input) return false;
  }
  for (const std::string& n : out_names) {
    const int pi = c.pin_index(n);
    if (pi < 0 || c.pins[static_cast<std::size_t>(pi)].is_input) return false;
  }
  return true;
}

/// Per-master pin roles: the pin positions of the canonical in_nets and
/// out_nets orders, D/Q by role and the clock pins. All string matching
/// of the activity engines happens here, once per master.
struct MasterRoles {
  const cell::Cell* cell;
  std::vector<std::uint16_t> in_pos;   // pin positions of in_nets order
  std::vector<std::uint16_t> out_pos;  // pin positions of out_nets order
  std::vector<std::uint16_t> clock_pos;
  int d_pin = -1;
  int q_pin = -1;
};

MasterRoles master_roles(const cell::Cell& c) {
  MasterRoles mi;
  mi.cell = &c;
  std::size_t n_in_pins = 0;
  for (const auto& p : c.pins) n_in_pins += p.is_input ? 1 : 0;
  const std::size_t n_out_pins = c.pins.size() - n_in_pins;
  const auto in_names = cell::input_pin_names(c.kind);
  const auto out_names = cell::output_pin_names(c.kind);
  if (canonical_names_match(c, in_names, out_names, n_in_pins,
                            n_out_pins)) {
    for (const std::string& pn : in_names) {
      mi.in_pos.push_back(static_cast<std::uint16_t>(c.pin_index(pn)));
    }
    for (const std::string& pn : out_names) {
      mi.out_pos.push_back(static_cast<std::uint16_t>(c.pin_index(pn)));
    }
  } else {
    for (std::size_t i = 0; i < c.pins.size(); ++i) {
      (c.pins[i].is_input ? mi.in_pos : mi.out_pos)
          .push_back(static_cast<std::uint16_t>(i));
    }
  }

  // D/Q by role: name first, structural fallback second.
  const int dp = c.pin_index("D");
  if (dp >= 0 && c.pins[static_cast<std::size_t>(dp)].is_input) {
    mi.d_pin = dp;
  } else {
    for (std::size_t i = 0; i < c.pins.size(); ++i) {
      if (c.pins[i].is_input && !c.pins[i].is_clock) {
        mi.d_pin = static_cast<int>(i);
        break;
      }
    }
  }
  const int qp = c.pin_index("Q");
  if (qp >= 0 && !c.pins[static_cast<std::size_t>(qp)].is_input) {
    mi.q_pin = qp;
  } else {
    for (std::size_t i = 0; i < c.pins.size(); ++i) {
      if (!c.pins[i].is_input) {
        mi.q_pin = static_cast<int>(i);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < c.pins.size(); ++i) {
    if (c.pins[i].is_input && c.pins[i].is_clock) {
      mi.clock_pos.push_back(static_cast<std::uint16_t>(i));
    }
  }
  return mi;
}
}  // namespace

ResolvedGates resolve_gates(const netlist::ResolvedNetlist& rn) {
  const FlatNetlist& nl = rn.netlist();
  rn.require_known_cells();
  std::vector<MasterRoles> roles;
  for (std::uint32_t m = 0; m < nl.master_names().size(); ++m) {
    roles.push_back(master_roles(*rn.master_cell(m)));
  }
  ResolvedGates out;
  out.gates.reserve(nl.gates().size());
  // Sized exactly up front: the spans must never move.
  std::size_t pool_slots = 0;
  for (const auto& fg : nl.gates()) {
    pool_slots +=
        roles[fg.master].in_pos.size() + roles[fg.master].out_pos.size();
  }
  out.net_pool.reserve(pool_slots);
  for (std::uint32_t g = 0; g < nl.gates().size(); ++g) {
    const MasterRoles& mi = roles[nl.gates()[g].master];
    const std::uint32_t* by_pin = rn.pin_nets(g).data();
    ResolvedGate rg;
    rg.cell = mi.cell;
    const std::size_t in_off = out.net_pool.size();
    for (const std::uint16_t p : mi.in_pos) out.net_pool.push_back(by_pin[p]);
    const std::size_t out_off = out.net_pool.size();
    for (const std::uint16_t p : mi.out_pos) {
      out.net_pool.push_back(by_pin[p]);
    }
    rg.in_nets = {out.net_pool.data() + in_off, mi.in_pos.size()};
    rg.out_nets = {out.net_pool.data() + out_off, mi.out_pos.size()};
    rg.d_net = mi.d_pin >= 0 ? by_pin[mi.d_pin] : kNoNet;
    rg.q_net = mi.q_pin >= 0 ? by_pin[mi.q_pin] : kNoNet;
    for (const std::uint16_t p : mi.clock_pos) {
      if (by_pin[p] != kNoNet) out.clock_nets.push_back(by_pin[p]);
    }
    out.gates.push_back(rg);
  }
  return out;
}

ActivityKernel::ActivityKernel(const ResolvedGates& rg) {
  const std::size_t n = rg.gates.size();
  klass_.assign(n, 0);
  seq_d_.assign(n, kNoNet);
  seq_q_.assign(n, kNoNet);
  in_begin_.reserve(n + 1);
  out_begin_.reserve(n + 1);
  in_begin_.push_back(0);
  out_begin_.push_back(0);

  // Truth masks per master cell: bit v of masks[o] is output o's value for
  // input combo v (bit i of v = canonical input i).
  std::unordered_map<const cell::Cell*, std::vector<std::uint32_t>> memo;
  auto masks_for = [&memo](const cell::Cell& c, std::size_t n_in,
                           std::size_t n_out)
      -> const std::vector<std::uint32_t>& {
    auto it = memo.find(&c);
    if (it != memo.end()) return it->second;
    std::vector<std::uint32_t> m(n_out, 0);
    std::vector<int> in_vals(n_in);
    const std::uint32_t combos = 1u << n_in;
    for (std::uint32_t v = 0; v < combos; ++v) {
      for (std::size_t i = 0; i < n_in; ++i) in_vals[i] = (v >> i) & 1;
      const auto outs = cell::eval_kind(c.kind, in_vals);
      for (std::size_t o = 0; o < n_out && o < outs.size(); ++o) {
        if (outs[o]) m[o] |= 1u << v;
      }
    }
    return memo.emplace(&c, std::move(m)).first->second;
  };

  for (std::size_t g = 0; g < n; ++g) {
    const ResolvedGate& r = rg.gates[g];
    const cell::TimingRole role = r.cell->timing_role();
    if (role == cell::TimingRole::kStorage) {
      if (r.q_net != kNoNet) {
        klass_[g] = 1;
        seq_q_[g] = r.q_net;
      }
    } else if (role == cell::TimingRole::kRegister) {
      if (r.q_net != kNoNet && r.d_net != kNoNet) {
        klass_[g] = 2;
        seq_q_[g] = r.q_net;
        seq_d_[g] = r.d_net;
      }
    } else {
      bool connected = true;
      for (const std::uint32_t net : r.in_nets) {
        connected = connected && net != kNoNet;
      }
      if (connected) {
        if (r.in_nets.size() > 5) {
          throw std::logic_error(
              "ActivityKernel: combinational cell " + r.cell->name +
              " has more than 5 inputs; use the scalar engine");
        }
        klass_[g] = 3;
        for (const std::uint32_t net : r.in_nets) ins_.push_back(net);
        const auto& masks =
            masks_for(*r.cell, r.in_nets.size(), r.out_nets.size());
        for (std::size_t o = 0; o < r.out_nets.size(); ++o) {
          if (r.out_nets[o] == kNoNet) continue;
          outs_.push_back(r.out_nets[o]);
          masks_.push_back(masks[o]);
        }
      }
    }
    in_begin_.push_back(static_cast<std::uint32_t>(ins_.size()));
    out_begin_.push_back(static_cast<std::uint32_t>(outs_.size()));
  }
}

void ActivityKernel::run_members(const std::vector<std::uint32_t>& members,
                                 const ActivitySpec& spec,
                                 ActivityModel& am) const {
  double* p1 = am.p_one.data();
  double* tr = am.toggle_rate.data();
  double probs[32];
  // Partition the visit list by class once; the eight Gauss-Seidel passes
  // then sweep compact per-class lists (in the original visit order)
  // instead of re-testing klass_ on every gate every pass.
  std::vector<std::uint32_t> seq, comb;
  seq.reserve(members.size());
  comb.reserve(members.size());
  for (const std::uint32_t g : members) {
    const std::uint8_t cls = klass_[g];
    if (cls == 1 || cls == 2) {
      seq.push_back(g);
    } else if (cls == 3) {
      comb.push_back(g);
    }
  }
  for (int pass = 0; pass < 8; ++pass) {
    // Sequential outputs first.
    for (const std::uint32_t g : seq) {
      if (klass_[g] == 1) {
        p1[seq_q_[g]] = spec.weight_p1;
        tr[seq_q_[g]] = 0.0;  // weights static during MAC
      } else {
        const double pd = p1[seq_d_[g]];
        p1[seq_q_[g]] = pd;
        tr[seq_q_[g]] = 2.0 * pd * (1.0 - pd) * kToggleDamp;
      }
    }
    // Combinational gates: exact P1 under independence.
    for (const std::uint32_t g : comb) {
      const std::uint32_t ib = in_begin_[g];
      const std::uint32_t n_in = in_begin_[g + 1] - ib;
      // Per-combo probabilities by iterative doubling, in the scalar
      // arm's left-to-right multiplication order.
      probs[0] = 1.0;
      std::uint32_t width = 1;
      for (std::uint32_t i = 0; i < n_in; ++i) {
        const double pi1 = p1[ins_[ib + i]];
        const double pi0 = 1.0 - pi1;
        for (std::uint32_t v = 0; v < width; ++v) {
          probs[v + width] = probs[v] * pi1;
          probs[v] *= pi0;
        }
        width <<= 1;
      }
      for (std::uint32_t o = out_begin_[g]; o < out_begin_[g + 1]; ++o) {
        const std::uint32_t m = masks_[o];
        double acc = 0.0;
        for (std::uint32_t v = 0; v < width; ++v) {
          const double pv = probs[v];
          // The scalar arm skips zero-probability combos before adding;
          // skipping here too keeps the accumulation bit-identical (a
          // -0.0 term is not a no-op against a +0.0 accumulator).
          if (pv == 0.0) continue;
          if ((m >> v) & 1u) acc += pv;
        }
        const std::uint32_t net = outs_[o];
        p1[net] = acc;
        tr[net] = 2.0 * acc * (1.0 - acc) * kToggleDamp;
      }
    }
  }
}

}  // namespace syndcim::power
