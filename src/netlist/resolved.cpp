#include "netlist/resolved.hpp"

#include "netlist/levelize.hpp"
#include "obs/obs.hpp"

namespace syndcim::netlist {

using Defect = ResolveDefect::Kind;

ResolvedNetlist::ResolvedNetlist(const FlatNetlist& nl,
                                 const cell::Library& lib)
    : nl_(nl), lib_(lib), n_pin_names_(nl.pin_names().size()) {
  OBS_SPAN("netlist.resolve");
  // Every string match happens here, once per (master, pin name).
  const std::size_t nmasters = nl.master_names().size();
  master_cell_.resize(nmasters);
  pin_map_.assign(nmasters * n_pin_names_, -1);
  for (std::size_t m = 0; m < nmasters; ++m) {
    const cell::Cell* c = lib.find(nl.master_names()[m]);
    master_cell_[m] = c;
    if (c == nullptr) continue;
    for (std::size_t p = 0; p < n_pin_names_; ++p) {
      pin_map_[m * n_pin_names_ + p] =
          static_cast<std::int16_t>(c->pin_index(nl.pin_names()[p]));
    }
  }

  const auto& gates = nl.gates();
  const std::size_t ngates = gates.size();
  const std::size_t nnets = nl.net_count();
  net_begin_.resize(ngates + 1);
  comb_.assign(ngates, 0);
  net_begin_[0] = 0;
  for (std::uint32_t g = 0; g < ngates; ++g) {
    const cell::Cell* c = master_cell_[gates[g].master];
    net_begin_[g + 1] =
        net_begin_[g] + static_cast<std::uint32_t>(c ? c->pins.size() : 0);
    comb_[g] = c != nullptr &&
               c->timing_role() == cell::TimingRole::kCombinational;
  }
  gate_nets_.assign(net_begin_[ngates], kNoNet);
  driver_.assign(nnets, -1);
  fanout_.assign(nnets, 0);
  load_begin_.assign(nnets + 1, 0);

  for (std::uint32_t g = 0; g < ngates; ++g) {
    const std::uint32_t m = gates[g].master;
    const cell::Cell* c = master_cell_[m];
    if (c == nullptr) continue;
    std::uint32_t* nets = gate_nets_.data() + net_begin_[g];
    const std::int16_t* map = pin_map_.data() + m * n_pin_names_;
    for (const FlatNetlist::PinConn& pc : nl.gate_pins(g)) {
      const int pi = map[pc.pin_name];
      if (pi < 0) {
        defects_.push_back({Defect::kUnknownPin, g, pc.pin_name, kNoNet});
        continue;
      }
      nets[pi] = pc.net;
    }
    for (std::uint32_t pi = 0; pi < c->pins.size(); ++pi) {
      const std::uint32_t net = nets[pi];
      const bool input = c->pins[pi].is_input;
      if (net == kNoNet) {
        if (input) {
          defects_.push_back({Defect::kUnconnectedInput, g, pi, kNoNet});
        }
        continue;
      }
      if (input) {
        ++fanout_[net];
        if (comb_[g]) ++load_begin_[net + 1];
      } else if (driver_[net] >= 0) {
        defects_.push_back({Defect::kMultiDriver, g, pi, net});
      } else {
        if (nl.net_const(net) != NetConst::kNone) {
          defects_.push_back({Defect::kDrivesConstant, g, pi, net});
        }
        driver_[net] = static_cast<std::int32_t>(g);
      }
    }
  }
  const auto& pis = nl.primary_inputs();
  for (std::uint32_t i = 0; i < pis.size(); ++i) {
    const std::int32_t d = driver_[pis[i].net];
    if (d >= 0) {
      defects_.push_back({Defect::kDrivenInput,
                          static_cast<std::uint32_t>(d), i, pis[i].net});
    }
  }

  // Combinational loads per net: count (above), prefix-sum, fill.
  for (std::size_t n = 0; n < nnets; ++n) {
    load_begin_[n + 1] += load_begin_[n];
  }
  loads_.resize(load_begin_[nnets]);
  std::vector<std::uint32_t> fill(load_begin_.begin(), load_begin_.end() - 1);
  const auto for_dir = [&](std::uint32_t g, bool input, auto&& f) {
    const cell::Cell* c = master_cell_[gates[g].master];
    const std::uint32_t* nets = gate_nets_.data() + net_begin_[g];
    for (std::size_t pi = 0; pi < c->pins.size(); ++pi) {
      if (c->pins[pi].is_input == input) f(nets[pi]);
    }
  };
  for (std::uint32_t g = 0; g < ngates; ++g) {
    if (!comb_[g]) continue;
    for_dir(g, true, [&](std::uint32_t net) {
      if (net != kNoNet) loads_[fill[net]++] = g;
    });
  }

  unscheduled_ = levelize_csr(
      nl, ngates, [&](std::uint32_t g) { return comb_[g] != 0; },
      [&](std::uint32_t g, auto&& f) { for_dir(g, true, f); },
      [&](std::uint32_t g, auto&& f) { for_dir(g, false, f); },
      load_begin_.data(), loads_.data(), level_order_, level_begin_);
}

void ResolvedNetlist::require_known_cells() const {
  for (std::size_t m = 0; m < master_cell_.size(); ++m) {
    if (master_cell_[m] == nullptr) (void)lib_.get(nl_.master_names()[m]);
  }
}

}  // namespace syndcim::netlist
