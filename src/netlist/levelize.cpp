#include "netlist/levelize.hpp"

#include <stdexcept>
#include <string>

namespace syndcim::netlist {

std::vector<std::vector<std::uint32_t>> levelize(
    const FlatNetlist& nl, const std::vector<LevelizeGate>& gates,
    std::string_view who) {
  const std::size_t ngates = gates.size();

  // A net is initially "resolved" if nothing combinational drives it: a
  // primary input, a constant, a dangling net, or a register/storage Q.
  std::vector<std::uint8_t> resolved(nl.net_count(), 1);
  for (std::size_t g = 0; g < ngates; ++g) {
    if (!gates[g].combinational) continue;
    for (const std::uint32_t net : gates[g].out_nets) {
      if (net != kNoConn && nl.net_const(net) == NetConst::kNone) {
        resolved[net] = 0;
      }
    }
  }

  // Combinational loads of each unresolved net as a CSR, in (gate, pin)
  // order: count, prefix-sum, fill.
  std::vector<std::uint32_t> pending(ngates, 0);
  std::vector<std::uint32_t> load_begin(nl.net_count() + 1, 0);
  std::size_t comb_total = 0;
  for (std::uint32_t g = 0; g < ngates; ++g) {
    if (!gates[g].combinational) continue;
    ++comb_total;
    for (const std::uint32_t net : gates[g].in_nets) {
      if (net == kNoConn || resolved[net]) continue;
      ++pending[g];
      ++load_begin[net + 1];
    }
  }
  for (std::size_t n = 0; n < nl.net_count(); ++n) {
    load_begin[n + 1] += load_begin[n];
  }
  std::vector<std::uint32_t> loads(load_begin.back());
  std::vector<std::uint32_t> fill(load_begin.begin(), load_begin.end() - 1);
  for (std::uint32_t g = 0; g < ngates; ++g) {
    if (!gates[g].combinational) continue;
    for (const std::uint32_t net : gates[g].in_nets) {
      if (net == kNoConn || resolved[net]) continue;
      loads[fill[net]++] = g;
    }
  }

  std::vector<std::vector<std::uint32_t>> levels;
  std::vector<std::uint32_t> frontier;
  for (std::uint32_t g = 0; g < ngates; ++g) {
    if (gates[g].combinational && pending[g] == 0) frontier.push_back(g);
  }
  std::size_t scheduled = 0;
  while (!frontier.empty()) {
    levels.push_back(frontier);
    scheduled += frontier.size();
    std::vector<std::uint32_t> next;
    for (const std::uint32_t g : levels.back()) {
      for (const std::uint32_t net : gates[g].out_nets) {
        if (net == kNoConn || resolved[net]) continue;
        resolved[net] = 1;
        for (std::uint32_t i = load_begin[net]; i < load_begin[net + 1]; ++i) {
          if (--pending[loads[i]] == 0) next.push_back(loads[i]);
        }
      }
    }
    frontier = std::move(next);
  }
  if (scheduled != comb_total) {
    throw std::invalid_argument(
        std::string(who) + ": combinational loop detected (" +
        std::to_string(comb_total - scheduled) + " gates unschedulable)");
  }
  return levels;
}

}  // namespace syndcim::netlist
