#include "netlist/levelize.hpp"

#include <stdexcept>

namespace syndcim::netlist {

std::string comb_loop_message(std::string_view who,
                              std::size_t unschedulable) {
  return std::string(who) + ": combinational loop detected (" +
         std::to_string(unschedulable) + " gates unschedulable)";
}

std::vector<std::vector<std::uint32_t>> levelize(
    const FlatNetlist& nl, const std::vector<LevelizeGate>& gates,
    std::string_view who) {
  const std::size_t ngates = gates.size();
  // Combinational loads of each net as a CSR, in (gate, pin) order.
  std::vector<std::uint32_t> load_begin(nl.net_count() + 1, 0);
  for (const LevelizeGate& g : gates) {
    if (!g.combinational) continue;
    for (const std::uint32_t net : g.in_nets) {
      if (net != kNoConn) ++load_begin[net + 1];
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
      if (net != kNoConn) loads[fill[net]++] = g;
    }
  }

  std::vector<std::uint32_t> order, level_begin;
  const auto each = [](const std::vector<std::uint32_t>& nets, auto&& f) {
    for (const std::uint32_t net : nets) f(net);
  };
  const std::size_t unscheduled = levelize_csr(
      nl, ngates, [&](std::uint32_t g) { return gates[g].combinational; },
      [&](std::uint32_t g, auto&& f) { each(gates[g].in_nets, f); },
      [&](std::uint32_t g, auto&& f) { each(gates[g].out_nets, f); },
      load_begin.data(), loads.data(), order, level_begin);
  if (unscheduled != 0) {
    throw std::invalid_argument(comb_loop_message(who, unscheduled));
  }
  std::vector<std::vector<std::uint32_t>> levels(level_begin.size() - 1);
  for (std::size_t l = 0; l + 1 < level_begin.size(); ++l) {
    levels[l].assign(order.begin() + level_begin[l],
                     order.begin() + level_begin[l + 1]);
  }
  return levels;
}

}  // namespace syndcim::netlist
