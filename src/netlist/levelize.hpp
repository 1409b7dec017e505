#pragma once
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/flatten.hpp"

namespace syndcim::netlist {

/// One gate as seen by the levelizer: its timing class and its pin nets.
/// `kNoConn` entries are allowed in both lists (dangling outputs, optional
/// pins) and are skipped.
struct LevelizeGate {
  bool combinational = false;
  std::vector<std::uint32_t> in_nets;
  std::vector<std::uint32_t> out_nets;
};

inline constexpr std::uint32_t kNoConn = UINT32_MAX;

/// Topologically levelizes the combinational gates of a flat netlist:
/// returns rank buckets such that every gate's fan-in is driven only by
/// primary inputs, constants, sequential outputs, or gates in strictly
/// earlier buckets. This is the single levelization scheme of the tree:
/// ResolvedNetlist runs it once per netlist for STA, GateSim and lint, and
/// the scalar simulator control arm calls this entry point. Its one
/// combinational-loop check: if any combinational gate cannot be
/// scheduled, throws std::invalid_argument with comb_loop_message(who, n).
[[nodiscard]] std::vector<std::vector<std::uint32_t>> levelize(
    const FlatNetlist& nl, const std::vector<LevelizeGate>& gates,
    std::string_view who);

/// "<who>: combinational loop detected (<n> gates unschedulable)".
[[nodiscard]] std::string comb_loop_message(std::string_view who,
                                            std::size_t unschedulable);

/// The levelization core behind levelize() and ResolvedNetlist, over
/// accessors instead of per-gate vectors:
///  - `comb(g)`: whether gate g is combinational;
///  - `for_in(g, f)` / `for_out(g, f)`: call f(net) for each input/output
///    net of combinational gate g (kNoConn entries allowed);
///  - `loads_begin/loads`: a net -> combinational-load CSR listing, per
///    net, every combinational gate once per input pin on it, in (gate,
///    pin) order (entries of nets driven by no combinational gate are
///    never read).
/// Appends the scheduled gates to `order` level by level, with
/// `level_begin` as the per-level offsets (size levels + 1), and returns
/// the number of combinational gates left unscheduled by loops.
template <class Comb, class ForIn, class ForOut>
std::size_t levelize_csr(const FlatNetlist& nl, std::size_t ngates,
                         Comb comb, ForIn for_in, ForOut for_out,
                         const std::uint32_t* loads_begin,
                         const std::uint32_t* loads,
                         std::vector<std::uint32_t>& order,
                         std::vector<std::uint32_t>& level_begin) {
  // A net is initially "resolved" if nothing combinational drives it: a
  // primary input, a constant, a dangling net, or a register/storage Q.
  std::vector<std::uint8_t> resolved(nl.net_count(), 1);
  for (std::uint32_t g = 0; g < ngates; ++g) {
    if (!comb(g)) continue;
    for_out(g, [&](std::uint32_t net) {
      if (net != kNoConn && nl.net_const(net) == NetConst::kNone) {
        resolved[net] = 0;
      }
    });
  }
  std::vector<std::uint32_t> pending(ngates, 0);
  std::size_t comb_total = 0;
  order.clear();
  for (std::uint32_t g = 0; g < ngates; ++g) {
    if (!comb(g)) continue;
    ++comb_total;
    for_in(g, [&](std::uint32_t net) {
      if (net != kNoConn && !resolved[net]) ++pending[g];
    });
    if (pending[g] == 0) order.push_back(g);
  }
  level_begin.assign(1, 0);
  while (order.size() > level_begin.back()) {
    const std::size_t lb = level_begin.back();
    const std::size_t le = order.size();
    level_begin.push_back(static_cast<std::uint32_t>(le));
    for (std::size_t i = lb; i < le; ++i) {
      for_out(order[i], [&](std::uint32_t net) {
        if (net == kNoConn || resolved[net]) return;
        resolved[net] = 1;
        for (std::uint32_t k = loads_begin[net]; k < loads_begin[net + 1];
             ++k) {
          if (--pending[loads[k]] == 0) order.push_back(loads[k]);
        }
      });
    }
  }
  return comb_total - order.size();
}

}  // namespace syndcim::netlist
