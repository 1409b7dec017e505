// Ablation A1 (paper Sec. III-B): adder-tree topologies. Conventional
// signed-RCA tree vs pure 4-2 compressor CSA vs the mixed compressor/FA
// CSA at several mixes, with and without carry reordering.
//
// Expected shape: the CSA family beats the RCA tree on delay, area and
// energy; more FAs shorten the critical path at an area/energy cost;
// carry reordering buys delay for free.
#include <iostream>
#include <random>

#include "cell/characterize.hpp"
#include "core/report.hpp"
#include "netlist/design.hpp"
#include "netlist/flatten.hpp"
#include "power/power.hpp"
#include "rtlgen/adder_tree.hpp"
#include "sim/gate_sim.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

struct Variant {
  const char* name;
  rtlgen::AdderTreeStyle style;
  double fa_fraction;
  bool reorder;
};

struct Result {
  double delay_ps;
  double area_um2;
  double energy_fj;  // per evaluation at 50% input density
  std::size_t cells;
};

Result measure(const cell::Library& lib, const Variant& v, int rows) {
  rtlgen::AdderTreeConfig cfg;
  cfg.rows = rows;
  cfg.style = v.style;
  cfg.fa_fraction = v.fa_fraction;
  cfg.carry_reorder = v.reorder;
  netlist::Design d;
  d.add_module(rtlgen::gen_adder_tree(cfg, "tree"));
  const auto flat = netlist::flatten(d, "tree");

  Result r{};
  r.cells = flat.gates().size();
  sta::StaEngine sta(flat, lib);
  r.delay_ps = sta.analyze({}).min_period_ps;
  r.area_um2 = power::analyze_area(flat, lib).total_um2;

  // Measured switching energy over random vectors.
  sim::GateSim gs(flat, lib);
  std::mt19937 rng(3);
  for (int t = 0; t < 200; ++t) {
    for (int i = 0; i < rows; ++i) {
      gs.set_input(netlist::bus_name("in", i), static_cast<int>(rng() & 1));
    }
    gs.step();
  }
  const auto act = power::activity_from_sim(gs);
  power::PowerOptions popt;
  popt.freq_mhz = 1000.0;  // uW at 1 GHz == fJ per evaluation
  r.energy_fj = power::analyze_power(flat, lib, act, popt).dynamic_uw();
  return r;
}

}  // namespace

int main() {
  const auto lib = cell::characterize_default_library(tech::make_default_40nm());
  const Variant variants[] = {
      {"signed RCA tree", rtlgen::AdderTreeStyle::kRcaTree, 0.0, false},
      {"compressor CSA (no reorder)", rtlgen::AdderTreeStyle::kCompressor,
       0.0, false},
      {"compressor CSA + reorder", rtlgen::AdderTreeStyle::kCompressor, 0.0,
       true},
      {"mixed CSA fa=0.25", rtlgen::AdderTreeStyle::kMixed, 0.25, true},
      {"mixed CSA fa=0.50", rtlgen::AdderTreeStyle::kMixed, 0.50, true},
      {"mixed CSA fa=0.75", rtlgen::AdderTreeStyle::kMixed, 0.75, true},
      {"mixed CSA fa=1.00 (FA only)", rtlgen::AdderTreeStyle::kMixed, 1.0,
       true},
  };

  for (const int rows : {32, 64, 128}) {
    std::cout << "=== Ablation A1: adder trees, " << rows
              << " partial products ===\n";
    core::TextTable t(
        {"topology", "delay_ps", "cells", "area_um2", "energy_fJ/eval"});
    double rca_delay = 0;
    for (const Variant& v : variants) {
      const Result r = measure(lib, v, rows);
      if (v.style == rtlgen::AdderTreeStyle::kRcaTree) rca_delay = r.delay_ps;
      t.add_row({v.name, core::TextTable::num(r.delay_ps, 0),
                 std::to_string(r.cells), core::TextTable::num(r.area_um2, 0),
                 core::TextTable::num(r.energy_fj, 0)});
    }
    t.print(std::cout);
    const Result csa = measure(
        lib, {"", rtlgen::AdderTreeStyle::kCompressor, 0.0, true}, rows);
    std::cout << "compressor CSA vs signed RCA tree: delay x"
              << core::TextTable::num(csa.delay_ps / rca_delay, 2) << "\n\n";
  }
  return 0;
}
