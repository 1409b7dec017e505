#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "cell/characterize.hpp"
#include "cell/liberty_parser.hpp"
#include "netlist/design.hpp"
#include "netlist/flatten.hpp"
#include "power/activity.hpp"
#include "power/power.hpp"
#include "rtlgen/macro.hpp"
#include "sim/macro_tb.hpp"
#include "tech/tech_node.hpp"

namespace {
using namespace syndcim;

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

rtlgen::MacroConfig tiny_cfg() {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 2;
  cfg.input_bits = {4};
  cfg.weight_bits = {4};
  return cfg;
}

/// Runs `n_macs` random MACs through the testbench and returns activity.
power::ActivityModel run_workload(sim::MacroTestbench& tb,
                                  sim::DcimMacroModel& model, int n_macs,
                                  double input_density, unsigned seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution bit(input_density);
  const auto& cfg = model.cfg();
  std::vector<std::vector<std::int64_t>> w(
      static_cast<std::size_t>(cfg.cols / 4));
  for (auto& g : w) {
    g.resize(static_cast<std::size_t>(cfg.rows));
    for (auto& v : g) v = static_cast<std::int64_t>(rng() % 16) - 8;
  }
  model.load_weights_int(0, 4, w);
  tb.preload_weights(model);
  tb.sim().reset_activity();
  for (int m = 0; m < n_macs; ++m) {
    std::vector<std::int64_t> in(static_cast<std::size_t>(cfg.rows));
    for (auto& v : in) {
      std::int64_t x = 0;
      for (int b = 0; b < 4; ++b) x |= static_cast<std::int64_t>(bit(rng)) << b;
      v = num::sign_extend(static_cast<std::uint64_t>(x), 4);
    }
    (void)tb.run_mac_int(in, 4, 4, 0);
  }
  return power::activity_from_sim(tb.sim());
}

TEST(Power, SimActivityBasics) {
  const auto md = rtlgen::gen_macro(tiny_cfg());
  sim::DcimMacroModel model(tiny_cfg());
  sim::MacroTestbench tb(md, lib());
  const auto act = run_workload(tb, model, 10, 0.5, 1);
  // Clock net toggles exactly twice per cycle.
  const auto clk = tb.netlist().input_net("clk");
  EXPECT_DOUBLE_EQ(act.toggle_rate[clk], 2.0);
  // Some nets toggle, none faster than a few transitions per cycle.
  double max_rate = 0.0, total = 0.0;
  for (const double r : act.toggle_rate) {
    max_rate = std::max(max_rate, r);
    total += r;
  }
  EXPECT_GT(total, 10.0);
  EXPECT_LE(max_rate, 4.0);
}

TEST(Power, SparserInputsLowerPower) {
  const auto md = rtlgen::gen_macro(tiny_cfg());
  sim::DcimMacroModel model(tiny_cfg());
  sim::MacroTestbench tb(md, lib());
  power::PowerOptions opt;
  const auto dense = run_workload(tb, model, 12, 0.5, 2);
  const double p_dense =
      power::analyze_power(tb.netlist(), lib(), dense, opt).total_uw();
  const auto sparse = run_workload(tb, model, 12, 0.125, 2);
  const double p_sparse =
      power::analyze_power(tb.netlist(), lib(), sparse, opt).total_uw();
  EXPECT_LT(p_sparse, p_dense);
}

TEST(Power, VoltageScaling) {
  const auto md = rtlgen::gen_macro(tiny_cfg());
  sim::DcimMacroModel model(tiny_cfg());
  sim::MacroTestbench tb(md, lib());
  const auto act = run_workload(tb, model, 8, 0.5, 3);
  power::PowerOptions opt;
  const double p09 =
      power::analyze_power(tb.netlist(), lib(), act, opt).dynamic_uw();
  opt.vdd = 1.2;
  const double p12 =
      power::analyze_power(tb.netlist(), lib(), act, opt).dynamic_uw();
  // Dynamic power scales ~V^2 (within a few % from table granularity).
  EXPECT_NEAR(p12 / p09, (1.2 * 1.2) / (0.9 * 0.9), 0.05);
  opt.vdd = 2.0;
  EXPECT_THROW(
      (void)power::analyze_power(tb.netlist(), lib(), act, opt),
      std::invalid_argument);
}

TEST(Power, FrequencyScalesDynamicNotLeakage) {
  const auto md = rtlgen::gen_macro(tiny_cfg());
  sim::DcimMacroModel model(tiny_cfg());
  sim::MacroTestbench tb(md, lib());
  const auto act = run_workload(tb, model, 8, 0.5, 4);
  power::PowerOptions opt;
  opt.freq_mhz = 400;
  const auto rep4 = power::analyze_power(tb.netlist(), lib(), act, opt);
  opt.freq_mhz = 800;
  const auto rep8 = power::analyze_power(tb.netlist(), lib(), act, opt);
  EXPECT_NEAR(rep8.dynamic_uw() / rep4.dynamic_uw(), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(rep8.leakage_uw, rep4.leakage_uw);
  // Energy per cycle is frequency independent.
  EXPECT_NEAR(rep8.energy_per_cycle_fj(800), rep4.energy_per_cycle_fj(400),
              1e-9);
}

TEST(Power, GroupBreakdownSumsToTotal) {
  const auto md = rtlgen::gen_macro(tiny_cfg());
  sim::DcimMacroModel model(tiny_cfg());
  sim::MacroTestbench tb(md, lib());
  const auto act = run_workload(tb, model, 8, 0.5, 5);
  const auto rep = power::analyze_power(tb.netlist(), lib(), act, {});
  double sum = 0.0;
  for (const auto& g : rep.by_group) sum += g.dynamic_uw + g.leakage_uw;
  EXPECT_NEAR(sum, rep.total_uw(), rep.total_uw() * 1e-6);
  EXPECT_GT(rep.group_uw("col0"), 0.0);
  EXPECT_GT(rep.group_uw("wldrv"), 0.0);
}

TEST(Power, ProbabilisticTracksSimWithinFactor) {
  const auto md = rtlgen::gen_macro(tiny_cfg());
  sim::DcimMacroModel model(tiny_cfg());
  sim::MacroTestbench tb(md, lib());
  const auto measured = run_workload(tb, model, 16, 0.5, 6);
  power::ActivitySpec spec;
  spec.input_p1 = 0.3;  // controls/din mix
  const auto predicted =
      power::propagate_activity_grouped(tb.netlist(), lib(), spec);
  const double p_meas =
      power::analyze_power(tb.netlist(), lib(), measured, {}).dynamic_uw();
  const double p_pred =
      power::analyze_power(tb.netlist(), lib(), predicted, {}).dynamic_uw();
  EXPECT_GT(p_pred, p_meas / 4.0);
  EXPECT_LT(p_pred, p_meas * 4.0);
}

TEST(Power, ProbabilisticActivityProperties) {
  const auto md = rtlgen::gen_macro(tiny_cfg());
  const auto flat = netlist::flatten(md.design, md.top);
  const auto act = power::propagate_activity_grouped(flat, lib(), {});
  for (std::uint32_t n = 0; n < flat.net_count(); ++n) {
    EXPECT_GE(act.p_one[n], 0.0);
    EXPECT_LE(act.p_one[n], 1.0);
    EXPECT_GE(act.toggle_rate[n], 0.0);
    EXPECT_LE(act.toggle_rate[n], 2.0);
  }
}

TEST(Power, AreaRollup) {
  const auto cfg = tiny_cfg();
  const auto md = rtlgen::gen_macro(cfg);
  const auto flat = netlist::flatten(md.design, md.top);
  const auto rep = power::analyze_area(flat, lib());
  EXPECT_NEAR(rep.total_um2, rep.bitcell_um2 + rep.logic_um2, 1e-6);
  // 16*8*2 6T bitcells.
  EXPECT_NEAR(rep.bitcell_um2, 256 * lib().get("SRAM6T").area_um2, 1e-6);
  double sum = 0.0;
  for (const auto& g : rep.by_group) sum += g.area_um2;
  EXPECT_NEAR(sum, rep.total_um2, 1e-6);
  EXPECT_GT(rep.group_um2("col0"), 0.0);
}

TEST(ActivityBugfix, ReorderedLibertyPinOrderResolvedByRole) {
  // A liberty library whose DFF lists CK *before* D: pin order must not
  // matter — D/Q are resolved by role, not by position.
  std::ostringstream lb;
  lb << "library (reordered) {\n"
     << "  cell (RDFF) {\n"
     << "    syndcim_kind : " << static_cast<int>(cell::Kind::kDff) << ";\n"
     << "    pin (CK) { direction : input; clock : true; capacitance : 0.5; }\n"
     << "    pin (D) { direction : input; capacitance : 0.5; }\n"
     << "    pin (Q) { direction : output; }\n"
     << "  }\n"
     << "  cell (RINV) {\n"
     << "    syndcim_kind : " << static_cast<int>(cell::Kind::kInv) << ";\n"
     << "    pin (A) { direction : input; capacitance : 0.5; }\n"
     << "    pin (Y) { direction : output; }\n"
     << "  }\n"
     << "}\n";
  std::istringstream is(lb.str());
  const cell::Library rlib =
      cell::parse_liberty(is, tech::make_default_40nm());

  netlist::Design d;
  netlist::Module m("top");
  const auto clk = m.add_port("clk", netlist::PortDir::kIn);
  const auto a = m.add_port("a", netlist::PortDir::kIn);
  const auto y = m.add_port("y", netlist::PortDir::kOut);
  const auto dn = m.add_net("dn");
  const auto q = m.add_net("q");
  m.add_cell("i0", "RINV", {{"A", a}, {"Y", dn}});
  m.add_cell("f0", "RDFF", {{"CK", clk}, {"D", dn}, {"Q", q}});
  m.add_cell("i1", "RINV", {{"A", q}, {"Y", y}});
  d.add_module(std::move(m));
  const auto flat = netlist::flatten(d, "top");

  power::ActivitySpec spec;
  spec.input_p1 = 0.9;
  const auto act = power::propagate_activity_grouped(flat, rlib, spec);
  std::uint32_t qn = UINT32_MAX;
  for (std::uint32_t n = 0; n < flat.net_count(); ++n) {
    if (flat.net_name(n) == "q") qn = n;
  }
  ASSERT_NE(qn, UINT32_MAX);
  // Q follows D (the inverted input, P1 = 0.1) — not whatever net happens
  // to be listed first (the clock, P1 = 0.9).
  EXPECT_DOUBLE_EQ(act.p_one[qn], 1.0 - spec.input_p1);
  EXPECT_DOUBLE_EQ(act.toggle_rate[qn], 2.0 * 0.1 * 0.9 * 0.7);
  // Clock-net forcing still keys off the is_clock role.
  EXPECT_DOUBLE_EQ(act.toggle_rate[flat.input_net("clk")], 2.0);
}

TEST(KernelGolden, ActivityEnginesBitIdenticalAcrossMacroVariants) {
  for (int variant = 0; variant < 3; ++variant) {
    SCOPED_TRACE(variant);
    rtlgen::MacroConfig cfg = tiny_cfg();
    cfg.input_bits = {2, 4};
    cfg.weight_bits = {2, 4};
    if (variant == 1) {
      cfg.mux = rtlgen::MuxStyle::kOai22Fused;
    } else if (variant == 2) {
      cfg.tree.style = rtlgen::AdderTreeStyle::kCompressor;
    }
    const auto md = rtlgen::gen_macro(cfg);
    const auto flat = netlist::flatten(md.design, md.top);

    power::ActivitySpec spec;
    spec.input_p1 = 0.37;
    spec.input_toggle = 0.21;
    spec.weight_p1 = 0.62;
    const auto soa = power::propagate_activity_grouped(
        flat, lib(), spec, nullptr, power::ActivityEngine::kSoa);
    const auto scalar = power::propagate_activity_grouped(
        flat, lib(), spec, nullptr, power::ActivityEngine::kScalar);
    ASSERT_EQ(soa.p_one.size(), scalar.p_one.size());
    for (std::size_t n = 0; n < soa.p_one.size(); ++n) {
      EXPECT_EQ(soa.p_one[n], scalar.p_one[n]) << "net " << n;
      EXPECT_EQ(soa.toggle_rate[n], scalar.toggle_rate[n]) << "net " << n;
    }

    // The priced report is consequently bit-identical too.
    const auto rep_soa = power::analyze_power(flat, lib(), soa, {});
    const auto rep_scalar = power::analyze_power(flat, lib(), scalar, {});
    EXPECT_EQ(rep_soa.switching_uw, rep_scalar.switching_uw);
    EXPECT_EQ(rep_soa.internal_uw, rep_scalar.internal_uw);
    EXPECT_EQ(rep_soa.clock_uw, rep_scalar.clock_uw);
    EXPECT_EQ(rep_soa.leakage_uw, rep_scalar.leakage_uw);
    ASSERT_EQ(rep_soa.by_group.size(), rep_scalar.by_group.size());
    for (std::size_t g = 0; g < rep_soa.by_group.size(); ++g) {
      EXPECT_EQ(rep_soa.by_group[g].group, rep_scalar.by_group[g].group);
      EXPECT_EQ(rep_soa.by_group[g].dynamic_uw,
                rep_scalar.by_group[g].dynamic_uw);
      EXPECT_EQ(rep_soa.by_group[g].leakage_uw,
                rep_scalar.by_group[g].leakage_uw);
    }
  }
}

TEST(Power, PassGateMuxCostsMorePowerThanTGate) {
  auto macro_power = [&](rtlgen::MuxStyle mux) {
    rtlgen::MacroConfig cfg = tiny_cfg();
    cfg.mux = mux;
    const auto md = rtlgen::gen_macro(cfg);
    sim::DcimMacroModel model(cfg);
    sim::MacroTestbench tb(md, lib());
    const auto act = run_workload(tb, model, 12, 0.5, 7);
    return power::analyze_power(tb.netlist(), lib(), act, {}).total_uw();
  };
  EXPECT_GT(macro_power(rtlgen::MuxStyle::kPassGate1T),
            macro_power(rtlgen::MuxStyle::kTGateNor));
}

}  // namespace
