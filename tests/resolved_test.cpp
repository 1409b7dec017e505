// The shared resolve pass (netlist::ResolvedNetlist) against direct
// resolution by pin name: pin-for-pin agreement with Cell::pin_index,
// levels equal to netlist::levelize on LevelizeGate input built from
// Cell::pin_index, per-net drivers and loads, the consumers' error paths
// on broken netlists, and the flat netlist codec.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cell/characterize.hpp"
#include "core/diag.hpp"
#include "lint/lint.hpp"
#include "netlist/flatten.hpp"
#include "netlist/levelize.hpp"
#include "netlist/resolved.hpp"
#include "netlist/serialize.hpp"
#include "netlist/verilog_parser.hpp"
#include "rtlgen/macro.hpp"
#include "sim/gate_sim.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

namespace {
using namespace syndcim;
using netlist::FlatNetlist;
using netlist::ResolvedNetlist;

constexpr std::uint32_t kNoNet = ResolvedNetlist::kNoNet;

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

/// 6T/8T bitcells, pass-gate/transmission-gate/OAI22 muxes, INT and FP.
std::vector<rtlgen::MacroConfig> config_variants() {
  rtlgen::MacroConfig base;
  base.rows = 16;
  base.cols = 8;
  base.mcr = 1;
  base.input_bits = {4};
  base.weight_bits = {4};
  base.fp_formats = {};
  std::vector<rtlgen::MacroConfig> out;
  {
    rtlgen::MacroConfig c = base;
    c.mux = rtlgen::MuxStyle::kPassGate1T;
    out.push_back(c);
  }
  {
    rtlgen::MacroConfig c = base;
    c.bitcell = rtlgen::BitcellKind::k8T;
    c.mux = rtlgen::MuxStyle::kTGateNor;
    c.mcr = 2;
    c.cols = 16;
    out.push_back(c);
  }
  {
    rtlgen::MacroConfig c = base;
    c.mux = rtlgen::MuxStyle::kOai22Fused;
    c.mcr = 2;
    c.tree.style = rtlgen::AdderTreeStyle::kMixed;
    c.tree.fa_fraction = 0.5;
    out.push_back(c);
  }
  {
    rtlgen::MacroConfig c = base;
    c.rows = 32;
    c.input_bits = {4, 8};
    c.weight_bits = {4, 8};
    c.fp_formats = {num::kFp8};
    out.push_back(c);
  }
  return out;
}

FlatNetlist flat_from(const std::string& src, const std::string& top) {
  std::istringstream is(src);
  const netlist::Design d = netlist::parse_verilog(is);
  return netlist::flatten(d, top);
}

/// The message a constructor throws, or "" if it does not throw.
template <class F>
std::string thrown(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

std::size_t lint_count(const FlatNetlist& nl, const std::string& rule) {
  core::DiagEngine diag;
  (void)lint::lint_netlist(nl, lib(), diag);
  return diag.count_rule(rule);
}

TEST(Resolved, PinsAgreeWithCellPinIndexAcrossConfigs) {
  for (const rtlgen::MacroConfig& cfg : config_variants()) {
    const rtlgen::MacroDesign md = rtlgen::gen_macro(cfg);
    const FlatNetlist nl = netlist::flatten(md.design, md.top);
    const ResolvedNetlist rn(nl, lib());
    EXPECT_TRUE(rn.defects().empty());
    EXPECT_EQ(rn.unscheduled(), 0u);
    for (std::uint32_t m = 0; m < nl.master_names().size(); ++m) {
      const cell::Cell& c = lib().get(nl.master_names()[m]);
      ASSERT_EQ(rn.master_cell(m), &c);
      for (std::uint32_t p = 0; p < nl.pin_names().size(); ++p) {
        EXPECT_EQ(rn.pin_of(m, p), c.pin_index(nl.pin_names()[p]));
      }
    }
    for (std::uint32_t g = 0; g < nl.gates().size(); ++g) {
      const cell::Cell& c = *rn.cell(g);
      const auto nets = rn.pin_nets(g);
      ASSERT_EQ(nets.size(), c.pins.size());
      std::vector<std::uint32_t> want(c.pins.size(), kNoNet);
      for (const FlatNetlist::PinConn& pc : nl.gate_pins(g)) {
        want[static_cast<std::size_t>(
            c.pin_index(nl.pin_names()[pc.pin_name]))] = pc.net;
      }
      EXPECT_EQ(std::vector<std::uint32_t>(nets.begin(), nets.end()), want)
          << "gate " << g;
      EXPECT_EQ(rn.combinational(g),
                c.timing_role() == cell::TimingRole::kCombinational);
    }
  }
}

TEST(Resolved, LevelsMatchLevelizeAcrossConfigs) {
  for (const rtlgen::MacroConfig& cfg : config_variants()) {
    const rtlgen::MacroDesign md = rtlgen::gen_macro(cfg);
    const FlatNetlist nl = netlist::flatten(md.design, md.top);
    const ResolvedNetlist rn(nl, lib());
    // LevelizeGate input resolved by pin name, inputs and outputs in
    // cell pin order.
    std::vector<netlist::LevelizeGate> lv(nl.gates().size());
    for (std::uint32_t g = 0; g < nl.gates().size(); ++g) {
      const cell::Cell& c = lib().get(nl.master_names()[nl.gates()[g].master]);
      std::vector<std::uint32_t> by_pin(c.pins.size(), netlist::kNoConn);
      for (const FlatNetlist::PinConn& pc : nl.gate_pins(g)) {
        by_pin[static_cast<std::size_t>(
            c.pin_index(nl.pin_names()[pc.pin_name]))] = pc.net;
      }
      lv[g].combinational =
          c.timing_role() == cell::TimingRole::kCombinational;
      if (!lv[g].combinational) continue;
      for (std::size_t pi = 0; pi < c.pins.size(); ++pi) {
        (c.pins[pi].is_input ? lv[g].in_nets : lv[g].out_nets)
            .push_back(by_pin[pi]);
      }
    }
    const auto levels = netlist::levelize(nl, lv, "test");
    ASSERT_EQ(rn.level_count(), levels.size());
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const auto got = rn.level(l);
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                levels[l])
          << "level " << l;
    }
  }
}

TEST(Resolved, DriversFanoutAndLoadsAcrossConfigs) {
  for (const rtlgen::MacroConfig& cfg : config_variants()) {
    const rtlgen::MacroDesign md = rtlgen::gen_macro(cfg);
    const FlatNetlist nl = netlist::flatten(md.design, md.top);
    const ResolvedNetlist rn(nl, lib());
    std::vector<std::int32_t> driver(nl.net_count(), -1);
    std::vector<std::uint32_t> fanout(nl.net_count(), 0);
    std::vector<std::vector<std::uint32_t>> loads(nl.net_count());
    for (std::uint32_t g = 0; g < nl.gates().size(); ++g) {
      const cell::Cell& c = *rn.cell(g);
      const auto nets = rn.pin_nets(g);
      for (std::size_t pi = 0; pi < c.pins.size(); ++pi) {
        if (nets[pi] == kNoNet) continue;
        if (!c.pins[pi].is_input) {
          if (driver[nets[pi]] < 0) driver[nets[pi]] = g;
          continue;
        }
        ++fanout[nets[pi]];
        if (rn.combinational(g)) loads[nets[pi]].push_back(g);
      }
    }
    for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
      EXPECT_EQ(rn.driver(n), driver[n]) << "net " << n;
      EXPECT_EQ(rn.fanout(n), fanout[n]) << "net " << n;
      const auto got = rn.comb_loads(n);
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), loads[n])
          << "net " << n;
    }
  }
}

TEST(ResolvedErrors, UnknownPinThrowsFromStaAndGateSim) {
  const FlatNetlist nl = flat_from(R"(
module top (a, y);
  input a; output y;
  INVX1 u0 (.A(a), .Z(y));
endmodule
)",
                                   "top");
  const ResolvedNetlist rn(nl, lib());
  ASSERT_EQ(rn.defects().size(), 1u);  // an open output is no defect
  EXPECT_EQ(rn.defects()[0].kind, netlist::ResolveDefect::Kind::kUnknownPin);
  EXPECT_EQ(thrown([&] { sta::StaEngine s(nl, lib()); }),
            "StaEngine: cell INVX1 has no pin Z");
  EXPECT_EQ(thrown([&] { sim::GateSim s(nl, lib()); }),
            "GateSim: cell INVX1 has no pin Z");
  EXPECT_EQ(lint_count(nl, "LINT-UNKNOWN-PIN"), 1u);
}

TEST(ResolvedErrors, UnconnectedInputThrowsFromStaAndGateSim) {
  const FlatNetlist nl = flat_from(R"(
module top (b, y);
  input b; output y;
  NAND2X1 u0 (.A(b), .Y(y));
endmodule
)",
                                   "top");
  EXPECT_EQ(thrown([&] { sta::StaEngine s(nl, lib()); }),
            "StaEngine: unconnected input pin B on NAND2X1");
  EXPECT_EQ(thrown([&] { sim::GateSim s(nl, lib()); }),
            "GateSim: unconnected input B on NAND2X1");
  EXPECT_EQ(lint_count(nl, "LINT-UNCONNECTED"), 1u);
}

TEST(ResolvedErrors, SecondDriverThrowsFromStaAndGateSim) {
  const FlatNetlist nl = flat_from(R"(
module top (a, b, y);
  input a; input b; output y;
  INVX1 u0 (.A(a), .Y(y));
  INVX1 u1 (.A(b), .Y(y));
endmodule
)",
                                   "top");
  EXPECT_EQ(thrown([&] { sta::StaEngine s(nl, lib()); }),
            "StaEngine: net has multiple drivers");
  EXPECT_EQ(thrown([&] { sim::GateSim s(nl, lib()); }),
            "GateSim: multiple drivers on a net");
  EXPECT_EQ(lint_count(nl, "LINT-MULTIDRIVE"), 1u);
}

TEST(ResolvedErrors, CombinationalLoopThrowsFromStaAndGateSim) {
  const FlatNetlist nl = flat_from(R"(
module top (a, y);
  input a; output y;
  wire p; wire q;
  NAND2X1 u0 (.A(a), .B(q), .Y(p));
  INVX1 u1 (.A(p), .Y(q));
  INVX1 u2 (.A(q), .Y(y));
endmodule
)",
                                   "top");
  EXPECT_EQ(thrown([&] { sta::StaEngine s(nl, lib()); }),
            "StaEngine: combinational loop detected (3 gates "
            "unschedulable)");
  EXPECT_EQ(thrown([&] { sim::GateSim s(nl, lib()); }),
            "GateSim: combinational loop detected (3 gates "
            "unschedulable)");
  EXPECT_EQ(lint_count(nl, "LINT-COMB-LOOP"), 1u);
}

TEST(ResolvedErrors, DrivenInputAndConstantDriveThrowFromSta) {
  const FlatNetlist driven = flat_from(R"(
module top (a, b, y);
  input a; input b; output y;
  INVX1 u0 (.A(b), .Y(a));
  INVX1 u1 (.A(a), .Y(y));
endmodule
)",
                                       "top");
  EXPECT_EQ(thrown([&] { sta::StaEngine s(driven, lib()); }),
            "StaEngine: primary input a also driven by a gate");
  const FlatNetlist tied = flat_from(R"(
module top (a, y);
  input a; output y;
  wire t;
  assign t = 1'b0;
  INVX1 u0 (.A(a), .Y(t));
  INVX1 u1 (.A(a), .Y(y));
endmodule
)",
                                     "top");
  EXPECT_EQ(thrown([&] { sta::StaEngine s(tied, lib()); }),
            "StaEngine: gate drives constant net");
}

TEST(ResolvedErrors, FloatingNetIsLintedNotThrown) {
  const FlatNetlist nl = flat_from(R"(
module top (y);
  output y;
  wire f;
  INVX1 u0 (.A(f), .Y(y));
endmodule
)",
                                   "top");
  EXPECT_EQ(lint_count(nl, "LINT-FLOATING"), 1u);
  EXPECT_EQ(thrown([&] { sta::StaEngine s(nl, lib()); }), "");
}

TEST(FlatCodec, DecodeEncodeRoundTripIsByteIdentical) {
  for (const rtlgen::MacroConfig& cfg : config_variants()) {
    const rtlgen::MacroDesign md = rtlgen::gen_macro(cfg);
    const FlatNetlist nl = netlist::flatten(md.design, md.top);
    const std::string bytes = netlist::encode_flat_netlist(nl);
    const FlatNetlist back = netlist::decode_flat_netlist(bytes);
    EXPECT_EQ(netlist::encode_flat_netlist(back), bytes);
    ASSERT_EQ(back.gates().size(), nl.gates().size());
    ASSERT_EQ(back.pin_count(), nl.pin_count());
    for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
      ASSERT_EQ(back.net_name(n), nl.net_name(n));
    }
  }
}

}  // namespace
