#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/diag.hpp"
#include "netlist/design.hpp"
#include "netlist/flatten.hpp"
#include "netlist/module.hpp"
#include "netlist/serialize.hpp"

namespace {
using namespace syndcim::netlist;

Module make_full_adder_module() {
  // Structural FA from two HAs + OR (classic decomposition).
  Module m("fa_struct");
  const NetId a = m.add_port("A", PortDir::kIn);
  const NetId b = m.add_port("B", PortDir::kIn);
  const NetId ci = m.add_port("CI", PortDir::kIn);
  const NetId s = m.add_port("S", PortDir::kOut);
  const NetId co = m.add_port("CO", PortDir::kOut);
  const NetId s1 = m.add_net("s1");
  const NetId c1 = m.add_net("c1");
  const NetId c2 = m.add_net("c2");
  m.add_cell("ha0", "HAX1", {{"A", a}, {"B", b}, {"S", s1}, {"CO", c1}});
  m.add_cell("ha1", "HAX1", {{"A", s1}, {"B", ci}, {"S", s}, {"CO", c2}});
  m.add_cell("or0", "OR2X1", {{"A", c1}, {"B", c2}, {"Y", co}});
  return m;
}

TEST(Module, BusNaming) {
  EXPECT_EQ(bus_name("sum", 3), "sum[3]");
  EXPECT_EQ(bus_name("x", 0), "x[0]");
}

TEST(Module, PortsAndNets) {
  Module m = make_full_adder_module();
  EXPECT_EQ(m.ports().size(), 5u);
  EXPECT_EQ(m.instances().size(), 3u);
  EXPECT_EQ(m.cell_count(), 3u);
  EXPECT_TRUE(m.has_port("CI"));
  EXPECT_FALSE(m.has_port("XX"));
  EXPECT_EQ(m.port("S").dir, PortDir::kOut);
  EXPECT_THROW((void)m.port("nope"), std::out_of_range);
}

TEST(Module, ConstNetsAreSingletons) {
  Module m("t");
  const NetId z1 = m.const0();
  const NetId z2 = m.const0();
  const NetId o = m.const1();
  EXPECT_EQ(z1, z2);
  EXPECT_FALSE(z1 == o);
  EXPECT_EQ(m.net(z1).tie, NetConst::kZero);
  EXPECT_EQ(m.net(o).tie, NetConst::kOne);
}

TEST(Module, AddBusCreatesIndexedNets) {
  Module m("t");
  const auto bus = m.add_bus("d", 4);
  ASSERT_EQ(bus.size(), 4u);
  EXPECT_EQ(m.net(bus[2]).name, "d[2]");
  const auto pbus = m.add_port_bus("q", PortDir::kOut, 3);
  EXPECT_EQ(m.ports().size(), 3u);
  EXPECT_EQ(m.net(pbus[0]).name, "q[0]");
}

TEST(Module, RejectsInvalidNet) {
  Module m("t");
  EXPECT_THROW(m.add_cell("i0", "INVX1", {{"A", NetId{}}}),
               std::invalid_argument);
}

/// Every port of `m` is found by name, resolving to its first-added
/// namesake.
void expect_ports_found(const Module& m) {
  for (std::size_t i = 0; i < m.ports().size(); ++i) {
    const Port& want = m.ports()[i];
    ASSERT_TRUE(m.has_port(want.name)) << want.name;
    std::size_t first = i;
    for (std::size_t j = 0; j < i; ++j) {
      if (m.ports()[j].name == want.name) {
        first = j;
        break;
      }
    }
    EXPECT_EQ(&m.port(want.name), &m.ports()[first]) << want.name;
    // The position hint never changes the answer: a hit on a repeated
    // name, a miss and an out-of-range hint all find the first port.
    EXPECT_EQ(&m.port(want.name, i), &m.ports()[first]) << want.name;
    EXPECT_EQ(&m.port(want.name, (i + 1) % m.ports().size()),
              &m.ports()[first])
        << want.name;
    EXPECT_EQ(&m.port(want.name, m.ports().size()), &m.ports()[first])
        << want.name;
  }
}

/// Ports added out of name order (bus bits sort as "d[10]" < "d[2]"), plus
/// one name added twice.
Module make_many_port_module() {
  Module m("ports");
  m.add_port_bus("d", PortDir::kIn, 12);
  m.add_port("clk", PortDir::kIn);
  m.add_port_bus("q", PortDir::kOut, 3);
  m.add_port("clk", PortDir::kOut);
  m.add_port("a", PortDir::kIn);
  return m;
}

TEST(ModulePortIndex, FirstAddedDuplicateWins) {
  Module m = make_many_port_module();
  const Port& clk = m.port("clk");
  EXPECT_EQ(clk.dir, PortDir::kIn);
  EXPECT_EQ(&clk, &m.ports()[12]);
  // A restored alias of an existing name does not shadow the original.
  m.restore_port("d[3]", PortDir::kOut, m.port("a").net);
  EXPECT_EQ(m.port("d[3]").dir, PortDir::kIn);
  EXPECT_EQ(m.port("d[3]").net, m.ports()[3].net);
  expect_ports_found(m);
}

TEST(ModulePortIndex, MissingNameThrowsOutOfRange) {
  const Module empty("empty");
  EXPECT_FALSE(empty.has_port("a"));
  EXPECT_THROW((void)empty.port("a"), std::out_of_range);
  const Module m = make_many_port_module();
  for (const char* name : {"", "d", "d[12]", "clk ", "q[", "zz", "A"}) {
    EXPECT_FALSE(m.has_port(name)) << name;
    EXPECT_FALSE(m.has_port(name, 0)) << name;
    EXPECT_THROW((void)m.port(name), std::out_of_range) << name;
  }
}

TEST(ModulePortIndex, RestoredAndCopiedModulesFindPorts) {
  Module m = make_many_port_module();
  const NetId n = m.add_net("alias");
  m.restore_port("b", PortDir::kOut, n);
  const Module decoded = decode_module(encode_module(m));
  ASSERT_EQ(decoded.ports().size(), m.ports().size());
  expect_ports_found(decoded);
  EXPECT_EQ(decoded.port("b").net, n);
  EXPECT_EQ(decoded.port("clk").dir, PortDir::kIn);

  auto original = std::make_unique<Module>(make_full_adder_module());
  const Module copy = *original;
  original.reset();  // the copy's index must not refer to the original
  expect_ports_found(copy);
  EXPECT_EQ(copy.port("CO").dir, PortDir::kOut);
  EXPECT_FALSE(copy.has_port("XX"));
}

TEST(ModulePortIndex, ValidateReportsDupInstAndNoPort) {
  Design d;
  d.add_module(make_full_adder_module());
  Module top("top");
  const NetId x = top.add_port("x", PortDir::kIn);
  const NetId y = top.add_port("y", PortDir::kOut);
  top.add_submodule("u0", "fa_struct",
                    {{"A", x}, {"B", x}, {"CI", x}, {"S", y}, {"BAD", x}});
  top.add_cell("u1", "INVX1", {{"A", x}});
  top.add_cell("u0", "INVX1", {{"A", x}});
  top.add_cell("u1", "INVX1", {{"A", x}});
  d.add_module(std::move(top));
  syndcim::core::DiagEngine diag;
  EXPECT_FALSE(validate(d, "top", diag));
  EXPECT_EQ(diag.count_rule("NET-DUPINST"), 2u);
  EXPECT_EQ(diag.count_rule("NET-NOPORT"), 1u);
  ASSERT_EQ(diag.diags().size(), 3u);
  // Findings follow instance order: u0's bad port, then the repeats.
  EXPECT_EQ(diag.diags()[0].rule, "NET-NOPORT");
  EXPECT_EQ(diag.diags()[0].object, "BAD");
  EXPECT_EQ(diag.diags()[1].object, "u0");
  EXPECT_EQ(diag.diags()[2].object, "u1");
}

TEST(Design, DuplicateModuleRejected) {
  Design d;
  d.add_module(Module("m"));
  EXPECT_THROW(d.add_module(Module("m")), std::invalid_argument);
}

TEST(Design, ValidateFindsMissingSubmodule) {
  Design d;
  Module top("top");
  const NetId x = top.add_port("x", PortDir::kIn);
  top.add_submodule("u0", "missing", {{"A", x}});
  d.add_module(std::move(top));
  const auto problems = validate(d, "top");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unknown submodule"), std::string::npos);
}

TEST(Design, ValidateFindsBadPortAndDupName) {
  Design d;
  d.add_module(make_full_adder_module());
  Module top("top");
  const NetId x = top.add_port("x", PortDir::kIn);
  const NetId y = top.add_port("y", PortDir::kOut);
  top.add_submodule("u0", "fa_struct",
                    {{"A", x}, {"B", x}, {"CI", x}, {"S", y}, {"BAD", x}});
  top.add_cell("u0", "INVX1", {{"A", x}});  // duplicate instance name
  d.add_module(std::move(top));
  const auto problems = validate(d, "top");
  EXPECT_EQ(problems.size(), 2u);
}

TEST(Flatten, SingleLevel) {
  Design d;
  d.add_module(make_full_adder_module());
  const FlatNetlist f = flatten(d, "fa_struct");
  EXPECT_EQ(f.gates().size(), 3u);
  EXPECT_EQ(f.primary_inputs().size(), 3u);
  EXPECT_EQ(f.primary_outputs().size(), 2u);
  // 5 port nets + 3 internal.
  EXPECT_EQ(f.net_count(), 8u);
  EXPECT_NO_THROW((void)f.input_net("CI"));
  EXPECT_THROW((void)f.input_net("S"), std::out_of_range);
  EXPECT_NO_THROW((void)f.output_net("S"));
}

TEST(Flatten, Hierarchical) {
  Design d;
  d.add_module(make_full_adder_module());
  Module top("rca2");
  const auto a = top.add_port_bus("a", PortDir::kIn, 2);
  const auto b = top.add_port_bus("b", PortDir::kIn, 2);
  const NetId ci = top.add_port("ci", PortDir::kIn);
  const auto s = top.add_port_bus("s", PortDir::kOut, 2);
  const NetId co = top.add_port("co", PortDir::kOut);
  const NetId c0 = top.add_net("c0");
  top.add_submodule("fa0", "fa_struct",
                    {{"A", a[0]}, {"B", b[0]}, {"CI", ci}, {"S", s[0]},
                     {"CO", c0}});
  top.add_submodule("fa1", "fa_struct",
                    {{"A", a[1]}, {"B", b[1]}, {"CI", c0}, {"S", s[1]},
                     {"CO", co}});
  d.add_module(std::move(top));
  const FlatNetlist f = flatten(d, "rca2");
  EXPECT_EQ(f.gates().size(), 6u);
  // Groups: top itself + fa0 + fa1.
  EXPECT_EQ(f.group_names().size(), 3u);
  EXPECT_EQ(f.group_names()[1], "fa0");
  // Nets: 8 top-level (a,b,s 2 each + ci + co) + c0 + per-FA internal 3.
  EXPECT_EQ(f.net_count(), 8u + 1u + 3u + 3u);
}

TEST(Flatten, SharedConstantsAcrossHierarchy) {
  Design d;
  Module leaf("leaf");
  const NetId y = leaf.add_port("Y", PortDir::kOut);
  leaf.add_cell("i0", "INVX1", {{"A", leaf.const0()}, {"Y", y}});
  d.add_module(std::move(leaf));
  Module top("top");
  const NetId o1 = top.add_port("o1", PortDir::kOut);
  const NetId o2 = top.add_port("o2", PortDir::kOut);
  top.add_submodule("u0", "leaf", {{"Y", o1}});
  top.add_submodule("u1", "leaf", {{"Y", o2}});
  top.add_cell("i0", "INVX1", {{"A", top.const0()}, {"Y", top.const1()}});
  d.add_module(std::move(top));
  const FlatNetlist f = flatten(d, "top");
  // All const0 nets collapse onto one flat net.
  std::uint32_t const0_net = UINT32_MAX;
  std::size_t const0_count = 0;
  for (std::uint32_t n = 0; n < f.net_count(); ++n) {
    if (f.net_const(n) == NetConst::kZero) {
      const0_net = n;
      ++const0_count;
    }
  }
  EXPECT_EQ(const0_count, 1u);
  std::size_t users = 0;
  for (std::uint32_t g = 0; g < f.gates().size(); ++g) {
    for (const auto& pc : f.gate_pins(g)) {
      if (pc.net == const0_net) ++users;
    }
  }
  EXPECT_EQ(users, 3u);
}

TEST(Flatten, UnconnectedInputThrows) {
  Design d;
  d.add_module(make_full_adder_module());
  Module top("top");
  const NetId x = top.add_port("x", PortDir::kIn);
  const NetId y = top.add_port("y", PortDir::kOut);
  top.add_submodule("u0", "fa_struct", {{"A", x}, {"S", y}});
  d.add_module(std::move(top));
  EXPECT_THROW((void)flatten(d, "top"), std::invalid_argument);
}

TEST(Flatten, UnconnectedOutputGetsDanglingNet) {
  Design d;
  d.add_module(make_full_adder_module());
  Module top("top");
  const NetId x = top.add_port("x", PortDir::kIn);
  const NetId y = top.add_port("y", PortDir::kOut);
  top.add_submodule("u0", "fa_struct",
                    {{"A", x}, {"B", x}, {"CI", x}, {"S", y}});  // CO open
  d.add_module(std::move(top));
  const FlatNetlist f = flatten(d, "top");
  EXPECT_EQ(f.gates().size(), 3u);
}

TEST(Flatten, MasterAndPinInterning) {
  Design d;
  d.add_module(make_full_adder_module());
  const FlatNetlist f = flatten(d, "fa_struct");
  // Two HAX1 gates share one interned master id.
  EXPECT_EQ(f.master_names().size(), 2u);  // HAX1, OR2X1
  int ha = 0;
  for (const auto& g : f.gates()) {
    if (f.master_names()[g.master] == "HAX1") ++ha;
  }
  EXPECT_EQ(ha, 2);
}

/// Three levels: top chains two "mid" instances, each mid chains two
/// "leaf" inverters through an internal net. Every module body is expanded
/// more than once, so instances after the first reuse its resolved
/// masters, pins and port nets.
Design make_inverter_chain_design() {
  Design d;
  Module leaf("leaf");
  const NetId la = leaf.add_port("A", PortDir::kIn);
  const NetId ly = leaf.add_port("Y", PortDir::kOut);
  leaf.add_cell("inv", "INVX1", {{"A", la}, {"Y", ly}});
  d.add_module(std::move(leaf));
  Module mid("mid");
  const NetId mi = mid.add_port("I", PortDir::kIn);
  const NetId mo = mid.add_port("O", PortDir::kOut);
  const NetId link = mid.add_net("link");
  mid.add_submodule("l0", "leaf", {{"A", mi}, {"Y", link}});
  mid.add_submodule("l1", "leaf", {{"Y", mo}, {"A", link}});
  d.add_module(std::move(mid));
  Module top("top");
  const NetId x = top.add_port("x", PortDir::kIn);
  const NetId y = top.add_port("y", PortDir::kOut);
  const NetId w = top.add_net("w");
  top.add_submodule("m0", "mid", {{"I", x}, {"O", w}});
  top.add_submodule("m1", "mid", {{"I", w}, {"O", y}});
  d.add_module(std::move(top));
  return d;
}

TEST(Flatten, NestedInstancesResolveThroughPortMaps) {
  const Design d = make_inverter_chain_design();
  const FlatNetlist f = flatten(d, "top");
  ASSERT_EQ(f.gates().size(), 4u);
  ASSERT_EQ(f.pin_names().size(), 2u);  // A, Y
  ASSERT_EQ(f.group_names().size(), 3u);  // top, m0, m1
  EXPECT_EQ(f.group_names()[1], "m0");
  EXPECT_EQ(f.group_names()[2], "m1");
  // x, y, w and one "link" per mid instance; leaf ports add no nets.
  EXPECT_EQ(f.net_count(), 5u);

  auto pin_net = [&](std::uint32_t g, const std::string& pin) {
    for (const auto& pc : f.gate_pins(g)) {
      if (f.pin_names()[pc.pin_name] == pin) return pc.net;
    }
    ADD_FAILURE() << "gate has no pin " << pin;
    return UINT32_MAX;
  };
  // The gates form one chain x -> inv -> inv -> inv -> inv -> y.
  std::uint32_t prev = f.input_net("x");
  for (std::uint32_t i = 0; i < f.gates().size(); ++i) {
    EXPECT_EQ(pin_net(i, "A"), prev) << "gate " << i;
    EXPECT_EQ(f.gates()[i].group, i < 2 ? 1u : 2u) << "gate " << i;
    prev = pin_net(i, "Y");
  }
  EXPECT_EQ(prev, f.output_net("y"));
  // Internal nets below the top are named after their depth-1 group.
  EXPECT_EQ(f.net_name(pin_net(0, "Y")), "m0.link");
  EXPECT_EQ(f.net_name(pin_net(2, "Y")), "m1.link");
  EXPECT_EQ(f.net_name(pin_net(1, "Y")), "w");
}

TEST(Flatten, RepeatedAndSubtreeCallsAreIndependent) {
  const Design d = make_inverter_chain_design();
  const std::string whole = encode_flat_netlist(flatten(d, "top"));
  const FlatNetlist sub = flatten(d, "mid");
  // A second call starts from fresh lookup tables: same bytes again.
  EXPECT_EQ(encode_flat_netlist(flatten(d, "top")), whole);
  // Flattening a lower module as top names its nets unprefixed and tags
  // its depth-1 instances as groups, however the module was used before.
  ASSERT_EQ(sub.gates().size(), 2u);
  ASSERT_EQ(sub.group_names().size(), 3u);  // mid, l0, l1
  EXPECT_EQ(sub.group_names()[1], "l0");
  EXPECT_EQ(sub.net_count(), 3u);  // I, O, link
  EXPECT_EQ(sub.net_name(2), "link");
  EXPECT_EQ(sub.gates()[0].group, 1u);
  EXPECT_EQ(sub.gates()[1].group, 2u);
}

}  // namespace
