// Direct GateSim semantics: levelized evaluation, sequential capture,
// toggle counting, constants, state access — plus the 64-lane
// bit-parallel / event-driven engine against the scalar reference.
#include <gtest/gtest.h>

#include <random>

#include "cell/characterize.hpp"
#include "netlist/design.hpp"
#include "netlist/flatten.hpp"
#include "power/activity.hpp"
#include "rtlgen/macro.hpp"
#include "sim/gate_sim.hpp"
#include "sim/macro_model.hpp"
#include "sim/macro_tb.hpp"
#include "sim/scalar_ref.hpp"
#include "tech/tech_node.hpp"

namespace {
using namespace syndcim;
using netlist::PortDir;

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

TEST(GateSim, CombinationalChainAndConstants) {
  netlist::Design d;
  netlist::Module m("t");
  const auto a = m.add_port("a", PortDir::kIn);
  const auto y = m.add_port("y", PortDir::kOut);
  const auto z = m.add_port("z", PortDir::kOut);
  const auto n1 = m.add_net("n1");
  m.add_cell("i0", "INVX1", {{"A", a}, {"Y", n1}});
  m.add_cell("i1", "INVX1", {{"A", n1}, {"Y", y}});
  m.add_cell("a0", "AND2X1", {{"A", m.const1()}, {"B", m.const0()}, {"Y", z}});
  d.add_module(std::move(m));
  const auto flat = netlist::flatten(d, "t");
  sim::GateSim gs(flat, lib());
  gs.set_input("a", 1);
  gs.eval();
  EXPECT_EQ(gs.output("y"), 1);
  EXPECT_EQ(gs.output("z"), 0);  // 1 & 0
  gs.set_input("a", 0);
  gs.eval();
  EXPECT_EQ(gs.output("y"), 0);
}

TEST(GateSim, DffCapturesOnStepOnly) {
  netlist::Design d;
  netlist::Module m("t");
  const auto clk = m.add_port("clk", PortDir::kIn);
  const auto a = m.add_port("a", PortDir::kIn);
  const auto q = m.add_port("q", PortDir::kOut);
  const auto qi = m.add_net("qi");
  m.add_cell("r0", "DFFX1", {{"D", a}, {"CK", clk}, {"Q", qi}});
  m.add_cell("b0", "BUFX1", {{"A", qi}, {"Y", q}});
  d.add_module(std::move(m));
  const auto flat = netlist::flatten(d, "t");
  sim::GateSim gs(flat, lib());
  gs.set_input("a", 1);
  gs.eval();
  EXPECT_EQ(gs.output("q"), 0);  // not captured yet
  gs.step();
  gs.eval();
  EXPECT_EQ(gs.output("q"), 1);
  gs.set_input("a", 0);
  gs.eval();
  EXPECT_EQ(gs.output("q"), 1);  // holds until the next edge
  gs.step();
  gs.eval();
  EXPECT_EQ(gs.output("q"), 0);
}

TEST(GateSim, EnableFlopAndStateAccess) {
  netlist::Design d;
  netlist::Module m("t");
  const auto clk = m.add_port("clk", PortDir::kIn);
  const auto a = m.add_port("a", PortDir::kIn);
  const auto e = m.add_port("e", PortDir::kIn);
  const auto q = m.add_port("q", PortDir::kOut);
  const auto qi = m.add_net("qi");
  m.add_cell("r0", "DFFEX1", {{"D", a}, {"E", e}, {"CK", clk}, {"Q", qi}});
  m.add_cell("b0", "BUFX1", {{"A", qi}, {"Y", q}});
  d.add_module(std::move(m));
  const auto flat = netlist::flatten(d, "t");
  sim::GateSim gs(flat, lib());
  gs.set_input("a", 1);
  gs.set_input("e", 0);
  gs.step();
  gs.eval();
  EXPECT_EQ(gs.output("q"), 0);  // enable low: held
  gs.set_input("e", 1);
  gs.step();
  gs.eval();
  EXPECT_EQ(gs.output("q"), 1);
  // Direct state access: gate 0 is the DFFE.
  EXPECT_EQ(gs.state(0), 1);
  gs.set_state(0, 0);
  gs.eval();
  EXPECT_EQ(gs.output("q"), 0);
  // set_state on a combinational gate is rejected.
  EXPECT_THROW(gs.set_state(1, 1), std::invalid_argument);
}

TEST(GateSim, ToggleCountingIsExact) {
  netlist::Design d;
  netlist::Module m("t");
  const auto a = m.add_port("a", PortDir::kIn);
  const auto y = m.add_port("y", PortDir::kOut);
  const auto n1 = m.add_net("n1");
  m.add_cell("i0", "INVX1", {{"A", a}, {"Y", n1}});
  m.add_cell("i1", "INVX1", {{"A", n1}, {"Y", y}});
  d.add_module(std::move(m));
  const auto flat = netlist::flatten(d, "t");
  sim::GateSim gs(flat, lib());
  gs.reset_activity();
  // Toggle a 10 times: every net flips 10 times (after the first eval
  // settles from the all-zero initial state).
  for (int t = 0; t < 10; ++t) {
    gs.set_input("a", t % 2 == 0 ? 1 : 0);
    gs.step();
  }
  const std::uint32_t y_net = flat.output_net("y");
  const std::uint32_t a_net = flat.input_net("a");
  EXPECT_EQ(gs.net_toggles()[a_net], 10u);
  // y = a buffered through two inverters: same toggle count.
  EXPECT_EQ(gs.net_toggles()[y_net], 10u);
  EXPECT_EQ(gs.cycles(), 10u);
  gs.reset_activity();
  EXPECT_EQ(gs.net_toggles()[y_net], 0u);
  EXPECT_EQ(gs.cycles(), 0u);
}

TEST(GateSim, ActivityFromSimMatchesToggleCounts) {
  netlist::Design d;
  netlist::Module m("t");
  const auto a = m.add_port("a", PortDir::kIn);
  const auto clk = m.add_port("clk", PortDir::kIn);
  const auto q = m.add_port("q", PortDir::kOut);
  const auto qi = m.add_net("qi");
  m.add_cell("r0", "DFFX1", {{"D", a}, {"CK", clk}, {"Q", qi}});
  m.add_cell("b0", "BUFX1", {{"A", qi}, {"Y", q}});
  d.add_module(std::move(m));
  const auto flat = netlist::flatten(d, "t");
  sim::GateSim gs(flat, lib());
  for (int t = 0; t < 8; ++t) {
    gs.set_input("a", t % 2);
    gs.step();
  }
  const auto act = power::activity_from_sim(gs);
  EXPECT_NEAR(act.toggle_rate[flat.input_net("a")], 1.0, 0.13);
  // Clock net forced to 2 transitions/cycle.
  EXPECT_DOUBLE_EQ(act.toggle_rate[flat.input_net("clk")], 2.0);
  // Unsimulated run is rejected.
  sim::GateSim gs2(flat, lib());
  EXPECT_THROW((void)power::activity_from_sim(gs2),
               std::invalid_argument);
}

rtlgen::MacroConfig sim_macro_cfg(int variant) {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 2;
  cfg.input_bits = {2, 4};
  cfg.weight_bits = {2, 4};
  cfg.fp_formats = {};
  if (variant == 1) {
    cfg.mux = rtlgen::MuxStyle::kOai22Fused;
  } else if (variant == 2) {
    cfg.tree.style = rtlgen::AdderTreeStyle::kCompressor;
  }
  return cfg;
}

// Core contract: with lanes == 1 the bit-parallel engine is bit-identical
// to the retained scalar reference — every net value, every toggle
// count, every cycle — across structurally different generated macros
// under random stimulus.
TEST(GateSimLanes, Lanes1BitIdenticalToScalarReference) {
  for (int variant = 0; variant < 3; ++variant) {
    const auto md = rtlgen::gen_macro(sim_macro_cfg(variant));
    const auto flat = netlist::flatten(md.design, md.top);
    sim::GateSim gs(flat, lib(), /*lanes=*/1);
    sim::ScalarGateSim ref(flat, lib());
    std::mt19937_64 rng(7 + static_cast<unsigned>(variant));
    for (int t = 0; t < 40; ++t) {
      for (const auto& io : flat.primary_inputs()) {
        const int bit = static_cast<int>(rng() & 1);
        gs.set_input(io.name, bit);
        ref.set_input(io.name, bit);
      }
      gs.step();
      ref.step();
    }
    gs.eval();
    ref.eval();
    ASSERT_EQ(gs.cycles(), ref.cycles());
    for (std::uint32_t n = 0; n < flat.net_count(); ++n) {
      ASSERT_EQ(gs.net_value(n), ref.net_value(n))
          << "variant " << variant << " net " << n;
      ASSERT_EQ(gs.net_toggles()[n], ref.net_toggles()[n])
          << "variant " << variant << " net " << n;
    }
  }
}

// Popcount toggle accounting: at lanes == 64 the packed engine's per-net
// toggle totals equal the sum of 64 independent scalar replays, and every
// lane's values match its own replay bit-for-bit.
TEST(GateSimLanes, Lane64TogglesMatchPerLaneScalarReplay) {
  const auto md = rtlgen::gen_macro(sim_macro_cfg(0));
  const auto flat = netlist::flatten(md.design, md.top);
  constexpr int kLanes = 64;
  constexpr int kSteps = 12;
  sim::GateSim gs(flat, lib(), kLanes);
  // stim[t][input] = packed 64-lane word driven at step t.
  std::vector<std::vector<std::uint64_t>> stim(
      kSteps, std::vector<std::uint64_t>(flat.primary_inputs().size()));
  std::mt19937_64 rng(11);
  for (int t = 0; t < kSteps; ++t) {
    for (std::size_t i = 0; i < flat.primary_inputs().size(); ++i) {
      stim[t][i] = rng();
      gs.set_input_word(flat.primary_inputs()[i].name, stim[t][i]);
    }
    gs.step();
  }
  gs.eval();

  std::vector<std::uint64_t> toggle_sum(flat.net_count(), 0);
  for (int l = 0; l < kLanes; ++l) {
    sim::ScalarGateSim ref(flat, lib());
    for (int t = 0; t < kSteps; ++t) {
      for (std::size_t i = 0; i < flat.primary_inputs().size(); ++i) {
        ref.set_input(flat.primary_inputs()[i].name,
                      static_cast<int>(stim[t][i] >> l & 1u));
      }
      ref.step();
    }
    ref.eval();
    for (std::uint32_t n = 0; n < flat.net_count(); ++n) {
      toggle_sum[n] += ref.net_toggles()[n];
      ASSERT_EQ(static_cast<int>(gs.net_word(n) >> l & 1u),
                ref.net_value(n))
          << "lane " << l << " net " << n;
    }
  }
  for (std::uint32_t n = 0; n < flat.net_count(); ++n) {
    ASSERT_EQ(gs.net_toggles()[n], toggle_sum[n]) << "net " << n;
  }
}

// The engine picks its schedule from the lane count, and either schedule
// reproduces the scalar reference exactly. Under stimulus that touches
// only one input per cycle, a 1-lane engine drains the dirty worklist and
// skips evaluations; a 64-lane engine sweeps every level and skips none.
TEST(GateSimLanes, ScheduleFollowsLaneCount) {
  static_assert(1 < sim::GateSim::kSweepLanes &&
                sim::GateSim::kSweepLanes <= 64);
  const auto md = rtlgen::gen_macro(sim_macro_cfg(2));
  const auto flat = netlist::flatten(md.design, md.top);
  const auto& ins = flat.primary_inputs();
  constexpr int kSteps = 40;
  // stim[t] = (input index, packed 64-lane word) driven at step t.
  std::vector<std::pair<std::size_t, std::uint64_t>> stim;
  std::mt19937_64 rng(13);
  for (int t = 0; t < kSteps; ++t) {
    const std::size_t i = rng() % ins.size();
    stim.emplace_back(i, rng());
  }

  // Replays lane `l` of the stimulus on the scalar reference.
  const auto replay = [&](int l) {
    auto ref = std::make_unique<sim::ScalarGateSim>(flat, lib());
    for (const auto& [i, word] : stim) {
      ref->set_input(ins[i].name, static_cast<int>(word >> l & 1u));
      ref->step();
    }
    ref->eval();
    return ref;
  };

  sim::GateSim one(flat, lib(), 1);
  sim::GateSim wide(flat, lib(), 64);
  for (const auto& [i, word] : stim) {
    one.set_input_word(ins[i].name, word);
    wide.set_input_word(ins[i].name, word);
    one.step();
    wide.step();
  }
  one.eval();
  wide.eval();

  const auto ref0 = replay(0);
  for (std::uint32_t n = 0; n < flat.net_count(); ++n) {
    ASSERT_EQ(one.net_value(n), ref0->net_value(n)) << "net " << n;
    ASSERT_EQ(one.net_toggles()[n], ref0->net_toggles()[n]) << "net " << n;
  }
  EXPECT_GT(one.events_skipped(), 0u);
  EXPECT_EQ(one.gate_evals() + one.events_skipped(), wide.gate_evals());

  EXPECT_EQ(wide.events_skipped(), 0u);
  std::vector<std::uint64_t> toggle_sum(flat.net_count(), 0);
  for (int l = 0; l < 64; ++l) {
    const auto ref = replay(l);
    for (std::uint32_t n = 0; n < flat.net_count(); ++n) {
      toggle_sum[n] += ref->net_toggles()[n];
      ASSERT_EQ(static_cast<int>(wide.net_word(n) >> l & 1u),
                ref->net_value(n))
          << "lane " << l << " net " << n;
    }
  }
  for (std::uint32_t n = 0; n < flat.net_count(); ++n) {
    ASSERT_EQ(wide.net_toggles()[n], toggle_sum[n]) << "net " << n;
  }
}

// One protocol pass of run_mac_int_lanes carries an independent MAC per
// lane: each lane's outputs must match the behavioral model for that
// lane's inputs, and lane 0 must match the scalar-path run_mac_int.
TEST(GateSimLanes, MacroTestbenchLanesMatchModelPerLane) {
  const rtlgen::MacroConfig cfg = sim_macro_cfg(0);
  const auto md = rtlgen::gen_macro(cfg);
  sim::DcimMacroModel model(cfg);
  constexpr int kLanes = 5;
  sim::MacroTestbench tb(md, lib(), kLanes);
  EXPECT_EQ(tb.lanes(), kLanes);

  std::mt19937 rng(17);
  const int wp = 4, ib = 4;
  const num::IntFormat wf{wp, true}, inf{ib, true};
  std::uniform_int_distribution<std::int64_t> wdist(wf.min_value(),
                                                    wf.max_value());
  std::uniform_int_distribution<std::int64_t> idist(inf.min_value(),
                                                    inf.max_value());
  std::vector<std::vector<std::int64_t>> w(
      static_cast<std::size_t>(cfg.cols / wp));
  for (auto& g : w) {
    g.resize(static_cast<std::size_t>(cfg.rows));
    for (auto& v : g) v = wdist(rng);
  }
  model.load_weights_int(0, wp, w);
  tb.preload_weights(model);

  std::vector<std::vector<std::int64_t>> in(
      kLanes, std::vector<std::int64_t>(static_cast<std::size_t>(cfg.rows)));
  for (auto& li : in) {
    for (auto& v : li) v = idist(rng);
  }
  const auto out = tb.run_mac_int_lanes(in, ib, wp, 0);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kLanes));
  for (int l = 0; l < kLanes; ++l) {
    EXPECT_EQ(out[static_cast<std::size_t>(l)],
              model.mac_int(in[static_cast<std::size_t>(l)], ib, wp, 0))
        << "lane " << l;
  }
  // Lane 0's packed result equals the scalar-path protocol run.
  sim::MacroTestbench tb0(md, lib());
  tb0.preload_weights(model);
  EXPECT_EQ(out[0], tb0.run_mac_int(in[0], ib, wp, 0));
}

TEST(GateSimLanes, RejectsBadLaneCounts) {
  const auto md = rtlgen::gen_macro(sim_macro_cfg(0));
  const auto flat = netlist::flatten(md.design, md.top);
  EXPECT_THROW((sim::GateSim{flat, lib(), 0}), std::invalid_argument);
  EXPECT_THROW((sim::GateSim{flat, lib(), 65}), std::invalid_argument);
  sim::GateSim gs(flat, lib(), 4);
  EXPECT_THROW(gs.set_input_bus_lanes("din0", {1, 2, 3}, 2),
               std::invalid_argument);
}

TEST(GateSim, RejectsBadNetlists) {
  // Unconnected input pin.
  netlist::Design d;
  netlist::Module m("t");
  const auto y = m.add_port("y", PortDir::kOut);
  m.add_cell("i0", "INVX1", {{"Y", y}});
  d.add_module(std::move(m));
  const auto flat = netlist::flatten(d, "t");
  EXPECT_THROW((sim::GateSim{flat, lib()}), std::invalid_argument);
}

}  // namespace
