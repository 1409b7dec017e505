// P1: google-benchmark microbenchmarks of the EDA engines themselves —
// elaboration, flattening, STA, gate-level simulation, placement and the
// MSO search. These bound the compiler's own turnaround time.
#include <benchmark/benchmark.h>

#include "cell/characterize.hpp"
#include "core/compiler.hpp"
#include "layout/floorplan.hpp"
#include "netlist/flatten.hpp"
#include "power/power.hpp"
#include "rtlgen/macro.hpp"
#include "sim/macro_tb.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

rtlgen::MacroConfig bench_cfg() {
  core::PerfSpec s;
  s.rows = 64;
  s.cols = 16;
  s.mcr = 2;
  s.input_bits = {4, 8};
  s.weight_bits = {4, 8};
  auto cfg = s.base_config();
  cfg.ofu.pipeline_regs = 2;
  return cfg;
}

const rtlgen::MacroDesign& bench_macro() {
  static const rtlgen::MacroDesign md = rtlgen::gen_macro(bench_cfg());
  return md;
}

const netlist::FlatNetlist& bench_flat() {
  static const netlist::FlatNetlist f =
      netlist::flatten(bench_macro().design, bench_macro().top);
  return f;
}

void BM_Elaborate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(rtlgen::gen_macro(bench_cfg()));
  }
}
BENCHMARK(BM_Elaborate)->Unit(benchmark::kMillisecond);

void BM_Flatten(benchmark::State& state) {
  const auto& md = bench_macro();
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist::flatten(md.design, md.top));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(bench_flat().gates().size()));
}
BENCHMARK(BM_Flatten)->Unit(benchmark::kMillisecond);

void BM_StaAnalyze(benchmark::State& state) {
  const sta::StaEngine eng(bench_flat(), lib());
  sta::StaOptions opt;
  opt.static_inputs = bench_macro().static_control_ports();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.analyze(opt));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(bench_flat().gates().size()));
}
BENCHMARK(BM_StaAnalyze)->Unit(benchmark::kMillisecond);

void BM_GateSimStep(benchmark::State& state) {
  sim::GateSim gs(bench_flat(), lib());
  std::uint64_t x = 1;
  for (auto _ : state) {
    gs.set_input("clr", static_cast<int>(x & 1));
    x = x * 6364136223846793005ull + 1;
    for (int r = 0; r < 8; ++r) {
      gs.set_input_bus("din" + std::to_string(r), x >> (r % 32), 8);
    }
    gs.step();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(bench_flat().gates().size()));
}
BENCHMARK(BM_GateSimStep)->Unit(benchmark::kMillisecond);

void BM_SdpPlace(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        layout::sdp_place(bench_flat(), lib(), bench_cfg()));
  }
}
BENCHMARK(BM_SdpPlace)->Unit(benchmark::kMillisecond);

void BM_ActivityPropagation(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        power::propagate_activity_grouped(bench_flat(), lib(), {}));
  }
}
BENCHMARK(BM_ActivityPropagation)->Unit(benchmark::kMillisecond);

void BM_MsoSearch(benchmark::State& state) {
  core::PerfSpec s;
  s.rows = 32;
  s.cols = 16;
  s.mcr = 2;
  s.input_bits = {4};
  s.weight_bits = {4};
  s.mac_freq_mhz = 500;
  s.wupdate_freq_mhz = 500;
  for (auto _ : state) {
    // Fresh SCL each iteration: measures a cold search, cache and all.
    core::SubcircuitLibrary scl(lib());
    core::MsoSearcher searcher(scl);
    benchmark::DoNotOptimize(searcher.search(s));
  }
}
BENCHMARK(BM_MsoSearch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
