// Static timing analysis throughput: the flat SoA per-level arc kernel
// vs the retained gate-at-a-time scalar arm, single-threaded, on a
// generated DCIM macro (32x32, mcr 2, 4/8b precisions — ~12.8k gates).
//
// Both arms run the exact same analysis (same StaEngine, same options,
// same cached load plan) and must produce bit-identical TimingReports;
// the bench cross-checks every report field before timing and exits
// nonzero on any mismatch. Throughput is full analyze() calls per wall
// second. It also times cold setup, the per-netlist cost every fresh
// engine pays once: StaEngine construction, the first analyze (which
// builds the load plan) and a repeat analyze (plan reused); each is the
// median of several fresh engines. `--json FILE` dumps the numbers and
// `--metrics FILE` writes the obs metrics registry (sta.paths.timed /
// sta.plan.builds). Exits nonzero if the SoA kernel is not at least 4x
// the scalar throughput.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cell/characterize.hpp"
#include "netlist/flatten.hpp"
#include "obs/obs.hpp"
#include "rtlgen/macro.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

rtlgen::MacroConfig bench_cfg() {
  rtlgen::MacroConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  cfg.mcr = 2;
  cfg.input_bits = {4, 8};
  cfg.weight_bits = {4, 8};
  cfg.fp_formats = {};
  return cfg;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

constexpr int kColdEngines = 7;

/// Cold setup of fresh engines, in ms (medians over `reps` engines).
struct ColdSetup {
  double build_ms = 0.0;
  double first_analyze_ms = 0.0;
  double repeat_analyze_ms = 0.0;
};

ColdSetup time_cold_setup(const netlist::FlatNetlist& flat,
                          const cell::Library& lib,
                          const sta::StaOptions& opt, int reps) {
  std::vector<double> build, first, repeat;
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    const sta::StaEngine eng(flat, lib);
    build.push_back(seconds_since(t0) * 1e3);
    t0 = std::chrono::steady_clock::now();
    sink += eng.analyze(opt).min_period_ps;
    first.push_back(seconds_since(t0) * 1e3);
    t0 = std::chrono::steady_clock::now();
    sink += eng.analyze(opt).min_period_ps;
    repeat.push_back(seconds_since(t0) * 1e3);
  }
  if (sink <= 0.0) std::abort();  // keep the work observable
  return {median(build), median(first), median(repeat)};
}

bool reports_equal(const sta::TimingReport& a, const sta::TimingReport& b,
                   std::string& why) {
  if (a.wns_ps != b.wns_ps) { why = "wns_ps"; return false; }
  if (a.tns_ps != b.tns_ps) { why = "tns_ps"; return false; }
  if (a.min_period_ps != b.min_period_ps) {
    why = "min_period_ps";
    return false;
  }
  if (a.fmax_mhz != b.fmax_mhz) { why = "fmax_mhz"; return false; }
  if (a.min_write_period_ps != b.min_write_period_ps) {
    why = "min_write_period_ps";
    return false;
  }
  if (a.groups.size() != b.groups.size()) { why = "groups"; return false; }
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    if (a.groups[i].group != b.groups[i].group ||
        a.groups[i].wns_ps != b.groups[i].wns_ps ||
        a.groups[i].worst_arrival_ps != b.groups[i].worst_arrival_ps) {
      why = "groups[" + std::to_string(i) + "]";
      return false;
    }
  }
  if (a.critical.arrival_ps != b.critical.arrival_ps ||
      a.critical.required_ps != b.critical.required_ps ||
      a.critical.endpoint != b.critical.endpoint ||
      a.critical.stages.size() != b.critical.stages.size()) {
    why = "critical";
    return false;
  }
  for (std::size_t i = 0; i < a.critical.stages.size(); ++i) {
    if (a.critical.stages[i].master != b.critical.stages[i].master ||
        a.critical.stages[i].arrival_ps !=
            b.critical.stages[i].arrival_ps) {
      why = "critical.stages[" + std::to_string(i) + "]";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, metrics_path;
  int iters = 40;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (a == "--iters" && i + 1 < argc) {
      try {
        iters = std::stoi(argv[++i]);
      } catch (...) {
        iters = 0;
      }
      if (iters < 4) {
        std::cerr << "error: --iters wants an integer >= 4\n";
        return 2;
      }
    } else {
      std::cerr << "usage: perf_sta [--iters N] [--json FILE]"
                   " [--metrics FILE]\n";
      return 2;
    }
  }

  const auto lib =
      cell::characterize_default_library(tech::make_default_40nm());
  const auto md = rtlgen::gen_macro(bench_cfg());
  const auto flat = netlist::flatten(md.design, md.top);
  std::printf("macro netlist: %zu gates, %zu nets\n", flat.gates().size(),
              flat.net_count());

  const sta::StaEngine eng(flat, lib);
  sta::StaOptions opt;
  opt.static_inputs = md.static_control_ports();

  // --- equivalence self-check (untimed; also warms the load plan) ------
  // The full report surface (groups, critical path) is compared
  // bit-for-bit.
  {
    sta::StaOptions o = opt;
    o.kernel = sta::StaKernel::kSoa;
    const auto soa = eng.analyze(o);
    o.kernel = sta::StaKernel::kScalar;
    const auto scalar = eng.analyze(o);
    std::string why;
    if (!reports_equal(soa, scalar, why)) {
      std::cerr << "FAIL: SoA and scalar reports differ at " << why << "\n";
      return 1;
    }
    std::printf("equivalence self-check passed (min period %.1f ps, "
                "%zu groups)\n",
                soa.min_period_ps, soa.groups.size());
  }

  // --- timed arms ------------------------------------------------------
  auto run_arm = [&](sta::StaKernel k) {
    sta::StaOptions o = opt;
    o.kernel = k;
    const auto t0 = std::chrono::steady_clock::now();
    double sink = 0.0;
    for (int i = 0; i < iters; ++i) {
      sink += eng.analyze(o).min_period_ps;
    }
    const double wall = seconds_since(t0);
    if (sink <= 0.0) std::abort();  // keep the loop observable
    return wall;
  };

  const double scalar_s = run_arm(sta::StaKernel::kScalar);
  const double soa_s = run_arm(sta::StaKernel::kSoa);
  const double scalar_rate = iters / scalar_s;
  const double soa_rate = iters / soa_s;
  const double speedup = soa_rate / scalar_rate;

  std::printf("scalar: %8.1f ms, %8.1f analyses/s\n", scalar_s * 1e3,
              scalar_rate);
  std::printf("soa   : %8.1f ms, %8.1f analyses/s (%.1fx scalar)\n",
              soa_s * 1e3, soa_rate, speedup);

  // --- cold setup (fresh engines; each first analyze builds its plan) --
  // Timed after the kernel arms so it leaves their measurement as it was.
  const ColdSetup cold = time_cold_setup(flat, lib, opt, kColdEngines);
  std::printf("cold  : build %.2f ms, first analyze %.2f ms, "
              "repeat analyze %.2f ms\n",
              cold.build_ms, cold.first_analyze_ms, cold.repeat_analyze_ms);

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\"format\": \"syndcim-perf-sta\", \"version\": 1,\n"
       << " \"gates\": " << flat.gates().size()
       << ", \"nets\": " << flat.net_count()
       << ", \"iters\": " << iters << ",\n"
       << " \"scalar\": {\"wall_ms\": " << scalar_s * 1e3
       << ", \"analyses_per_s\": " << scalar_rate << "},\n"
       << " \"soa\": {\"wall_ms\": " << soa_s * 1e3
       << ", \"analyses_per_s\": " << soa_rate
       << ", \"speedup\": " << speedup << "},\n"
       << " \"cold_setup\": {\"engines\": " << kColdEngines
       << ", \"build_ms\": " << cold.build_ms
       << ", \"first_analyze_ms\": " << cold.first_analyze_ms
       << ", \"repeat_analyze_ms\": " << cold.repeat_analyze_ms << "}}\n";
    std::ofstream f(json_path);
    f << os.str();
    if (!f.good()) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 2;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream f(metrics_path);
    f << obs::metrics().to_json();
    if (!f.good()) {
      std::cerr << "error: cannot write " << metrics_path << "\n";
      return 2;
    }
    std::cout << "wrote " << metrics_path << "\n";
  }

  // Acceptance gate: the SoA kernel must buy at least 4x the scalar
  // arm's single-thread analysis throughput.
  if (speedup < 4.0) {
    std::cerr << "FAIL: soa speedup " << speedup << "x < 4x\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}
