// SynDCIM end-to-end benchmark harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --smoke
//
// Runs one workload (compile_cold, sweep_cold, sweep_warm_store,
// serve_mixed) against the compiler libraries, checks its outputs, and
// prints as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics of a traced run (a layer the workload
// does not exercise reads 0). --smoke runs every workload, untraced and
// traced, on small inputs and exits non-zero if any check fails.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <unistd.h>

#include "common.hpp"
#include "dse/pool.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

/// Metric names and units; BENCHMARK.json lists the same sets.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"design_tops_per_w", "TOPS/W"},
    {"design_tops_per_mm2", "TOPS/mm2"},
};

std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"cell.characterize_ms", "ms"},
      {"core.search_ms", "ms"},
      {"core.search.evals", "count"},
      {"core.search.eval_ms", "ms"},
      {"core.scl.slices", "count"},
      {"core.implement_ms", "ms"},
      {"core.signoff_clean_share", "ratio"},
      {"core.fmax_estimate_error_pct", "%"},
      {"rtlgen.gen_ms", "ms"},
      {"netlist.stitch_ms", "ms"},
      {"netlist.gates", "count"},
      {"layout.place_ms", "ms"},
      {"layout.route_ms", "ms"},
      {"layout.extract_ms", "ms"},
      {"layout.drc_ms", "ms"},
      {"layout.lvs_ms", "ms"},
      {"sta.build_ms", "ms"},
      {"sta.analyze_first_ms", "ms"},
      {"sta.analyze_repeat_ms", "ms"},
      {"power.activity_ms", "ms"},
      {"power.analyze_ms", "ms"},
      {"sim.tb_ms", "ms"},
      {"sim.cycles", "count"},
      {"lint.ms", "ms"},
      {"dse.sweep_nolint_ms", "ms"},
      {"dse.frontier.merge_ms", "ms"},
      {"dse.frontier.lint_ms", "ms"},
      {"dse.frontier_hypervolume", "ratio"},
      {"dse.scaling", "x"},
      {"dse.pool.executed", "count"},
      {"dse.pool.stolen", "count"},
      {"dse.eval_cache.hits", "count"},
      {"dse.eval_cache.misses", "count"},
      {"dse.eval_cache.hit_ratio", "ratio"},
      {"dse.eval_cache.inflight_waits", "count"},
      {"dse.eval_cache.miss_eval_ms", "ms"},
  };
  for (const char* tier :
       {"modules", "blocks", "flats", "activity", "lints", "placed", "routes",
        "timings", "powers", "act_models"}) {
    for (const char* k : {"hits", "misses", "l2_hits"}) {
      m.emplace_back(std::string("core.artifacts.") + tier + "." + k,
                     "count");
    }
  }
  for (const auto& [n, u] : std::vector<std::pair<const char*, const char*>>{
           {"core.diskstore.objects_read", "count"},
           {"core.diskstore.bytes_read", "bytes"},
           {"core.diskstore.populate_s", "s"},
           {"serve.compile_cold_ms", "ms"},
           {"serve.compile_repeat_ms", "ms"},
           {"serve.sweep_ms", "ms"},
           {"serve.request_tail_ms", "ms"},
           {"serve.request_tail_pct", "%"},
           {"serve.requests", "count"},
           {"serve.coalesced", "count"},
           {"serve.eval_cache.hit_ratio", "ratio"},
           {"serve.artifacts.hit_ratio", "ratio"},
           {"trace.unattributed_share", "ratio"},
           {"trace.overhead_ms", "ms"}}) {
    m.emplace_back(n, u);
  }
  return m;
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Restricts `r.metrics` to the contract's set for this mode; a per-layer
/// metric the workload does not exercise reads 0. A missing end-to-end
/// metric or a non-finite value is a failure.
void normalize(Result& r, bool trace) {
  std::map<std::string, std::pair<double, std::string>> out;
  if (trace) {
    for (const auto& [n, u] : per_layer_metrics()) {
      const auto it = r.metrics.find(n);
      out[n] = {it == r.metrics.end() ? 0.0 : it->second.first, u};
    }
  } else {
    for (const auto& [n, u] : kEndToEnd) {
      const auto it = r.metrics.find(n);
      if (it == r.metrics.end()) {
        r.fail(std::string("metric ") + n + " was not measured");
        continue;
      }
      out[n] = {it->second.first, u};
    }
  }
  for (auto& [n, v] : out) {
    if (!std::isfinite(v.first)) {
      r.fail("metric " + n + " is not finite");
      v.first = 0.0;
    }
  }
  r.metrics = std::move(out);
}

std::string result_json(const Result& r) {
  const bool correct = r.failed == 0 && r.errors.empty();
  std::string j = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " +
                  std::to_string(std::max(r.failed, correct ? 0 : std::size_t{1})) +
                  ", \"metrics\": {";
  bool first = true;
  for (const auto& [n, v] : r.metrics) {
    j += (first ? "\"" : ", \"") + n + "\": {\"value\": " + num(v.first) +
         ", \"unit\": \"" + v.second + "\"}";
    first = false;
  }
  return j + "}}";
}

Result run(const Options& opt) {
  Result r;
  perfbench::spans().reset();
  try {
    if (opt.workload == "compile_cold") {
      r = perfbench::run_compile_cold(opt);
    } else if (opt.workload == "sweep_cold") {
      r = perfbench::run_sweep_cold(opt);
    } else if (opt.workload == "sweep_warm_store") {
      r = perfbench::run_sweep_warm_store(opt);
    } else if (opt.workload == "serve_mixed") {
      r = perfbench::run_serve_mixed(opt);
    } else {
      r.fail("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    ++r.attempted;
    r.fail(opt.workload + ": " + e.what());
  }
  r.attempted = std::max<std::size_t>(r.attempted, 1);
  for (const std::string& e : r.errors) {
    std::cerr << "FAIL " << opt.workload << ": " << e << "\n";
  }
  normalize(r, opt.trace);
  return r;
}

int usage() {
  std::cerr << "usage: perfbench --workload compile_cold|sweep_cold|"
               "sweep_warm_store|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--scratch DIR]\n"
               "       perfbench --smoke [--scratch DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.threads = std::min(4, syndcim::dse::WorkStealingPool::default_threads());
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has) {
      opt.seed = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (a == "--seconds" && has) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--scratch" && has) {
      opt.scratch_dir = argv[++i];
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return usage();
    }
  }
  if (!opt.smoke && opt.workload.empty()) return usage();
  if (opt.scratch_dir.empty()) {
    opt.scratch_dir = ".bench_build/scratch-" + std::to_string(::getpid());
  }
  std::filesystem::create_directories(opt.scratch_dir);

  if (!opt.smoke) {
    const Result r = run(opt);
    if (opt.trace) {
      // The traced run's spans, for inspection after the run, next to the
      // scratch directory.
      perfbench::spans().write(
          (std::filesystem::path(opt.scratch_dir).parent_path() /
           ("spans-" + opt.workload + ".json"))
              .string());
    }
    std::filesystem::remove_all(opt.scratch_dir);
    std::cout << result_json(r) << std::endl;
    return 0;
  }

  // Smoke: every workload once untraced and once traced, small inputs.
  Result all;
  opt.seconds = 0;
  for (const char* w :
       {"compile_cold", "sweep_cold", "sweep_warm_store", "serve_mixed"}) {
    for (const bool trace : {false, true}) {
      opt.workload = w;
      opt.trace = trace;
      const Result r = run(opt);
      const bool ok = r.failed == 0 && r.errors.empty();
      std::cerr << (ok ? "ok   " : "FAIL ") << w << (trace ? " traced" : "")
                << "\n";
      std::cout << w << (trace ? " --trace 1 " : " --trace 0 ")
                << result_json(r) << "\n";
      all.attempted += r.attempted;
      all.failed += ok ? 0 : std::max<std::size_t>(r.failed, 1);
    }
  }
  std::filesystem::remove_all(opt.scratch_dir);
  std::cout << result_json(all) << std::endl;
  return all.failed == 0 ? 0 : 1;
}
