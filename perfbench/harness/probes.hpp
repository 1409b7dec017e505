#pragma once
// Layer probes: replay the public calls of every compile layer (rtlgen ->
// netlist -> layout -> sta -> power -> sim -> lint) on designs a workload
// produced, each inside its own span, so a traced run can say how much
// each layer costs on exactly those designs. Probes run cold — no
// artifact store — because they price the layer's work, not its cache.
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/eval_backend.hpp"
#include "rtlgen/arch.hpp"

namespace perfbench {

/// Designs to probe: search-time slices and implemented full macros.
struct ProbeSet {
  std::vector<syndcim::rtlgen::MacroConfig> slices;
  std::vector<syndcim::rtlgen::MacroConfig> macros;
  std::set<std::string> slice_keys;
  /// Adds `cfg`'s slice unless its slice content key is already present
  /// or `cap` slices are held.
  void add_slice(const syndcim::rtlgen::MacroConfig& cfg, std::size_t cap);
};

/// Counts from a probe run (times are in the span recorder).
struct ProbeCounts {
  std::uint64_t gates = 0;
  std::uint64_t sim_cycles = 0;
};

/// Runs every layer probe on every design of `set`; the full macros
/// also get a gate-level testbench run of 8 random MACs (the compiler's
/// power workload).
ProbeCounts run_probes(const ProbeSet& set, const syndcim::cell::Library& lib);

/// EvalBackend decorator that times and counts every evaluation the
/// searcher asks for, and collects the distinct slices evaluated. Not
/// thread-safe: one searcher, one thread.
class TimedBackend final : public syndcim::core::EvalBackend {
 public:
  explicit TimedBackend(syndcim::core::EvalBackend& inner) : inner_(inner) {}
  syndcim::core::EvalOutcome evaluate(
      const syndcim::rtlgen::MacroConfig& cfg,
      const syndcim::core::PerfSpec& spec) override;

  std::uint64_t evals = 0;
  double eval_ms = 0.0;
  std::vector<syndcim::rtlgen::MacroConfig> configs;  ///< in eval order

 private:
  syndcim::core::EvalBackend& inner_;
};

}  // namespace perfbench
