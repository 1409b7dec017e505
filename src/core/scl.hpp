#pragma once
#include <memory>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "core/design_point.hpp"
#include "core/spec.hpp"
#include "core/stage.hpp"
#include "rtlgen/arch.hpp"

namespace syndcim::core {

/// Characterized PPA of one macro configuration, obtained by elaborating a
/// single-OFU-group *slice* of the macro (all columns are identical, so
/// the slice's stage timing and per-group power/area compose exactly into
/// the full macro). Every stage behind it is memoized in the artifact
/// store — this is the paper's "subcircuit library with PPA lookup
/// tables": the searcher consults these entries instead of re-elaborating
/// full macros.
struct SliceEval {
  int slice_cols = 0;
  // Nominal-voltage timing (scale by TechNode::delay_scale for other VDD).
  double min_period_ps = 0.0;        ///< MAC-domain limit incl. OFU/outputs
  double min_write_period_ps = 0.0;  ///< weight-update limit
  /// Minimum feasible period of the MAC array pipeline stages (column
  /// tree/S&A plus drivers/alignment), excluding the OFU/output stage —
  /// the "adder path" of Algorithm 1.
  double mac_path_period_ps = 0.0;
  /// Minimum feasible period of the OFU/output stage ("OFU path").
  double ofu_path_period_ps = 0.0;

  // Per-group nominal dynamic energy (fJ per cycle, 50% data activity),
  // leakage (nW) and cell area (um^2), keyed by depth-1 group name.
  struct GroupCost {
    std::string group;
    double dynamic_fj = 0.0;
    double leakage_nw = 0.0;
    double area_um2 = 0.0;
  };
  std::vector<GroupCost> groups;
  std::size_t gate_count = 0;
};

/// The SynDCIM Subcircuit Library (SCL).
///
/// Characterization runs as a staged pipeline (gen+flatten -> floorplan ->
/// route -> sta -> activity -> power) over a content-addressed
/// ArtifactStore; each stage skips when its input key is already present.
/// Because the slice content key normalizes the column count, every
/// configuration differing only in `cols` shares one characterization,
/// and a one-knob delta re-runs only the stages its knob reaches.
///
/// The library holds no cache of its own: the store is the only memo, so
/// a repeat `slice()` replays every stage from its tier. The store can be
/// shared across SubcircuitLibrary instances, the compiler and the DSE
/// worker threads; its tiers are thread-safe, so concurrent calls need no
/// lock.
class SubcircuitLibrary {
 public:
  /// Owns a private artifact store.
  explicit SubcircuitLibrary(const cell::Library& lib)
      : SubcircuitLibrary(lib, std::make_shared<ArtifactStore>()) {}
  /// Shares `store` — the sweep points every worker at one store so
  /// subcircuit artifacts are reused across specs and threads.
  SubcircuitLibrary(const cell::Library& lib,
                    std::shared_ptr<ArtifactStore> store);

  /// Slice characterization of `cfg`, assembled from the store's tiers.
  [[nodiscard]] SliceEval slice(const rtlgen::MacroConfig& cfg);

  /// Full-macro search-time PPA estimate under `spec`'s frequency/voltage.
  [[nodiscard]] PpaEstimate evaluate(const rtlgen::MacroConfig& cfg,
                                     const PerfSpec& spec);

  /// Timing classification at the spec voltage for Algorithm 1: does the
  /// MAC ("adder") path meet, does the OFU path meet, does the write path
  /// meet?
  struct PathStatus {
    double mac_period_ps = 0.0;
    double ofu_period_ps = 0.0;
    double write_period_ps = 0.0;
    bool mac_ok = false;
    bool ofu_ok = false;
    bool write_ok = false;
    [[nodiscard]] bool all_ok() const { return mac_ok && ofu_ok && write_ok; }
  };
  [[nodiscard]] PathStatus timing_status(const rtlgen::MacroConfig& cfg,
                                         const PerfSpec& spec);

  /// tt1's "faster adders available in the SCL": the next-faster adder
  /// tree variant after `cur`, if any (more full adders, then reorder).
  [[nodiscard]] static std::vector<rtlgen::AdderTreeConfig>
  faster_tree_ladder(const rtlgen::AdderTreeConfig& cur);

  [[nodiscard]] const cell::Library& cells() const { return lib_; }

  /// The subcircuit-artifact store this library characterizes through.
  [[nodiscard]] ArtifactStore& artifacts() { return *store_; }
  [[nodiscard]] const std::shared_ptr<ArtifactStore>& artifact_store()
      const {
    return store_;
  }

 private:
  const cell::Library& lib_;
  std::shared_ptr<ArtifactStore> store_;
};

}  // namespace syndcim::core
