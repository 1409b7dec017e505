#pragma once
#include <cstdint>
#include <utility>
#include <vector>

#include "cell/library.hpp"
#include "core/artifact_cache.hpp"
#include "netlist/flatten.hpp"
#include "netlist/resolved.hpp"
#include "sim/gate_sim.hpp"

namespace syndcim::power {

/// Per-net switching activity: toggles per clock cycle plus static one
/// probability (used for pass-gate leakage-style corrections and the
/// probabilistic estimator itself).
struct ActivityModel {
  std::vector<double> toggle_rate;  ///< transitions per cycle, per flat net
  std::vector<double> p_one;        ///< P(net == 1)
};

/// Extracts measured activity from a finished gate-level simulation run:
/// toggles / (cycles * lanes), since each simulated cycle of the
/// bit-parallel engine carries `lanes` independent workload cycles. P1 is
/// the final-state lane population (popcount / lanes). Clock nets (nets
/// driving CK pins) are forced to two transitions per cycle since GateSim
/// models an implicit clock.
[[nodiscard]] ActivityModel activity_from_sim(const sim::GateSim& gs);

/// Workload statistics for the probabilistic estimator.
struct ActivitySpec {
  /// P(primary input bit == 1); DCIM inputs follow the workload's bit
  /// density (e.g. Table II's 12.5% input sparsity point).
  double input_p1 = 0.5;
  /// Transitions per cycle on primary inputs.
  double input_toggle = 0.25;
  /// P(stored weight bit == 1) — bitcell outputs are static during MAC.
  double weight_p1 = 0.5;
};

/// Propagation engine selection. Both engines implement identical
/// semantics and produce bit-identical models; kScalar is the retained
/// gate-at-a-time control arm (and the only engine supporting
/// combinational cells with more than 5 inputs).
enum class ActivityEngine : std::uint8_t {
  kSoa,     ///< flat per-class loops with precomputed truth masks
  kScalar,  ///< retained per-gate eval_kind reference
};

/// One group's propagation result: final (p_one, toggle_rate) of every net
/// the group drives, in the group's first-driver order. A pure function of
/// the group's structure and its observed input probabilities — which is
/// exactly what the artifact key hashes, so replaying a cached artifact is
/// bit-identical to recomputing it.
struct GroupActivityArtifact {
  std::vector<std::pair<double, double>> driven;
};
/// Shared activity tier of the subcircuit-artifact cache.
using ActivityCache = core::ArtifactCache<GroupActivityArtifact>;

/// Zero-delay probabilistic activity propagation assuming spatial input
/// independence: P1 is propagated exactly per gate function under the
/// independence assumption and the toggle rate is damped through deep
/// logic. Used at search time, when no netlist-level simulation has run.
///
/// Gates are processed one depth-1 group at a time in first-occurrence
/// order (topological for generated macros — drivers before columns
/// before OFUs), each group iterated to its own fixpoint against
/// already-settled upstream values. With a cache, every group cone is
/// content-addressed by (library fingerprint, group structure, observed
/// boundary probabilities, workload spec), so unchanged cones splice
/// their cached activity instead of re-running the fixpoint — across
/// configurations, specs and sweep workers. Cold (cache == nullptr or
/// disabled: no key is built) and warm runs produce byte-identical models
/// by construction.
[[nodiscard]] ActivityModel propagate_activity_grouped(
    const netlist::ResolvedNetlist& rn, const ActivitySpec& spec,
    ActivityCache* cache = nullptr,
    ActivityEngine engine = ActivityEngine::kSoa);
[[nodiscard]] ActivityModel propagate_activity_grouped(
    const netlist::FlatNetlist& nl, const cell::Library& lib,
    const ActivitySpec& spec, ActivityCache* cache = nullptr,
    ActivityEngine engine = ActivityEngine::kSoa);

}  // namespace syndcim::power
